#!/usr/bin/env bash
# Streaming export/import and hard-link checkpoints, driven through the
# CLI exactly as an operator would:
#
#   1. build a WAL-backed workspace (write-once keys, canonical sorted
#      per-block write sets — the export round-trip equality contract);
#   2. `repro export` -> `repro import` into a fresh workspace, and
#      require the CLI's own root-equality verdict;
#   3. `repro snapshot` -> more blocks -> a second `repro snapshot`,
#      whose run files are hard links (a `.val` file with two or more
#      links) -> `--verify-only` on both -> `repro restore` of both,
#      each of which exits non-zero unless the restored root matches
#      its snapshot record;
#   4. a copy of the restored workspace with `format` deleted from its
#      MANIFEST.json (run files of a build before format 2) must make
#      `repro query levels` exit non-zero naming `repro export`;
#   5. so must a copy whose MANIFEST.json records `"compaction":
#      "tiering"` (runs laid out by the removed tiering policy).
set -euo pipefail

ROOT=$(mktemp -d /tmp/repro-export-smoke.XXXXXX)
trap 'rm -rf "$ROOT"' EXIT
WS="$ROOT/ws"

load_blocks() {
  # load_blocks WORKSPACE FIRST_BLK COUNT — append COUNT blocks of
  # fresh (never overwritten) keys through the engine and its WAL.
  python - "$1" "$2" "$3" <<'EOF'
import hashlib
import os
import sys

from repro.common.params import ColeParams
from repro.core import Cole
from repro.wal import WriteAheadLog, replay_wal

workspace, first, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
params = ColeParams(async_merge=True, mem_capacity=512)  # _open_engine's geometry
engine = Cole(workspace, params)
wal = WriteAheadLog(os.path.join(workspace, "wal"))
replay_wal(engine, wal)
addr_size = params.system.addr_size
value_size = params.system.value_size
for blk in range(first, first + count):
    batch = []
    for n in range(40):
        key = blk * 40 + n  # write-once: no key ever repeats
        addr = hashlib.sha256(f"exp-{key}".encode()).digest()[:addr_size]
        value = hashlib.sha256(f"val-{key}".encode()).digest()[:value_size]
        batch.append((addr, value.ljust(value_size, b"\0")))
    batch.sort()
    engine.begin_block(blk)
    wal.append_puts(batch, blk)
    engine.put_many(batch)
    root = engine.commit_block()
    wal.append_commit(blk, bytes(root))
engine.wait_for_merges()
print(f"loaded through block {first + count - 1}: {engine.root_digest().hex()}")
wal.close()
engine.close()
EOF
}

echo "== export -> import round trip =="
load_blocks "$WS" 1 30
python -m repro.cli export -w "$WS" -o "$ROOT/slice.repx"
python -m repro.cli import "$ROOT/slice.repx" -w "$ROOT/imported" \
  | tee "$ROOT/import.out"
grep -q "root digest matches the export header" "$ROOT/import.out"

echo "== two checkpoints: linked runs, verify, restore =="
python -m repro.cli snapshot "$WS" "$ROOT/snap-1"
load_blocks "$WS" 31 4
python -m repro.cli snapshot "$WS" "$ROOT/snap-2"
linked=no
for val in "$ROOT"/snap-2/*.val; do
  if [ "$(stat -c %h "$val")" -ge 2 ]; then linked=yes; fi
done
if [ "$linked" != yes ]; then
  echo "no run file of the second checkpoint is a hard link" >&2
  exit 1
fi
python -m repro.cli snapshot --verify-only "$ROOT/snap-1"
python -m repro.cli snapshot --verify-only "$ROOT/snap-2"
python -m repro.cli restore "$ROOT/snap-1" "$ROOT/restored-1" \
  | tee "$ROOT/restore-1.out"
grep -q "root digest matches the snapshot record" "$ROOT/restore-1.out"
python -m repro.cli restore "$ROOT/snap-2" "$ROOT/restored" \
  | tee "$ROOT/restore.out"
grep -q "root digest matches the snapshot record" "$ROOT/restore.out"

echo "== a manifest without format is refused =="
cp -r "$ROOT/restored" "$ROOT/old-format"
python - "$ROOT/old-format/MANIFEST.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as handle:
    manifest = json.load(handle)
del manifest["format"]  # as a build before format 2 wrote it
with open(sys.argv[1], "w") as handle:
    json.dump(manifest, handle)
EOF
if python -m repro.cli query -w "$ROOT/old-format" levels 2> "$ROOT/old-format.err"; then
  echo "repro query levels opened a manifest without format" >&2
  exit 1
fi
grep -q "repro export" "$ROOT/old-format.err"

echo "== a manifest recording tiering is refused =="
cp -r "$ROOT/restored" "$ROOT/tiering"
python - "$ROOT/tiering/MANIFEST.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as handle:
    manifest = json.load(handle)
manifest["compaction"] = "tiering"  # as a build with the tiering policy wrote it
with open(sys.argv[1], "w") as handle:
    json.dump(manifest, handle)
EOF
if python -m repro.cli query -w "$ROOT/tiering" levels 2> "$ROOT/tiering.err"; then
  echo "repro query levels opened a manifest recording tiering" >&2
  exit 1
fi
grep -q "repro export" "$ROOT/tiering.err"

echo "export/snapshot smoke OK"
