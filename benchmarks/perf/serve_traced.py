"""``repro serve`` with the benchmark's spans installed.

Usage (the harness starts it; arguments after ``--`` go to ``repro serve``)::

    python serve_traced.py --dump PREFIX --sync-log FILE -- WORKSPACE --port 0 ...

* SIGUSR1 writes the tracer's aggregates and sampled spans to
  ``PREFIX.<n>`` (n = 1, 2, ...; written to a temp name, then renamed).
  A signal, not an exit hook: the durability check ends this process
  with SIGKILL, after its spans have been read.
* Every ``os.fsync`` the WAL issues appends ``<size>\\t<path>`` to the
  sync log, with the size taken *before* the call — the bytes that
  fsync is guaranteed to have covered.  The harness uses it to discard
  unflushed bytes after a SIGKILL.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import spans  # noqa: E402

SAMPLE_EVERY = 50  # full span records are kept for every 50th request


class _FsyncRecordingOs:
    """Stands in for the ``os`` module inside ``repro.wal.log``."""

    def __init__(self, log_path: str) -> None:
        self._log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def __getattr__(self, name: str):
        return getattr(os, name)

    def fsync(self, fd: int) -> None:
        size = os.fstat(fd).st_size
        path = os.readlink(f"/proc/self/fd/{fd}")
        os.fsync(fd)
        os.write(self._log_fd, f"{size}\t{path}\n".encode())


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dump", required=True, help="dump file prefix")
    parser.add_argument("--sync-log", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve_args if arg != "--"]

    tracer = spans.Tracer(sample_every=SAMPLE_EVERY)
    spans.install(tracer, served=True)
    import repro.wal.log as wal_log

    wal_log.os = _FsyncRecordingOs(args.sync_log)

    dumps = [0]

    def on_usr1(_signum, _frame) -> None:
        dumps[0] += 1
        temp = f"{args.dump}.tmp"
        tracer.write(temp)
        os.replace(temp, f"{args.dump}.{dumps[0]}")

    signal.signal(signal.SIGUSR1, on_usr1)

    from repro.cli import main as cli_main

    return cli_main(["serve"] + serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
