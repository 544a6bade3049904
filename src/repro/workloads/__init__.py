"""Workload generators for the evaluation (Section 8.1.3).

* :mod:`repro.workloads.smallbank` — Blockbench SmallBank account mix;
* :mod:`repro.workloads.ycsb` — YCSB-style KVStore load/run phases with
  zipfian key choice and Read-Only / Read-Write / Write-Only mixes;
* :mod:`repro.workloads.provenance` — the provenance benchmark: a small
  base set updated continuously, queried over varying block ranges.
"""

from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.ycsb import Mix, YCSBWorkload
from repro.workloads.provenance import ProvenanceWorkload

__all__ = [
    "SmallBankWorkload",
    "YCSBWorkload",
    "Mix",
    "ProvenanceWorkload",
]
