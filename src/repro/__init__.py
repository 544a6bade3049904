"""COLE: Column-based Learned Storage for Blockchain Systems (FAST 2024).

A from-scratch Python reproduction of the paper and all of its
substrates.  The most common entry points:

>>> from repro import Cole, ColeParams, verify_provenance

See README.md for a tour (its "Benchmarks and experiments" table lists
the reproduction of every table and figure) and DESIGN.md for the system
inventory.
"""

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance
from repro.wal import WriteAheadLog, replay_wal, restore_store, snapshot_store

__version__ = "1.2.0"

__all__ = [
    "Cole",
    "ColeParams",
    "SystemParams",
    "verify_provenance",
    "WriteAheadLog",
    "replay_wal",
    "snapshot_store",
    "restore_store",
    "__version__",
]
