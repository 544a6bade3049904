"""COLE: Column-based Learned Storage for Blockchain Systems (FAST 2024).

A from-scratch Python reproduction of the paper and all of its
substrates.  The most common entry points:

>>> from repro import Cole, ColeParams, verify_provenance

See README.md for a tour (its "Benchmarks and experiments" table lists
the reproduction of every table and figure) and DESIGN.md for the system
inventory.
"""

from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core import Cole, CompoundKey, verify_provenance
from repro.sharding import ShardedCole, verify_sharded_provenance
from repro.wal import WriteAheadLog, replay_wal, restore_store, snapshot_store

__version__ = "1.2.0"

__all__ = [
    "Cole",
    "ColeParams",
    "ShardedCole",
    "ShardParams",
    "SystemParams",
    "CompoundKey",
    "verify_provenance",
    "verify_sharded_provenance",
    "WriteAheadLog",
    "replay_wal",
    "snapshot_store",
    "restore_store",
    "__version__",
]
