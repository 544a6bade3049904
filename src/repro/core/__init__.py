"""COLE: the column-based learned storage itself (Sections 3-6).

Public surface:

* :class:`Cole` — the storage engine (``put`` / ``get`` / ``prov_query`` /
  ``root_digest``), in synchronous (Algorithm 1) or checkpoint-based
  asynchronous-merge (Algorithm 5, "COLE*") mode;
* :func:`verify_provenance` — client-side verification of provenance
  results against the state root digest in a block header;
* :data:`MAX_BLK` — the largest block height, the ``<addr, MAX_BLK>``
  latest-version sentinel of the Section 3.2 compound key;
* :func:`rewind_to` — fork support (state rewind), the paper's stated
  future work, implemented as filter-and-rebuild;
* :func:`export_slice` / :func:`import_slice` — streaming portable
  export of a snapshot-consistent keyspace slice, and its replay
  (``repro export`` / ``repro import``).
"""

from repro.core.compound import MAX_BLK
from repro.core.cursor import MergingCursor, addr_successor
from repro.core.export import export_slice, import_slice, iter_triples, read_header
from repro.core.storage import Cole
from repro.core.proofs import ProvenanceProof, ProvenanceResult
from repro.core.verify import verify_provenance
from repro.core.rewind import rewind_to

__all__ = [
    "Cole",
    "export_slice",
    "import_slice",
    "iter_triples",
    "read_header",
    "rewind_to",
    "MergingCursor",
    "addr_successor",
    "MAX_BLK",
    "ProvenanceProof",
    "ProvenanceResult",
    "verify_provenance",
]
