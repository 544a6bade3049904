"""Exception hierarchy for the reproduction.

A single root (:class:`ReproError`) lets callers catch everything the
library raises on purpose, while the subclasses distinguish storage-layer
faults from authentication failures.
"""


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class StorageError(ReproError):
    """A disk-level operation failed (bad page id, truncated file, ...)."""


class IntegrityError(ReproError):
    """Stored data failed an internal consistency check."""


class VerificationError(ReproError):
    """A Merkle proof failed to verify against the published root digest."""

