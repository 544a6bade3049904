"""A dict-of-versions model of the store (the shape of
``benchmarks/perf/workgen.py::VersionModel``, re-declared for tier-1):
what the view and cache tests compare every served answer against."""

import bisect


class VersionModel:
    """addr -> ascending ``[(blk, value)]``."""

    def __init__(self) -> None:
        self.versions = {}

    def write(self, addr: bytes, blk: int, value: bytes) -> None:
        history = self.versions.setdefault(addr, [])
        if history and history[-1][0] == blk:
            history[-1] = (blk, value)  # overwrite within a block
        else:
            history.append((blk, value))

    def at(self, addr: bytes, blk: int):
        """Value of ``addr`` as of block ``blk`` (``None`` before its first write)."""
        history = self.versions.get(addr, [])
        index = bisect.bisect_right(history, (blk, b"\xff" * 64)) - 1
        return history[index][1] if index >= 0 else None
