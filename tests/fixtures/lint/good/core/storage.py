"""Fixture: the same engine shapes, written to the gate contract."""

from repro.common.gate import CommitGate


class Engine:
    def __init__(self):
        self.gate = CommitGate()
        self.current_blk = -1
        self.levels = []
        self._view = ()

    def begin_block(self, height):
        with self.gate.exclusive():
            self.current_blk = height

    def commit_block(self):
        with self.gate.exclusive():
            self.levels = []
            # The mutator reads the live structure and publishes the view.
            self._view = tuple(self.levels)
            return self._root_digest()

    def num_disk_levels(self):
        # Readers pin the published view, never the live structure.
        return len(self._view)

    def root_digest(self):
        # Readers take no gate.
        return self._root_digest()

    def _root_digest(self):
        return b""

    def wait_for_merges(self):
        # A cold control-plane read of the live structure takes the gate.
        with self.gate.exclusive():
            return list(self.levels)
