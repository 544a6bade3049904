"""Fixture: every gate-discipline violation class, one method each."""

from repro.common.gate import CommitGate


class Engine:
    def __init__(self):
        self.gate = CommitGate()
        self.current_blk = -1
        self.levels = []

    def begin_block(self, height):
        # BAD: public mutator, tracked attribute, no gate.
        self.current_blk = height

    def commit_block(self):
        with self.gate.exclusive():
            # BAD: nested acquisition of the non-reentrant gate.
            with self.gate.exclusive():
                self.levels = []

    def root_digest(self):
        with self.gate.shared():
            return b""

    def prov_query(self):
        with self.gate.shared():
            # BAD: root_digest() re-acquires the gate -> self-deadlock.
            return self.root_digest()

    def num_disk_levels(self):
        # BAD: a reader walks the live structure, not the published view.
        return len(self.levels)

    def publish(self):
        # BAD: the view is swapped outside the exclusive gate.
        self._view = ()
