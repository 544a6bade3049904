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

    def wait_for_merges(self):
        with self.gate.exclusive():
            return []

    def close(self):
        with self.gate.exclusive():
            # BAD: wait_for_merges() re-acquires the gate -> self-deadlock.
            return self.wait_for_merges()

    def num_disk_levels(self):
        # BAD: a reader walks the live structure, not the published view.
        return len(self.levels)

    def publish(self):
        # BAD: the view is swapped outside the gate.
        self._view = ()
