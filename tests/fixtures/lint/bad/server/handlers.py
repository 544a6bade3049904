"""Fixture: blocking calls on the event loop, one per flagged shape."""

import os
import time

from repro.diskio import durable


class Handler:
    def __init__(self, engine, wal, gate):
        self.engine = engine
        self.wal = wal
        self.gate = gate

    async def handle(self):
        time.sleep(0.01)  # BAD: sleeps the whole loop
        os.fsync(3)  # BAD: sync IO
        with self.gate.exclusive():  # BAD: gate on the loop
            pass
        self.engine.get(b"k")  # BAD: takes the CommitGate
        self.wal.sync()  # BAD: fsync
        durable.fsync("/")  # BAD: a directory fsync
