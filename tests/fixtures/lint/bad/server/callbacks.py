"""Fixture: an fsync behind a plain ``def`` the event loop still reaches."""

import os


class Conn:
    def __init__(self, wal, loop):
        self.wal = wal
        self.loop = loop

    def data_received(self, data):
        os.fsync(3)  # BAD: a protocol callback runs on the loop

    def park(self):
        self.loop.call_soon(self._tick)

    def _tick(self):
        self.wal.sync()  # BAD: scheduled onto the loop by call_soon

    async def handle(self):
        self._flush()

    def _flush(self):
        self.wal.sync()  # BAD: called by name from an async def
