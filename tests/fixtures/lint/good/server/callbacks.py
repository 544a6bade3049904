"""Fixture: plain ``def``s around an fsync that the loop never runs
unbudgeted."""

import asyncio


class Syncer:
    def __init__(self, wal, loop):
        self.wal = wal
        self.loop = loop
        self.backlog = []

    def data_received(self, data):
        self.backlog.append(data)  # a protocol callback that only buffers
        self.loop.call_soon(self._tick)

    def _tick(self):
        # The one sanctioned fsync on the loop: suppressed with its reason.
        self.wal.sync()  # repro-lint: disable=async-blocking-call; fixture: budgeted, costs less than the hop

    def _thunk(self):
        return self.wal.sync()  # only ever handed to the executor

    async def handle(self):
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._thunk)
