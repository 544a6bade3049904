"""Fixture: the sanctioned executor-hop shapes for blocking work."""

import asyncio


class Handler:
    def __init__(self, engine, wal):
        self.engine = engine
        self.wal = wal

    async def handle(self):
        loop = asyncio.get_running_loop()
        # Bound-method reference handed to the executor: not a call.
        value = await loop.run_in_executor(None, self.engine.get, b"k")
        await loop.run_in_executor(None, self.wal.sync)

        def commit():
            # Nested sync def: runs on the executor, may block freely.
            self.engine.begin_block(1)
            return self.engine.commit_block()

        await loop.run_in_executor(None, commit)
        await asyncio.sleep(0)  # asyncio.sleep is loop-friendly
        # The non-blocking read: answers or WOULD_BLOCK, never waits.
        return self.engine.get(b"k", wait=False) or value

    async def shutdown(self):
        self.wal.sync()  # repro-lint: disable=async-blocking-call; fixture: suppression honored
