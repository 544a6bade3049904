"""A frame reader for tests that play a peer over raw asyncio streams.

Everything in ``repro`` reads frames through ``FrameProtocol``
connections; a test that writes frames by hand (a fake server, a
hostile or half-closing client) reads the answers one body at a time
with :func:`read_frame`.
"""

import asyncio
from typing import Optional


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One frame body, or ``None`` on EOF at a frame boundary."""
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return await reader.readexactly(int.from_bytes(header, "big"))
