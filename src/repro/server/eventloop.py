"""Event-loop plumbing: the loop-on-a-thread helper behind
``ServerThread`` / ``NodeThread``.

Every loop in the tree is the stdlib asyncio loop; the servers' readiness
lines and fig 17's ``event_loop`` column say ``asyncio``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Tuple


class LoopThread:
    """An asyncio service on its own event-loop thread.

    ``service`` is anything with ``async start() -> (host, port)`` and
    ``async stop()``.  :meth:`start` blocks until the service is bound
    (re-raising a bind error in the caller's thread) and returns the
    address; all interaction afterwards goes through real sockets, never
    cross-thread calls.  ``start`` / ``stop`` are idempotent.
    """

    def __init__(self, service, name: str) -> None:
        self._service = service
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        """Spawn the loop thread; returns the bound ``(host, port)``."""
        if self._thread is None or not self._thread.is_alive():
            self._started.clear()
            self._startup_error = None
            self._thread = threading.Thread(
                target=self._run, name=self._name, daemon=True
            )
            self._thread.start()
            self._started.wait()
            if self._startup_error is not None:
                raise self._startup_error
        return self._address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._address = loop.run_until_complete(self._service.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()  # until stop() calls loop.stop()
            loop.run_until_complete(self._service.stop())
        finally:
            loop.close()

    def stop(self) -> None:
        """Stop the service and join the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
        thread.join()
        self._loop = None
        self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
