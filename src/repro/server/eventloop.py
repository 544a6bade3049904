"""Event-loop plumbing: the optional uvloop policy and the
loop-on-a-thread helper behind ``ServerThread`` / ``NodeThread``.

uvloop is not a dependency — when the package is importable its policy
is installed (new event loops become uvloop loops); otherwise the
stdlib selector loop serves.  Callers get back the name of the loop
that will run so it can be logged and recorded in the smoke-bench
service section, keeping benchmark rows comparable across machines
with and without uvloop installed.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Tuple


def install_event_loop_policy() -> str:
    """Install uvloop's policy when available; return the loop name."""
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        return "asyncio"
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return "uvloop"


def event_loop_name() -> str:
    """The loop flavor new event loops will use, without installing."""
    try:
        import uvloop  # noqa: F401  # type: ignore[import-not-found]
    except ImportError:
        return "asyncio"
    policy = asyncio.get_event_loop_policy()
    return "uvloop" if type(policy).__module__.startswith("uvloop") else "asyncio"


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
