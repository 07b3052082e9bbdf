"""Run a :class:`~repro.refine_daemon.daemon.RefineDaemon` in the background.

:class:`DaemonThread` is the thin production wrapper around the
synchronous :meth:`~repro.refine_daemon.daemon.RefineDaemon.poll` cycle:
a daemon thread that polls on an interval, woken early whenever the
audit store seals a segment (via the store's seal-listener hook) so
fresh data is tailed promptly instead of waiting out the timer.

Errors from one poll are contained: a :class:`~repro.errors.PrimaError`
is logged and counted, and the loop keeps going — a transient store
hiccup must not kill the refinement loop of a long-running server.
Anything else propagates (and stops the thread): unknown failure modes
should be loud.
"""

from __future__ import annotations

import logging
import threading

from repro.errors import PrimaError
from repro.obs.runtime import get_registry
from repro.refine_daemon.daemon import PollReport, RefineDaemon

logger = logging.getLogger("repro.refine_daemon")


class DaemonThread:
    """Poll a :class:`RefineDaemon` on an interval, woken by seals.

    Usable as a context manager::

        with DaemonThread(daemon, interval=5.0) as runner:
            ...serve traffic...

    ``listen_to`` (default: the daemon's own store) registers a seal
    listener that wakes the loop immediately when a segment seals.
    """

    def __init__(
        self,
        daemon: RefineDaemon,
        interval: float = 5.0,
        listen_to=None,
    ) -> None:
        self.daemon = daemon
        self.interval = interval
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.polls = 0
        self.errors = 0
        self.last_report: PollReport | None = None
        store = listen_to if listen_to is not None else daemon._store
        if hasattr(store, "add_seal_listener"):
            # the store keeps its seal listeners for its whole life, so
            # the listener holds only the wake event: a stopped runner
            # and its daemon (with the daemon's append feed) stay
            # collectable
            wake = self._wake
            store.add_seal_listener(lambda meta: wake.set())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DaemonThread":
        """Start the background loop (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"{self.daemon.name}-thread", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Signal the loop to exit and join it."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def wake(self) -> None:
        """Ask the loop to poll now instead of waiting out the interval."""
        self._wake.set()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.last_report = self.daemon.poll()
                self.polls += 1
            except PrimaError:
                self.errors += 1
                get_registry().counter("repro_refine_daemon_errors_total").inc()
                logger.exception("refinement daemon poll failed; continuing")
            self._wake.wait(self.interval)
            self._wake.clear()
