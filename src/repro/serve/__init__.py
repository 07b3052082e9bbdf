"""The online policy decision service (PR 5).

Active Enforcement as a long-running server: NDJSON frames over TCP, an
HTTP/1.1 shim for probes and scrapers, copy-on-write hot reload of
policies and consent, an interned decision cache, bounded admission with
explicit overload shedding, and drain-then-stop shutdown with a flushed
audit trail.  See DESIGN.md §11.
"""

from repro.serve.cache import DecisionCache
from repro.serve.client import AsyncPdpClient, PdpClient, RetryPolicy
from repro.serve.engine import (
    EngineSnapshot,
    PdpEngine,
    SnapshotManager,
    build_demo_engine,
)
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.server import PdpServer, ServerConfig, ServerThread

__all__ = [
    "AsyncPdpClient",
    "DecisionCache",
    "EngineSnapshot",
    "LoadReport",
    "PdpClient",
    "PdpEngine",
    "PdpServer",
    "RetryPolicy",
    "ServerConfig",
    "ServerThread",
    "SnapshotManager",
    "build_demo_engine",
    "run_load",
]
