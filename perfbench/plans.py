"""Which layer entry points the traced runs wrap, by workload.

Each entry is ``(owner, attribute, span name, kind)`` for
:func:`spans.install`.  Span names are ``<layer>.<operation>`` with the
layer named after the module that owns the function.  Module-level
functions are wrapped in the namespace of the module that *calls* them
(``from x import f`` binds a private reference), which is why, say,
``compute_coverage`` appears once per caller.
"""

from __future__ import annotations


def serve_plan() -> list:
    """The decide path: codec, engine, cache, permit check, audit, store.

    ``os.fsync`` is wrapped process-wide: in the system only the store
    calls it (segment flushes, and the index, manifest and daemon-state
    files it writes atomically), so every fsync is a store span."""
    import os

    from repro.hdb.auditing import ComplianceAuditor
    from repro.hdb.enforcement import ActiveEnforcer
    from repro.serve import protocol
    from repro.serve.cache import DecisionCache
    from repro.serve.engine import PdpEngine, SnapshotManager
    from repro.store.durable import DurableAuditLog

    return [
        (protocol, "decode_frame", "serve.protocol.decode", "call"),
        (protocol, "parse_request", "serve.protocol.parse", "call"),
        (protocol, "encode_frame", "serve.protocol.encode", "call"),
        (PdpEngine, "decide", "serve.engine.decide", "call"),
        (SnapshotManager, "mutate", "serve.engine.swap", "call"),
        (DecisionCache, "get", "serve.cache.get", "call"),
        (DecisionCache, "put", "serve.cache.put", "call"),
        (DecisionCache, "invalidate", "serve.cache.invalidate", "call"),
        (ActiveEnforcer, "policy_permits", "hdb.enforcement.permits", "call"),
        (ComplianceAuditor, "record_access", "hdb.auditing.record", "call"),
        (DurableAuditLog, "append", "store.append", "call"),
        (DurableAuditLog, "seal_active", "store.seal", "call"),
        (os, "fsync", "store.fsync", "call"),
    ]


def daemon_plan() -> list:
    """The refinement daemon's poll: tail, mine, gate, persist, adopt.

    The daemon exposes its tail and mine stages only as the methods
    ``_consume`` and ``_mine``; they are wrapped as the stage boundaries
    its own ``repro_refine_daemon_*`` spans already mark.
    """
    from repro.refine_daemon import daemon
    from repro.refine_daemon.daemon import EnginePolicyTarget, RefineDaemon
    from repro.refine_daemon.gate import AutoAcceptGate

    return [
        (RefineDaemon, "poll", "refine_daemon.poll", "call"),
        (RefineDaemon, "_consume", "refine_daemon.consume", "call"),
        (RefineDaemon, "_mine", "refine_daemon.mine", "call"),
        (daemon, "load_state", "refine_daemon.state_load", "call"),
        (daemon, "save_state", "refine_daemon.state_save", "call"),
        (daemon, "shards_past_watermark", "parallel.shard", "call"),
        (daemon, "map_shard", "parallel.map_shard", "call"),
        (daemon, "prune_patterns", "refinement.prune", "call"),
        (daemon, "compute_coverage", "coverage.set", "call"),
        (AutoAcceptGate, "decide", "refine_daemon.gate", "call"),
        (EnginePolicyTarget, "adopt", "refine_daemon.adopt", "call"),
    ]


def refine_plan() -> list:
    """Serial ``refine()`` stages and the sharded path's shard/map/merge."""
    from repro.parallel import refine as parallel
    from repro.refinement import engine
    from repro.sqlmini.database import Database
    from repro.store import store
    from repro.store.durable import AuditReadOps, StreamedAuditView

    return [
        (AuditReadOps, "to_policy", "refinement.to_policy", "call"),
        (AuditReadOps, "to_table", "sqlmini.load", "call"),
        (StreamedAuditView, "__iter__", "refinement.filter_view", "iter"),
        (store, "iter_segment", "store.scan", "iter"),
        (engine, "compute_coverage", "coverage.set", "call"),
        (engine, "compute_entry_coverage", "coverage.entry", "call"),
        (engine, "filter_practice", "refinement.filter", "call"),
        (engine, "extract_patterns", "refinement.extract", "call"),
        (engine, "prune_patterns", "refinement.prune", "call"),
        (Database, "query", "sqlmini.execute", "call"),
        (parallel, "parallel_refine", "parallel.merge", "call"),
        (parallel, "shards_of", "parallel.shard", "call"),
        (parallel, "run_sharded", "parallel.map", "call"),
        (parallel, "compute_coverage", "coverage.set", "call"),
        (parallel, "prune_patterns", "refinement.prune", "call"),
    ]
