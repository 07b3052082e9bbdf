"""Continuous online policy refinement: the paper's loop, live.

This package closes the loop the offline experiments only simulate: a
daemon that tails the durable audit store incrementally behind a
persisted watermark, mines candidate rules on a cadence or when the
policy's coverage of the trail it has folded drops (both read one
:class:`~repro.parallel.refine.TrailAggregate` state), routes them
through a pluggable review gate
(automatic thresholds or a human queue driven by the
``repro refine-daemon`` CLI), and hot-swaps accepted rules into the
serving snapshot without dropping in-flight requests.
"""

from repro.refine_daemon.daemon import (
    DaemonConfig,
    EnginePolicyTarget,
    PollReport,
    PolicyTarget,
    RefineDaemon,
    StorePolicyTarget,
)
from repro.refine_daemon.gate import (
    VERDICTS,
    AutoAcceptGate,
    ExplanationGate,
    QueueForReviewGate,
    ReviewGate,
    StrengthIndex,
)
from repro.refine_daemon.runner import DaemonThread
from repro.refine_daemon.state import (
    STATE_NAME,
    Candidate,
    DaemonState,
    load_state,
    save_state,
    state_path,
)

__all__ = [
    "AutoAcceptGate",
    "Candidate",
    "DaemonConfig",
    "DaemonState",
    "DaemonThread",
    "EnginePolicyTarget",
    "ExplanationGate",
    "PolicyTarget",
    "PollReport",
    "QueueForReviewGate",
    "RefineDaemon",
    "ReviewGate",
    "STATE_NAME",
    "StrengthIndex",
    "StorePolicyTarget",
    "VERDICTS",
    "load_state",
    "save_state",
    "state_path",
]
