"""otwb: a verification workbench for replicated-list OT protocols.

Replays the client/server protocols (original-forwarding and
transformed-forwarding) and their broadcast-based peer variant over a
deterministic simulated network, then machine-checks convergence, the
weak and strong list specifications, and the structural properties of
the recorded state spaces.
"""

from .checkers import (
    AbstractExecution,
    ListOrder,
    Verdict,
    build_abstract_execution,
    build_list_order,
    check_convergence,
    check_equivalence,
    check_pairwise_compatibility,
    check_strong_spec,
    check_structural,
    check_weak_spec,
    verify,
)
from .css_space import CssSpace, Oid, OidIndex, ProtoOp, compare_ops
from .ot_core import (
    Element,
    ListOp,
    OpKind,
    ProtocolError,
    apply,
    to_text,
    transform,
)
from .protocols import CJClient, CJServer, DJReplica, JServer, Sequencer
from .simnet import (
    Schedule,
    ScheduleError,
    Simulation,
    Trace,
    podc16_schedule,
    random_schedule,
    run,
    schedule_from_json,
    schedule_to_json,
    trace_to_json,
)

__all__ = [
    "AbstractExecution",
    "CJClient",
    "CJServer",
    "CssSpace",
    "DJReplica",
    "Element",
    "JServer",
    "ListOp",
    "ListOrder",
    "Oid",
    "OidIndex",
    "OpKind",
    "ProtoOp",
    "ProtocolError",
    "Schedule",
    "ScheduleError",
    "Sequencer",
    "Simulation",
    "Trace",
    "Verdict",
    "apply",
    "build_abstract_execution",
    "build_list_order",
    "check_convergence",
    "check_equivalence",
    "check_pairwise_compatibility",
    "check_strong_spec",
    "check_structural",
    "check_weak_spec",
    "compare_ops",
    "podc16_schedule",
    "random_schedule",
    "run",
    "schedule_from_json",
    "schedule_to_json",
    "to_text",
    "trace_to_json",
    "transform",
    "verify",
]
