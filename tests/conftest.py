import json

import pytest

from otwb import checkers
from otwb.css_space import Oid
from otwb.ot_core import OpKind
from otwb.simnet import BROADCAST, Simulation, bit_positions, causal_masks, podc16_schedule, run

# The golden scenario's four operations by identity.
O1 = Oid(1, 1)  # ins x at 0, client 1
O2 = Oid(1, 2)  # del at 0, client 1
O3 = Oid(2, 1)  # ins a at 0, client 2
O4 = Oid(3, 1)  # ins b at 1, client 3

EMPTY_STATE = ()  # the empty list state


@pytest.fixture(scope="session")
def podc16_cj():
    return run("cjupiter", podc16_schedule())


@pytest.fixture(scope="session")
def podc16_j():
    return run("jupiter", podc16_schedule())


@pytest.fixture(scope="session")
def podc16_dj():
    return run("djupiter", podc16_schedule())


def text_of(value):
    return "".join(v[0] for v in value)


def seen_masks(n, pairs):
    """The seen bitsets of n events for visibility pairs (i, j): bit i of
    seen[j] is set when event j sees event i."""
    seen = [0] * n
    for i, j in pairs:
        seen[j] |= 1 << i
    return tuple(seen)


def mask(index, oids):
    """The oid mask of oids in an OidIndex, giving new oids their bits."""
    m = 0
    for o in oids:
        m |= index.bit(o)
    return m


# --------------------------------------------------------------------------
# Oracles over traces and schedules. The verify path needs none of them, so
# they live here, next to the tests that compare the library against them.


def applicable(o, state):
    """True iff o's position targets state without clamping.

    Convergence of a transformed pair is only guaranteed for operations
    generated against the state they apply to; clamped positions fall
    outside that contract.
    """
    if o.kind is OpKind.INS:
        return o.position <= len(state)
    if o.kind is OpKind.DEL:
        return o.position < len(state)
    return True


def vc_less(a, b):
    """The literal vector-clock order: a <= b componentwise, and a != b."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def causal_pairs(events):
    """(a.index, b.index) for every two events with a.vclock < b.vclock:
    causal_masks spelled out as pairs."""
    index = [e.index for e in events]
    return {(index[a], index[b]) for b, m in enumerate(causal_masks(events)) for a in bit_positions(m)}


def happens_before(trace):
    """The causally-before relation on trace events, as index pairs.

    Every event increments its replica's own vector-clock component, so
    e1 causally precedes e2 exactly when vclock(e1) < vclock(e2).
    """
    return frozenset(causal_pairs(trace.events))


def validate_schedule(schedule, protocol):
    """Raise ScheduleError unless every step of the schedule can run under
    the protocol: known ids, well-formed ops, no delivery from an empty
    channel."""
    sim = Simulation(protocol, schedule.n_clients, schedule.priority_rule)
    for i, step in enumerate(schedule.steps):
        sim.step(step, i)


def oracle_trace_to_json(trace):
    """The trace JSON written the plain way: one dict per event, built in
    field order, and the encoder sorts every object's keys."""

    def name(rid):
        return "broadcast" if rid == BROADCAST else "server" if rid == 0 else f"c{rid}"

    events = []
    for e in trace.events:
        doc = {"i": e.index, "replica": e.replica, "kind": e.kind, "vc": e.vclock}
        if e.op is not None:
            op = {"kind": e.op.kind}
            if e.op.oid is not None:
                op["oid"] = e.op.oid
            if e.op.element is not None:
                op["element"] = e.op.element
            if e.op.pos is not None:
                op["pos"] = e.op.pos
            doc["op"] = op
        if e.value is not None:
            doc["value"] = e.value
            doc["text"] = "".join(x[0] for x in e.value)
        if e.msg_id is not None:
            doc["msg"] = e.msg_id
        if e.src is not None:
            doc["src"] = name(e.src)
        if e.dst is not None:
            doc["dst"] = name(e.dst)
        if e.ot_seq is not None:
            doc["ot_seq"] = e.ot_seq
        events.append(doc)
    doc = {
        "format": 1,
        "protocol": trace.protocol,
        "n_clients": trace.n_clients,
        "priority_rule": trace.priority_rule,
        "schedule_sha256": trace.schedule_sha256,
        "prng": list(trace.prng) if trace.prng else None,
        "events": events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def literal_condition_2(A):
    """The weak spec's condition 2 scanned pair by pair on the list order:
    the witness of the first failure, or None."""
    pairs = checkers.build_list_order(A).pairs
    for e, w in checkers._distinct_values(A):
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[i] == w[j]:
                    return {"condition": "2", "event": e.index, "duplicate": str(w[i])}
                if (w[j], w[i]) in pairs:
                    other = next((
                        f.index for f in A.H
                        if w[i] in f.value and w[j] in f.value and f.value.index(w[j]) < f.value.index(w[i])
                    ), None)
                    return {
                        "condition": "2",
                        "events": [e.index, other],
                        "elements": ["%s@%s:%s" % w[i], "%s@%s:%s" % w[j]],
                        "list": text_of(w),
                    }
    return None


def literal_cycle(A):
    """The shortest cycle of the list order built pair by pair, or None."""
    return checkers._shortest_cycle(checkers.build_list_order(A).pairs)
