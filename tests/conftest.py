import dataclasses
import json
import random

import pytest

from otwb import checkers
from otwb.css_space import Mark, Oid, Ord, ProtocolError, ProtoOp, StepHistory, compare_ops
from otwb.ot_core import ListOp, ListState, OpKind, apply, transform
from otwb.protocols import SERVER_ID
from otwb.simnet import (
    BROADCAST,
    GLYPH_POOL,
    PRNG_NAME,
    DeliverStep,
    GenerateStep,
    OpSpec,
    Schedule,
    ScheduleError,
    Simulation,
    bit_positions,
    causal_masks,
    podc16_schedule,
    run,
)

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
# Oracles over traces, schedules and spaces. The verify path needs none of
# them, so they live here, next to the tests that compare the library
# against them.


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


def check_cp1(o1, o2, state: ListState) -> bool:
    """True iff applying o1 then o2' equals applying o2 then o1' on state."""
    left = apply(apply(state, o1), transform(o2, o1))
    right = apply(apply(state, o2), transform(o1, o2))
    return left == right


def empty_schedule(n_clients=1):
    return Schedule(n_clients, ())


def swapped_receives(real_run):
    """simnet.run, but with the first two receives of the lowest client
    that receives twice from the server swapped in the trace, which breaks
    FIFO delivery on that channel."""

    def run(protocol, schedule, record_snapshots=True):
        res = real_run(protocol, schedule, record_snapshots)
        events = list(res.trace.events)
        got = {}
        for i, e in enumerate(events):
            if e.kind == "receive" and e.src == 0:
                got.setdefault(e.dst, []).append(i)
        twice = [got[c][:2] for c in sorted(got) if len(got[c]) > 1]
        if twice:
            a, b = twice[0]
            events[a], events[b] = events[b]._replace(index=a), events[a]._replace(index=b)
        return dataclasses.replace(res, trace=dataclasses.replace(res.trace, events=tuple(events)))

    return run


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
    sim = Simulation(protocol, schedule.n_clients)
    for i, step in enumerate(schedule.steps):
        sim.step(step, i)


def enabled_deliveries(sim):
    """The deliveries a Simulation can run now, read off its channels: per
    client in id order, its up-channel then its down-channel."""
    acts = []
    for c in sim.clients:
        if sim.up[c]:
            acts.append(DeliverStep(SERVER_ID, c))
        if sim.down[c]:
            acts.append(DeliverStep(c, SERVER_ID))
    return acts


def oracle_random_schedule(n_clients, n_updates, seed, read_probability=0.15):
    """random_schedule drawn over a replay of Simulation("jupiter"), whose
    clients' 2D spaces track the lists that the library's BufferJupiter
    tracks over 1D buffers."""
    if n_updates < 0:
        raise ScheduleError("updates cannot be negative")
    sim = Simulation("jupiter", n_clients)
    rng = random.Random(seed)
    steps = []
    generated = 0
    glyphs = 0
    while True:
        actions = enabled_deliveries(sim)
        if generated < n_updates:
            actions += ["generate", "generate"]
        if not actions:
            break
        if rng.random() < read_probability:
            steps.append(GenerateStep(rng.randint(1, n_clients), OpSpec("read")))
        act = rng.choice(actions)
        if act == "generate":
            cid = rng.randint(1, n_clients)
            length = len(sim.clients[cid].state)
            if length > 0 and rng.random() < 0.4:
                spec = OpSpec("del", pos=rng.randint(0, length - 1))
            else:
                spec = OpSpec("ins", glyph=GLYPH_POOL[glyphs % len(GLYPH_POOL)], pos=rng.randint(0, length))
                glyphs += 1
            act = GenerateStep(cid, spec)
            generated += 1
        steps.append(act)
        sim.step(act, len(steps) - 1)
    for c in range(1, n_clients + 1):
        steps.append(GenerateStep(c, OpSpec("read")))
    return Schedule(n_clients, tuple(steps), prng=(PRNG_NAME, seed))


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
        "priority_rule": "smaller_wins",
        "schedule_sha256": trace.schedule_sha256,
        "prng": list(trace.prng) if trace.prng else None,
        "events": events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def oracle_link(space, u, v, op):
    """Insert op's edge to v at any vertex u where compare_ops puts it:
    every check on every call, and compare_ops run both ways against every
    existing edge. A replay adds edges only where xform and append do;
    tests use this to hand-build spaces, and the oracles below use it."""
    edges = space.vertices.get(u)
    if edges is None or v not in space.vertices:
        raise ProtocolError(
            f"link: {space.index.fmt_oids(u if edges is None else v)} "
            f"is not a vertex of replica {space.rid}"
        )
    if op.ctx != u:
        raise ProtocolError(f"link: ctx of {op.oid.token()} does not match source vertex")
    if v != u | op.bit:
        raise ProtocolError(f"link: target oids do not extend source by {op.oid.token()}")
    if any(e.bit == op.bit for e in edges):
        return
    edges.insert(literal_place(edges, op, space.rid), op)
    space.n_edges += 1


def literal_place(edges, op, rid):
    """Where compare_ops puts op among edges, none of op's bit: before
    the first edge it orders LEFT of, after checking both orders of every
    pair. Raises ProtocolError as compare_ops or the order check does."""
    at = None
    for i, e in enumerate(edges):
        order = compare_ops(op, e, rid)
        if compare_ops(e, op, rid) is order or (order is Ord.RIGHT and at is not None):
            raise ProtocolError(
                f"edge order at replica {rid}: {op.oid.token()} and "
                f"{e.oid.token()} break a strict total order"
            )
        if order is Ord.LEFT and at is None:
            at = i
    return len(edges) if at is None else at


def oracle_walk_edge(space, u):
    """The edge out of u that an xform walk follows: the first."""
    edges = space.vertices[u]
    if not edges:
        raise ProtocolError(f"xform: final vertex {space.index.fmt_oids(u)} has no first edge")
    return edges[0]


def oracle_xform(space, op):
    """CssSpace.xform as one method call per step of each square: the
    walk edge, two validating transforms and ProtoOps, a new vertex and
    two oracle_links; it marks the step and returns what xform does."""
    u = space.locate(op)
    v = space._new_vertex(u | op.bit)
    ot_seq = []
    while u != space.cur:
        op2 = oracle_walk_edge(space, u)
        op_t = ProtoOp(ListOp(*transform(op.o, op2.o)), op.oid, op.bit, op.ctx | op2.bit, op.sctx)
        op2_t = ProtoOp(ListOp(*transform(op2.o, op.o)), op2.oid, op2.bit, op2.ctx | op.bit, op2.sctx)
        v2 = space._new_vertex(v | op2.bit)
        oracle_link(space, v, v2, op2_t)
        oracle_link(space, u, v, op)
        ot_seq.append(op2.oid)
        u, v, op = u | op2.bit, v2, op_t
    oracle_link(space, u, v, op)
    space.cur = v
    space.marks.append(Mark(v, len(space.vertices), space.n_edges))
    return op, tuple(ot_seq)


def oracle_append(space, op):
    """CssSpace.append as an oracle_link from cur, and the step's mark."""
    if op.ctx != space.cur:
        raise ProtocolError(f"appended op {op.oid.token()} not generated at cur")
    v = space._new_vertex(space.cur | op.bit)
    oracle_link(space, space.cur, v, op)
    space.cur = v
    space.marks.append(Mark(v, len(space.vertices), space.n_edges))


def literal_condition_2(A):
    """The weak spec's condition 2 scanned pair by pair: the first list
    that repeats an element, else the first pair whose reverse is in the
    list order; the witness of the failure, or None."""
    pairs = checkers.build_list_order(A).pairs
    for e, w in checkers._distinct_values(A):
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[i] == w[j]:
                    return {"condition": "2", "event": e.index, "duplicate": str(w[i])}
    for e, w in checkers._distinct_values(A):
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
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


def shortest_cycles(pairs):
    """The length k of the shortest cycles of the relation, and the sorted
    elements that lie on one, found by walks: k is the fewest steps in
    which some element walks back to itself, and a shortest closed walk
    is a cycle. (None, []) when the relation is acyclic."""
    elems = sorted({x for p in pairs for x in p})
    succ = {x: {b for a, b in pairs if a == x} for x in elems}
    ends = {x: {x} for x in elems}  # ends[x]: where the walks of k steps from x end
    for k in range(1, len(elems) + 1):
        ends = {x: {c for b in ends[x] for c in succ[b]} for x in elems}
        on = [x for x in elems if x in ends[x]]
        if on:
            return k, on
    return None, []


# --------------------------------------------------------------------------
# Step histories: the oracle that steps a Simulation, and histories rewritten
# on (final snapshot, marks).


def plain(vertices):
    """A vertex dict as ordered (mask, (tuple(op), ...)) items, sctx
    included, which ProtoOp equality leaves out."""
    return [(m, tuple(map(tuple, edges))) for m, edges in vertices.items()]


def held_spaces(sim):
    """Every CssSpace a Simulation holds: cjupiter's server space, the
    clients' spaces, then the jupiter server's space for each client."""
    hub = sim.hub
    own = [hub.space] if hasattr(hub, "space") else []
    return [*own, *(c.space for c in sim.clients.values()), *getattr(hub, "spaces", {}).values()]


def step_copying(sim, schedule, spaces):
    """Step sim through the schedule, and return per space (cur, plain
    vertices) copied from scratch before the first step and after each step
    that changed the space. Simulation.step returns nothing."""
    copies = [[(s.cur, plain(s.vertices))] for s in spaces]
    for i, step in enumerate(schedule.steps):
        assert sim.step(step, i) is None
        for s, kept in zip(spaces, copies):
            now = (s.cur, plain(s.vertices))
            if now != kept[-1]:
                kept.append(now)
    return copies


def stepped_copies(protocol, schedule):
    """step_copying's copies per replica whose history run records."""
    sim = Simulation(protocol, schedule.n_clients)
    spaces = {0: sim.hub.space} if protocol == "cjupiter" else {}
    spaces.update((c, cl.space) for c, cl in sim.clients.items())
    return dict(zip(spaces, step_copying(sim, schedule, list(spaces.values()))))


def history_with(history, vertices=None, births=None, curs=None):
    """A StepHistory over history's final snapshot with its vertex dict
    replaced by `vertices` (in birth order), whose marks are recounted from
    each vertex's birth step (`births`, else the history's own) and keep
    each step's cur unless `curs` maps the step to another. An edge whose
    target is not a vertex is shown from its source's birth on."""
    vertices = history.final.vertices if vertices is None else vertices
    births = {m: (births or history.births)[m] for m in vertices}
    marks = []
    for k, (cur, _, _) in enumerate(history.marks):
        shown = [e for s, es in vertices.items() if births[s] <= k for e in es if births.get(s | e.bit, 0) <= k]
        marks.append(Mark((curs or {}).get(k, cur), sum(b <= k for b in births.values()), len(shown)))
    return StepHistory(dataclasses.replace(history.final, vertices=vertices), marks)
