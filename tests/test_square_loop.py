"""The one-pass square loop of CssSpace.xform, CssSpace.append and the
placement helper against the method-call oracles in conftest: the same
snapshots at every step, sctx included, the same traces, and the same
edge order or the same ProtocolError."""

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from conftest import literal_place, oracle_append, oracle_xform, plain
from otwb.css_space import CssSpace, Oid, OidIndex, ProtoOp, ProtocolError, compare_ops
from otwb.ot_core import ListOp
from otwb.simnet import PROTOCOLS, podc16_schedule, random_schedule, run, trace_to_json

FAST = settings(derandomize=True, database=None, deadline=None, max_examples=300)

STEP_FIELDS = ("css_server_steps", "css_client_steps", "cscw_client_steps")
FINAL_FIELDS = ("css_final", "cscw_client_final", "cscw_server_final")


def schedules():
    yield "podc16", podc16_schedule()
    for s in range(50):
        yield f"corpus seed {s}", random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s)
    for s in range(20):
        yield f"wide seed {s}", random_schedule(4, 16, seed=s)
        yield f"observe seed {s}", random_schedule(3, 12, seed=s, read_probability=1.0)


def snapshot(snap):
    """A snapshot as plain tuples: rid, cur, and its vertices as plain()
    writes them, sctx included."""
    return snap.rid, snap.cur, plain(snap.vertices)


def result(res):
    out = {name: {rid: snapshot(s) for rid, s in getattr(res, name).items()} for name in FINAL_FIELDS}
    out["css_server_steps"] = list(map(snapshot, res.css_server_steps))
    for name in STEP_FIELDS[1:]:
        out[name] = {rid: list(map(snapshot, s)) for rid, s in getattr(res, name).items()}
    return out


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_snapshots_and_traces_equal_the_oracle(protocol, monkeypatch):
    runs = [(name, schedule, run(protocol, schedule)) for name, schedule in schedules()]
    monkeypatch.setattr(CssSpace, "xform", oracle_xform)
    monkeypatch.setattr(CssSpace, "append", oracle_append)
    for name, schedule, got in runs:
        want = run(protocol, schedule)
        assert result(got) == result(want), name
        assert trace_to_json(got.trace) == trace_to_json(want.trace), name


# --------------------------------------------------------------------------
# The placement helper against the literal two-way compare_ops loop.

BITS = 6


@st.composite
def placements(draw):
    """(rid, op, existing edges) at the root of an n-ary space. Oids are
    (cid, k) for bit k, with cids that make either op local or remote at
    rid; sctx masks are free, so both bit tests, one or neither fire. An
    existing edge may carry op's oid under another bit, as a hand-made
    space can."""
    rid = draw(st.integers(0, 3))
    cids = draw(st.lists(st.integers(1, 3), min_size=BITS, max_size=BITS))
    sctxs = draw(st.lists(st.integers(0, (1 << BITS) - 1), min_size=BITS, max_size=BITS))
    ops = [
        ProtoOp(ListOp.nop(), Oid(cids[k], k + 1), 1 << k, 0, sctxs[k] & ~(1 << k))
        for k in range(BITS)
    ]
    chosen = draw(st.permutations(range(BITS)))
    n = draw(st.integers(0, BITS - 1))
    op = ops[chosen[0]]
    edges = [ops[k] for k in chosen[1 : n + 1]]
    if draw(st.booleans()) and edges:
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = edges[i]._replace(oid=op.oid)
    return rid, op, edges


def outcome(place, rid, op, edges):
    try:
        return place(rid, op, edges)
    except ProtocolError as exc:
        return str(exc)


def by_helper(rid, op, edges):
    space = CssSpace(rid, OidIndex())
    edges = list(edges)
    space._place(0, edges, op)
    return edges.index(op)


def by_literal_loop(rid, op, edges):
    return literal_place(edges, op, rid)


def bit_tests(op, e):
    return bool(op.bit & e.sctx), bool(e.bit & op.sctx)


@FAST
@given(placements())
def test_placement_equals_the_literal_loop(case):
    rid, op, edges = case
    assert outcome(by_helper, rid, op, edges) == outcome(by_literal_loop, rid, op, edges)


@FAST
@given(placements())
def test_compare_ops_is_antisymmetric(case):
    # Swapping the arguments swaps the two bit tests and the local side:
    # both calls raise, or they return opposite orders.
    rid, op, edges = case

    def order(a, b):
        try:
            return compare_ops(a, b, rid)
        except ProtocolError:
            return None

    for e in edges:
        there, back = order(op, e), order(e, op)
        if there is None or back is None:
            assert there is back
        else:
            assert there == -back


@pytest.mark.parametrize(
    "fire",
    [(True, True), (False, False), (True, False), (False, True)],
    ids=["both", "neither", "left only", "right only"],
)
def test_strategy_reaches_each_pair_of_bit_tests(fire):
    # Every placement compares op with the first edge, whatever comes after.
    find(
        placements(),
        lambda c: bool(c[2]) and bit_tests(c[1], c[2][0]) == fire,
        settings=settings(derandomize=True, database=None, phases=[Phase.generate]),
    )
