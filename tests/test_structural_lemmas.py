"""The LCA and compatibility lemmas and the visibility bitsets: their fast
paths against literal oracles, and each lemma shown to fire on a
hand-broken space."""

import copy
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otwb import checkers
from otwb.checkers import (
    AbstractExecution,
    DoEvent,
    _check_disjoint_paths,
    _check_unique_lca,
    _shared_graphs,
    build_abstract_execution,
    check_convergence,
    check_pairwise_compatibility,
    check_structural,
    check_weak_spec,
)
from otwb.css_space import CssSnapshot, Oid, ProtocolError, ProtoOp, SnapEdge
from otwb.ot_core import Element, ListOp, priority_of
from otwb.simnet import OpRecord, causal_pairs, vc_less

FAST = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def oids(*ks):
    return frozenset(Oid(k, 1) for k in ks)


def ins(cid, pos=0):
    """Insert of client cid's first element, glyph a, b, c... by cid."""
    return ListOp.ins(Element("abcdef"[cid - 1], cid, 1), pos, priority_of(cid))


def snapshot(edges, ops=None, extra=()):
    """A CssSnapshot over oid sets from (src, target) pairs plus the
    vertices `extra`; `ops` maps a target to the ListOp on its in-edges
    (default: insert at 0)."""
    vertices = {k: [] for k in (frozenset(), *extra)}
    for src, dst in dict.fromkeys(edges):
        oid = min(dst - src)
        op = ProtoOp((ops or {}).get(dst, ins(oid.cid)), oid, src)
        vertices.setdefault(dst, [])
        vertices.setdefault(src, []).append(SnapEdge(op, dst))
    return CssSnapshot(0, max(vertices, key=len), {k: tuple(v) for k, v in vertices.items()})


def chain(*steps):
    """Edges along a path of oid sets given as tuples of ints."""
    sets = [oids(*s) for s in steps]
    return list(zip(sets, sets[1:]))


# The paths from the unique LCA {1} to {1,2,3} and to {1,2,4} both pick
# up oid 2.
DISJOINT_COUNTEREXAMPLE = chain((), (1,), (1, 3), (1, 2, 3)) + chain((1,), (1, 4), (1, 2, 4))


# --------------------------------------------------------------------------
# Literal oracles: true reachability, every pair, every common ancestor.


def _fmt(s):
    return [o.token() for o in sorted(s)]


def _oracle_lcas(snap):
    keys = sorted(snap.vertices, key=lambda s: (len(s), sorted(s)))
    parents = {k: set() for k in keys}
    for src, edges in snap.vertices.items():
        for e in edges:
            parents[e.target].add(src)

    def ancestors(v):
        seen, todo = {v}, [v]
        while todo:
            for p in parents[todo.pop()]:
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        return seen

    anc = {k: ancestors(k) for k in keys}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            common = anc[a] & anc[b]
            lowest = [c for c in common if not any(c in anc[d] for d in common - {c})]
            yield a, b, lowest


def oracle_unique_lca(snaps):
    for rid, snap in sorted(snaps.items()):
        for a, b, lowest in _oracle_lcas(snap):
            if len(lowest) != 1:
                return {"check": "unique_lca", "satisfied": False, "witness": {
                    "replica": rid, "vertices": [_fmt(a), _fmt(b)], "lca_count": len(lowest)}}
    return {"check": "unique_lca", "satisfied": True}


def oracle_disjoint_paths(snaps):
    for rid, snap in sorted(snaps.items()):
        for a, b, lowest in _oracle_lcas(snap):
            if len(lowest) != 1:
                continue
            base = lowest[0]
            overlap = (a - base) & (b - base)
            if overlap:
                return {"check": "disjoint_lca_paths", "satisfied": False, "witness": {
                    "replica": rid, "vertices": [_fmt(a), _fmt(b)], "lca": _fmt(base),
                    "overlap": _fmt(overlap)}}
    return {"check": "disjoint_lca_paths", "satisfied": True}


def oracle_compatibility(states):
    for i in range(len(states)):
        pos1 = {e: k for k, e in enumerate(states[i])}
        for j in range(i + 1, len(states)):
            pos2 = {e: k for k, e in enumerate(states[j])}
            common = [e for e in states[i] if e in pos2]
            for x in range(len(common)):
                for y in range(x + 1, len(common)):
                    a, b = common[x], common[y]
                    if (pos1[a] < pos1[b]) != (pos2[a] < pos2[b]):
                        return {"check": "pairwise_compatibility", "satisfied": False, "witness": {
                            "lists": ["".join(e[0] for e in states[i]), "".join(e[0] for e in states[j])],
                            "elements": [f"{a[0]}@{a[1]}:{a[2]}", f"{b[0]}@{b[1]}:{b[2]}"]}}
    return {"check": "pairwise_compatibility", "satisfied": True}


# --------------------------------------------------------------------------
# Random oid-set DAGs: vertices are subsets of six oids, every edge goes
# from a proper subset to a superset (single-oid steps or larger jumps).
# Half of them give every vertex an in-edge, so that not every space has
# an unreachable vertex, which fails unique_lca at once.

POOL = [Oid(c, 1) for c in range(1, 7)]


@st.composite
def oid_dags(draw):
    sets = draw(st.lists(st.frozensets(st.sampled_from(POOL), min_size=1, max_size=4),
                         min_size=1, max_size=9, unique=True))
    keys = [frozenset()] + sets
    pairs = [(u, v) for u in keys for v in keys if u < v]
    if draw(st.booleans()):
        pairs = [(u, v) for u, v in pairs if len(v - u) == 1]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    if draw(st.booleans()):
        chosen += [(draw(st.sampled_from([u for u in keys if u < v])), v) for v in sets]
    return snapshot(chosen, extra=sets)


class TestLcaFastPathsMatchOracle:
    @FAST
    @given(oid_dags(), st.one_of(st.none(), oid_dags()))
    @example(snapshot(DISJOINT_COUNTEREXAMPLE), None)
    def test_unique_lca_and_disjoint_paths(self, snap, other):
        snaps = {0: snap} if other is None else {0: snap, 2: other}
        graphs = _shared_graphs(snaps)
        assert _check_unique_lca(graphs).to_json_dict() == oracle_unique_lca(snaps)
        assert _check_disjoint_paths(graphs).to_json_dict() == oracle_disjoint_paths(snaps)


ELEMS = [(g, c, 1) for g, c in zip("abcde", range(1, 6))]


class TestCompatibilityMatchesOracle:
    @FAST
    @given(st.lists(st.lists(st.sampled_from(ELEMS), max_size=6).map(tuple), max_size=6))
    @example([(ELEMS[0], ELEMS[1], ELEMS[0]), (ELEMS[0], ELEMS[1])])
    @example([(ELEMS[0], ELEMS[1]), (ELEMS[1], ELEMS[2]), (ELEMS[2], ELEMS[0])])
    def test_same_verdict_as_pair_scan(self, states):
        assert check_pairwise_compatibility(states).to_json_dict() == oracle_compatibility(states)


# --------------------------------------------------------------------------
# Each lemma fires on a hand-broken space, through check_structural.


def structural_on(result, jresult, snap):
    broken = copy.copy(result)
    broken.css_final = {0: snap}
    return {v.check: v for v in check_structural(broken, jresult)}


class TestLemmasFire:
    def test_unique_lca_two_lowest_common_ancestors(self, podc16_cj, podc16_j):
        # {1,2,3} and {1,2,4} share the incomparable ancestors {1} and {2}.
        edges = []
        for a in (1, 2):
            for c in (3, 4):
                edges += chain((), (a,), tuple(sorted((a, c))), (1, 2, c))
        verdict = structural_on(podc16_cj, podc16_j, snapshot(edges))["unique_lca"]
        assert not verdict.satisfied
        assert verdict.witness == {
            "replica": 0,
            "vertices": [["1:1", "2:1", "3:1"], ["1:1", "2:1", "4:1"]],
            "lca_count": 2,
        }

    def test_disjoint_lca_paths_overlap(self, podc16_cj, podc16_j):
        verdicts = structural_on(podc16_cj, podc16_j, snapshot(DISJOINT_COUNTEREXAMPLE))
        assert verdicts["unique_lca"].satisfied
        verdict = verdicts["disjoint_lca_paths"]
        assert not verdict.satisfied
        assert verdict.witness == {
            "replica": 0,
            "vertices": [["1:1", "2:1", "3:1"], ["1:1", "2:1", "4:1"]],
            "lca": ["1:1"],
            "overlap": ["2:1"],
        }

    def test_vertex_compatibility_opposite_orders(self, podc16_cj, podc16_j):
        # {1,2} replays to "ab"; {1,2,3}, reached only through {2,3}, to "bca".
        edges = chain((), (1,), (1, 2)) + chain((), (2,), (2, 3), (1, 2, 3))
        ops = {oids(1, 2): ins(2, 1), oids(2, 3): ins(3, 1), oids(1, 2, 3): ins(1, 2)}
        verdict = structural_on(podc16_cj, podc16_j, snapshot(edges, ops))["vertex_compatibility"]
        assert not verdict.satisfied
        assert verdict.witness == {
            "replica": 0,
            "lists": ["ab", "bca"],
            "elements": ["a@1:1", "b@2:1"],
        }

    def test_vertex_compatibility_checks_each_distinct_space(self, podc16_cj, podc16_j):
        # Replica 2's space differs from the others' only in one edge's
        # label, which makes {1,2,3} replay to "bca" instead of "abc".
        edges = chain((), (1,), (1, 2)) + chain((), (2,), (2, 3), (1, 2, 3))
        ops = {oids(1, 2): ins(2, 1), oids(2, 3): ins(3, 1)}
        good = snapshot(edges, {**ops, oids(1, 2, 3): ins(1, 0)})
        bad = snapshot(edges, {**ops, oids(1, 2, 3): ins(1, 2)})
        broken = copy.copy(podc16_cj)
        broken.css_final = {0: good, 1: good, 2: bad}
        verdict = {v.check: v for v in check_structural(broken, podc16_j)}["vertex_compatibility"]
        assert verdict.witness == {
            "replica": 2,
            "lists": ["ab", "bca"],
            "elements": ["a@1:1", "b@2:1"],
        }
        broken.css_final = {0: good, 1: good}
        assert {v.check: v for v in check_structural(broken, podc16_j)}["vertex_compatibility"].satisfied


# --------------------------------------------------------------------------
# The visibility axioms are checked without assert.


class TestVisibilityAxioms:
    def test_missing_transitive_pair_raises(self, podc16_cj, monkeypatch):
        H = build_abstract_execution(podc16_cj.trace).H
        full = checkers.causal_pairs(H)
        # A visible pair implied only through a third event, across replicas.
        implied = next(
            (i, k)
            for i, k in sorted(full)
            if H[i].replica != H[k].replica
            and any((i, j) in full and (j, k) in full for j in range(i + 1, k))
        )
        monkeypatch.setattr(checkers, "causal_pairs", lambda events: set(full) - {implied})
        with pytest.raises(ProtocolError, match="transitive"):
            build_abstract_execution(podc16_cj.trace)

    def test_backward_pair_raises(self, podc16_cj, monkeypatch):
        monkeypatch.setattr(checkers, "causal_pairs", lambda events: {(1, 0)})
        with pytest.raises(ProtocolError, match="history order"):
            build_abstract_execution(podc16_cj.trace)

    def test_missing_program_order_raises(self, podc16_cj, monkeypatch):
        monkeypatch.setattr(checkers, "causal_pairs", lambda events: set())
        with pytest.raises(ProtocolError, match="per-replica"):
            build_abstract_execution(podc16_cj.trace)


# --------------------------------------------------------------------------
# Visibility bitsets against the literal pair scans they replace.

Clocked = namedtuple("Clocked", "index vclock")


@st.composite
def clocked_events(draw):
    """0-12 events of one clock width (1-4) with components 0-3, so that
    ties and equal clocks occur, and indices that are not positions."""
    width = draw(st.integers(1, 4))
    clocks = draw(st.lists(st.tuples(*[st.integers(0, 3)] * width), max_size=12))
    indices = draw(st.lists(st.integers(0, 99), min_size=len(clocks), max_size=len(clocks), unique=True))
    return [Clocked(i, c) for i, c in zip(indices, clocks)]


class TestCausalPairsMatchesOracle:
    @FAST
    @given(clocked_events())
    def test_same_pairs_as_clock_scan(self, events):
        want = {(a.index, b.index) for a in events for b in events if vc_less(a.vclock, b.vclock)}
        assert causal_pairs(events) == want

    def test_clocks_of_different_lengths_raise(self):
        with pytest.raises(ProtocolError, match="different lengths"):
            causal_pairs([Clocked(0, (1, 0)), Clocked(1, (1, 0, 0))])


@st.composite
def executions(draw):
    """A hand-built AbstractExecution: random events, a random transitive
    vis, and returned lists that are random, a permutation of the visible
    elements, or those elements sorted (so that reads converge)."""
    n = draw(st.integers(0, 10))
    preds = [set() for _ in range(n)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25)):
        if i < j < n:
            preds[j].add(i)
    for j in range(n):
        for i in list(preds[j]):
            preds[j] |= preds[i]
    mode = draw(st.sampled_from(["sorted", "permuted", "random"]))
    H = []
    for j in range(n):
        kind = draw(st.sampled_from(["ins", "del", "read"]))
        element = None if kind == "read" else draw(st.sampled_from(ELEMS))
        pos = None if kind == "read" else draw(st.integers(0, 3))
        op = OpRecord(kind, None if kind == "read" else f"{j}:1", element, pos)
        ops = [H[i].op for i in preds[j]] + [op]
        live = {o.element for o in ops if o.kind == "ins"} - {o.element for o in ops if o.kind == "del"}
        if mode == "sorted":
            value = tuple(sorted(live))
        elif mode == "permuted":
            value = tuple(draw(st.permutations(sorted(live))))
        else:
            value = tuple(draw(st.lists(st.sampled_from(ELEMS), max_size=4)))
        H.append(DoEvent(j, draw(st.integers(1, 3)), op, value, ()))
    return AbstractExecution(tuple(H), frozenset((i, j) for j in range(n) for i in preds[j]))


def _visible(A, e):
    return [u for u in A.H if u.is_update() and (u.index, e.index) in A.vis]


def oracle_convergence(A):
    groups = {}
    for e in A.H:
        if e.op.kind != "read":
            continue
        first = groups.setdefault(frozenset(u.index for u in _visible(A, e)), e)
        if first.value != e.value:
            return {"check": "convergence", "satisfied": False, "witness": {
                "events": [first.index, e.index], "replicas": [first.replica, e.replica],
                "lists": ["".join(x[0] for x in v) for v in (first.value, e.value)]}}
    return {"check": "convergence", "satisfied": True}


def oracle_weak_condition_1(A):
    """The first failure of condition 1a or 1c, or None. Condition 2 does
    not read vis, and the checker tests it only after every event passes
    1a and 1c."""
    for e in A.H:
        visible = _visible(A, e) + ([e] if e.is_update() else [])
        expected = ({u.op.element for u in visible if u.op.kind == "ins"}
                    - {u.op.element for u in visible if u.op.kind == "del"})
        got = set(e.value)
        text = "".join(x[0] for x in e.value)
        if got != expected:
            return {"check": "weak_spec", "satisfied": False, "witness": {
                "condition": "1a", "event": e.index, "replica": e.replica, "list": text,
                "missing": sorted(map(str, expected - got)), "extra": sorted(map(str, got - expected))}}
        if e.op.kind == "ins" and (not e.value or e.value[min(e.op.pos, len(e.value) - 1)] != e.op.element):
            return {"check": "weak_spec", "satisfied": False, "witness": {
                "condition": "1c", "event": e.index, "list": text}}
    return None


class TestVisibilityReadersMatchOracle:
    @FAST
    @given(executions())
    def test_convergence_and_weak_spec(self, A):
        assert check_convergence(A).to_json_dict() == oracle_convergence(A)
        weak = check_weak_spec(A).to_json_dict()
        want = oracle_weak_condition_1(A)
        if want is None:
            assert weak["satisfied"] or weak["witness"]["condition"] == "2"
        else:
            assert weak == want

    @pytest.mark.parametrize(
        "indices, vis",
        [((0, 1), {(0, 2)}), ((0, 1), {(-1, 1)}), ((5, 7), {(5, 7)})],
        ids=["pair-past-end", "negative-pair", "index-not-position"],
    )
    def test_malformed_execution_rejected(self, indices, vis):
        H = tuple(DoEvent(j, 1, OpRecord("read"), (), ()) for j in indices)
        with pytest.raises(ValueError, match=" H"):
            AbstractExecution(H, frozenset(vis))
