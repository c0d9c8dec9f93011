"""The LCA, compatibility and per-step lemmas, the visibility bitsets and
the step histories: their fast paths against literal oracles, and
each lemma shown to fire on a hand-broken space."""

import collections
import copy
import dataclasses
from collections import namedtuple

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from conftest import (
    O1,
    O3,
    O4,
    causal_pairs,
    held_spaces,
    history_with,
    literal_condition_2,
    mask,
    plain,
    seen_masks,
    shortest_cycles,
    step_copying,
    stepped_copies,
    vc_less,
)
from otwb import checkers, simnet
from otwb.checkers import (
    AbstractExecution,
    DoEvent,
    _check_client_subgraph,
    _check_first_rule,
    build_abstract_execution,
    check_convergence,
    check_pairwise_compatibility,
    check_structural,
    check_weak_spec,
)
from otwb.css_space import CssSnapshot, Oid, OidIndex, ProtocolError, ProtoOp, StepHistory
from otwb.ot_core import Element, ListOp
from otwb.simnet import (
    PROTOCOLS,
    OpRecord,
    Simulation,
    bit_positions,
    causal_masks,
    podc16_schedule,
    random_schedule,
    run,
)

FAST = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def oids(*ks):
    return frozenset(Oid(k, 1) for k in ks)


def ins(cid, pos=0):
    """Insert of client cid's first element, glyph a, b, c... by cid."""
    return ListOp.ins(Element("abcdef"[cid - 1], cid, 1), pos)


# The oid index of the hand-built snapshots. It holds the oids k:1 in
# descending order, so that bit order is not oid order.
INDEX = OidIndex()
for k in range(9, 0, -1):
    INDEX.bit(Oid(k, 1))


def snapshot(edges, ops=None, extra=()):
    """A CssSnapshot from (src, target) pairs of oid sets, each target one
    oid larger than its source, plus the vertices `extra`, keyed by their
    masks in INDEX; `ops` maps a target to the ListOp on its in-edges
    (default: insert at 0)."""
    vertices = {k: [] for k in (frozenset(), *extra)}
    for src, dst in dict.fromkeys(edges):
        (oid,) = dst - src
        op = ProtoOp((ops or {}).get(dst, ins(oid.cid)), oid, INDEX.bit(oid), mask(INDEX, src))
        vertices.setdefault(dst, [])
        vertices.setdefault(src, []).append(op)
    cur = max(vertices, key=len)
    return CssSnapshot(
        0, mask(INDEX, cur), {mask(INDEX, k): tuple(v) for k, v in vertices.items()}, INDEX
    )


def as_sets(snap):
    """snap's vertices as oid sets: {vertex: [(edge oid, target)]}."""
    oids_of = {k: frozenset(snap.index.decode(k)) for k in snap.vertices}
    return {
        oids_of[k]: [(e.oid, frozenset(snap.index.decode(k | e.bit))) for e in edges]
        for k, edges in snap.vertices.items()
    }


def chain(*steps):
    """Edges along a path of oid sets given as tuples of ints."""
    sets = [oids(*s) for s in steps]
    return list(zip(sets, sets[1:]))


# The paths from the unique LCA {1} to {1,2,3} and to {1,2,4} both pick
# up oid 2.
DISJOINT_COUNTEREXAMPLE = chain((), (1,), (1, 3), (1, 2, 3)) + chain((1,), (1, 4), (1, 2, 4))

# Every single-oid step among {}, a, b, c, ac, bc, abc, d, ad, bd, abd
# (oids 1-4): abc and abd have the two lowest common ancestors a and b,
# since their intersection ab is not a vertex.
FOUR_OID_FAMILY = [oids(*s) for s in ((), (1,), (2,), (3,), (1, 3), (2, 3), (1, 2, 3),
                                      (4,), (1, 4), (2, 4), (1, 2, 4))]
FOUR_OID_EDGES = [(u, v) for u in FOUR_OID_FAMILY for v in FOUR_OID_FAMILY if u < v and len(v - u) == 1]


# --------------------------------------------------------------------------
# Literal oracles: true reachability, every pair, every common ancestor.


def _fmt(s):
    return [o.token() for o in sorted(s)]


def _oracle_lcas(snap):
    sets = as_sets(snap)
    keys = sorted(sets, key=lambda s: (len(s), sorted(s)))
    parents = {k: set() for k in keys}
    for src, edges in sets.items():
        for _, target in edges:
            parents[target].add(src)

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
# Random oid-set DAGs: vertices are subsets of six oids, and every edge
# adds one oid, as in a replay. Half of them give every vertex an in-edge,
# adding its source where it is missing, so that not every space has an
# unreachable vertex, which fails unique_lca at once.

POOL = [Oid(c, 1) for c in range(1, 7)]


@st.composite
def oid_dags(draw):
    sets = draw(st.lists(st.frozensets(st.sampled_from(POOL), min_size=1, max_size=4),
                         min_size=1, max_size=9, unique=True))
    keys = [frozenset()] + sets
    in_edges = []
    if draw(st.booleans()):
        for v in keys:  # a source added here is reached, and gets an in-edge too
            if v:
                u = v - {draw(st.sampled_from(sorted(v)))}
                keys += [u] if u not in keys else []
                in_edges.append((u, v))
    pairs = [(u, v) for u in keys for v in keys if u < v and len(v - u) == 1]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    return snapshot(chosen + in_edges, extra=keys[1:])


class TestLcaFastPathsMatchOracle:
    @FAST
    @given(oid_dags(), st.one_of(st.none(), oid_dags()))
    @example(snapshot(DISJOINT_COUNTEREXAMPLE), None)
    @example(snapshot(FOUR_OID_EDGES), None)
    def test_unique_lca_and_disjoint_paths(self, podc16_cj, snap, other):
        # Through check_structural, so that the grouping of replicas by
        # space is checked with the lemmas.
        snaps = {0: snap} if other is None else {0: snap, 2: other}
        broken = copy.copy(podc16_cj)
        broken.css_final = snaps
        verdicts = {v.check: v.to_json_dict() for v in check_structural(broken)}
        assert verdicts["unique_lca"] == oracle_unique_lca(snaps)
        assert verdicts["disjoint_lca_paths"] == oracle_disjoint_paths(snaps)


ELEMS = [(g, c, 1) for g, c in zip("abcde", range(1, 6))]
ELEMENTS = [Element(*x) for x in ELEMS]


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


    @pytest.mark.parametrize(
        "edges, missing",
        [
            (chain((), (1,)) + chain((), (2,)), "vertex"),
            (chain((), (1,)) + chain((), (2,), (1, 2)), "edge from first child"),
            (chain((), (1,), (1, 2)) + chain((), (2,)), "edge from sibling child"),
        ],
        ids=["vertex", "first", "sibling"],
    )
    def test_css_closure_names_what_is_missing(self, podc16_cj, podc16_j, edges, missing):
        # The root's children {1} and {2} must close into the square at {1,2}.
        verdict = structural_on(podc16_cj, podc16_j, snapshot(edges))["css_closure"]
        assert verdict.witness == {"replica": 0, "vertex": [], "first": "1:1", "sibling": "2:1", "missing": missing}

    def test_simple_path_names_the_first_replica_of_a_shared_broken_space(self, podc16_cj, podc16_j):
        # Replicas 1 and 2 hold one space, whose edge from {} dangles: {1}
        # is not a vertex.
        good = snapshot(chain((), (1,), (1, 2)))
        bad = dataclasses.replace(good, vertices={k: v for k, v in good.vertices.items() if k != mask(INDEX, oids(1))})
        broken = copy.copy(podc16_cj)
        broken.css_final = {0: good, 1: bad, 2: bad, 3: good}
        verdict = {v.check: v for v in check_structural(broken, podc16_j)}["simple_path"]
        assert verdict.witness == {"replica": 1, "vertex": [], "edge": "1:1", "target": ["1:1"]}

    def test_space_isomorphism_names_vertex_whose_edges_differ(self, podc16_cj, podc16_j):
        # Replica 1 holds the same vertices as the server, with the edges at
        # {1:1} in reverse order.
        final = podc16_cj.css_final
        key = mask(final[1].index, oids(1))
        reordered = dataclasses.replace(final[1], vertices={**final[1].vertices, key: final[1].vertices[key][::-1]})
        broken = copy.copy(podc16_cj)
        broken.css_final = {**final, 1: reordered}
        verdict = {v.check: v for v in check_structural(broken, podc16_j)}["space_isomorphism"]
        assert verdict.witness == {
            "replicas": [0, 1],
            "only_first": [],
            "only_second": [],
            "edges_differ": [["1:1"]],
        }


def relabel(snap, vertex, oid, position):
    """snap with the ListOp position of oid's edge out of `vertex` (an oid
    set) changed; the edge keeps its oid, bit and contexts."""
    key = mask(snap.index, vertex)
    edges = tuple(
        e._replace(o=e.o._replace(position=position))
        if e.oid == oid else e
        for e in snap.vertices[key]
    )
    return dataclasses.replace(snap, vertices={**snap.vertices, key: edges})


class TestLabelOnlyDifference:
    """Two spaces that differ only in one edge's operation are different
    spaces to every lemma that compares spaces edge by edge."""

    def test_space_isomorphism(self, podc16_cj, podc16_j):
        # Ins(b,1) -> Ins(b,2) at {1:1}, whose list is "x": both insert b
        # last, so every vertex replays to the same list.
        broken = copy.copy(podc16_cj)
        broken.css_final = {**podc16_cj.css_final, 1: relabel(podc16_cj.css_final[1], oids(1), O4, 2)}
        failed = {v.check: v.witness for v in check_structural(broken, podc16_j) if not v.satisfied}
        assert failed == {"space_isomorphism": {
            "replicas": [0, 1], "only_first": [], "only_second": [], "edges_differ": [["1:1"]]}}

    def test_server_union(self, podc16_cj, podc16_j):
        # Only the server's space for client 2 holds o3 at {1:1}.
        broken = copy.copy(podc16_j)
        final = podc16_j.cscw_server_final
        broken.cscw_server_final = {**final, 2: relabel(final[2], oids(1), O3, 1)}
        failed = {v.check: v.witness for v in check_structural(podc16_cj, broken) if not v.satisfied}
        assert failed == {"server_union": {
            "vertices_only_union": [], "vertices_only_css": [],
            "edges_only_union": ["2:1"], "edges_only_css": ["2:1"]}}

    def test_client_subgraph(self, podc16_cj, podc16_j):
        # Client 2's 2D edge o1 from {} is relabelled; its step 1, the
        # receipt of o1, is the first to show it.
        broken = copy.copy(podc16_j)
        steps = podc16_j.cscw_client_steps
        broken.cscw_client_steps = {**steps, 2: history_with(steps[2], relabel(steps[2].final, oids(), O1, 1).vertices)}
        failed = {v.check: v.witness for v in check_structural(podc16_cj, broken) if not v.satisfied}
        assert failed == {"client_subgraph": {"client": 2, "step": 1, "extra_edges": ["1:1"]}}


def server_receives(result):
    return [p for p, e in enumerate(result.trace.events) if e.kind == "receive" and e.replica == 0]


def with_ot_seq(result, k, ot_seq):
    """A copy of result whose k-th server receive carries ot_seq."""
    events = list(result.trace.events)
    p = server_receives(result)[k]
    events[p] = events[p]._replace(ot_seq=ot_seq)
    broken = copy.copy(result)
    broken.trace = dataclasses.replace(result.trace, events=tuple(events))
    return broken


def oracle_concurrent_arrivals(result):
    """For the k-th server receive, the earlier arrivals whose do event's
    vector clock is neither before nor after its own."""
    events = result.trace.events
    do_vc = {e.op.oid: e.vclock for e in events if e.kind == "do" and e.op.oid is not None}
    arrivals = [o.token() for o in result.arrival_log]
    out = []
    for k, p in enumerate(server_receives(result)):
        vc = do_vc[events[p].op.oid]
        out.append([t for t in arrivals[:k] if not vc_less(do_vc[t], vc) and not vc_less(vc, do_vc[t])])
    return out


class TestOtSequence:
    def test_fires_on_altered_ot_seq(self, podc16_cj):
        verdict = checkers._check_ot_sequence(with_ot_seq(podc16_cj, 3, ("2:1",)))
        assert not verdict.satisfied
        assert verdict.witness == {
            "arrival": 3, "oid": "3:1", "transformed_against": ["2:1"], "expected": ["1:2", "2:1"]}

    def test_arrival_without_do_event_fails(self, podc16_cj):
        # A verdict naming the arrival and its oid, not KeyError.
        broken = copy.copy(podc16_cj)
        events = [e for e in podc16_cj.trace.events if not (e.kind == "do" and e.op.oid == "3:1")]
        broken.trace = dataclasses.replace(podc16_cj.trace, events=tuple(events))
        failed = {v.check: v.witness for v in check_structural(broken) if not v.satisfied}
        assert failed == {"ot_sequence": {"arrival": 3, "oid": "3:1", "error": "no do event"}}

    def test_concurrency_matches_clock_scan(self):
        # podc16 and the acceptance corpus's shapes for seeds 0-199. An
        # impossible ot_seq at arrival k makes the witness show the
        # concurrent arrivals the check expects there.
        schedules = [podc16_schedule()] + [
            random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s) for s in range(200)
        ]
        compared = 0
        for schedule in schedules:
            for protocol in ("cjupiter", "jupiter"):
                result = run(protocol, schedule, record_snapshots=False)
                assert checkers._check_ot_sequence(result).satisfied
                for k, want in enumerate(oracle_concurrent_arrivals(result)):
                    verdict = checkers._check_ot_sequence(with_ot_seq(result, k, ("?",)))
                    assert verdict.witness["arrival"] == k
                    assert verdict.witness["expected"] == want
                    compared += 1
        assert compared > 1000


class TestDanglingEdge:
    """An edge whose target is not a vertex of its snapshot ends in failing
    verdicts with witnesses, never in KeyError."""

    DROP = frozenset({Oid(1, 1)})

    @staticmethod
    def without(snap, key):
        vertices = dict(snap.vertices)
        del vertices[mask(snap.index, key)]
        return dataclasses.replace(snap, vertices=vertices)

    def test_vertex_dropped_from_final_server_space(self, podc16_cj, podc16_j):
        broken = copy.copy(podc16_cj)
        broken.css_final = {**podc16_cj.css_final, 0: self.without(podc16_cj.css_final[0], self.DROP)}
        failed = {v.check: v.witness for v in check_structural(broken, podc16_j) if not v.satisfied}
        assert failed == {
            "simple_path": {"replica": 0, "vertex": [], "edge": "1:1", "target": ["1:1"]},
            "unique_lca": {"replica": 0, "vertices": [[], ["1:1", "1:2"]], "lca_count": 0},
            "vertex_compatibility": {"replica": 0, "error": "vertex ['1:1', '1:2'] unreachable from root"},
            "space_isomorphism": {"replicas": [0, 1], "only_first": [], "only_second": [["1:1"]]},
            "server_union": {
                "vertices_only_union": [["1:1"]],
                "vertices_only_css": [],
                "edges_only_union": ["1:2", "2:1", "3:1"],
                "edges_only_css": [],
            },
        }

    def test_first_child_dropped_from_final_server_space(self, podc16_cj, podc16_j):
        # {1:1} has three edges; the first one's target is the square corner
        # that css_closure looks for the sibling edges at.
        snap = self.without(podc16_cj.css_final[0], frozenset({Oid(1, 1), Oid(1, 2)}))
        broken = copy.copy(podc16_cj)
        broken.css_final = {**podc16_cj.css_final, 0: snap}
        failed = {v.check: v.witness for v in check_structural(broken, podc16_j) if not v.satisfied}
        assert failed["simple_path"] == {
            "replica": 0, "vertex": ["1:1"], "edge": "1:2", "target": ["1:1", "1:2"]}
        assert failed["css_closure"] == {
            "replica": 0, "vertex": ["1:1"], "first": "1:2", "sibling": "2:1",
            "missing": "edge from first child"}
        assert set(failed) == {
            "simple_path", "css_closure", "disjoint_lca_paths", "space_isomorphism", "server_union"}

    def test_vertex_emptied_in_last_server_step(self, podc16_cj, podc16_j):
        # {1:1,2:1} keeps its key but loses its one edge in the final space,
        # so from its birth at step 3 (the arrival of o3) its own first-edge
        # path stalls; the error lists it as tokens.
        broken = copy.copy(podc16_cj)
        steps = podc16_cj.css_server_steps
        key = mask(steps.final.index, oids(1, 2))
        broken.css_server_steps = history_with(steps, {**steps.final.vertices, key: ()})
        failed = {v.check: v.witness for v in check_structural(broken, podc16_j) if not v.satisfied}
        assert failed == {"first_rule": {
            "step": 3,
            "vertex": ["1:1", "2:1"],
            "error": "first-edge path from ['1:1', '2:1'] stalled before cur",
        }}

    def test_vertex_dropped_from_last_server_step(self, podc16_cj, podc16_j):
        # {1:1} leaves the final space, so the edge from {} dangles. Step 1
        # ends at cur {1:1}; step 2, the arrival of o2, walks past it.
        broken = copy.copy(podc16_cj)
        steps = podc16_cj.css_server_steps
        broken.css_server_steps = history_with(steps, self.without(steps.final, self.DROP).vertices)
        failed = {v.check: v.witness for v in check_structural(broken, podc16_j) if not v.satisfied}
        assert failed == {"first_rule": {
            "step": 2,
            "vertex": [],
            "error": "first-edge path from [] reaches ['1:1'], which is not a vertex",
        }}


# --------------------------------------------------------------------------
# The visibility axioms are checked without assert.


class TestVisibilityAxioms:
    def test_missing_transitive_pair_raises(self, podc16_cj, monkeypatch):
        H = build_abstract_execution(podc16_cj.trace).H
        full = checkers.causal_masks(H)
        # A visible pair implied only through a third event, across replicas.
        i, k = next(
            (i, k)
            for k, m in enumerate(full)
            for i in bit_positions(m)
            if H[i].replica != H[k].replica
            and any(full[j] >> i & 1 for j in bit_positions(m) if j > i)
        )
        cut = [m & ~(1 << i) if j == k else m for j, m in enumerate(full)]
        monkeypatch.setattr(checkers, "causal_masks", lambda events: cut)
        with pytest.raises(ProtocolError, match="transitive"):
            build_abstract_execution(podc16_cj.trace)

    def test_backward_pair_raises(self, podc16_cj, monkeypatch):
        # Event 0 sees event 1.
        monkeypatch.setattr(checkers, "causal_masks", lambda events: [0b10] + [0] * (len(events) - 1))
        with pytest.raises(ProtocolError, match="history order"):
            build_abstract_execution(podc16_cj.trace)

    def test_missing_program_order_raises(self, podc16_cj, monkeypatch):
        monkeypatch.setattr(checkers, "causal_masks", lambda events: [0] * len(events))
        with pytest.raises(ProtocolError, match="per-replica"):
            build_abstract_execution(podc16_cj.trace)


def oracle_validate_visibility(A):
    """The visibility axioms tested literally on the pairs of vis, with the
    checker's messages and in its order: history order, program order,
    then every two chained pairs."""
    vis = A.vis
    if any(i >= j for i, j in vis):
        raise ProtocolError("visibility must respect history order")
    last = {}
    for e in A.H:
        if e.replica in last and (last[e.replica], e.index) not in vis:
            raise ProtocolError("per-replica order must be visible")
        last[e.replica] = e.index
    for i, j in vis:
        for k, i2 in vis:
            if i2 == i and (k, j) not in vis:
                raise ProtocolError("visibility must be transitive")


def _reads(*replicas):
    return tuple(DoEvent(j, r, OpRecord("read"), (), ()) for j, r in enumerate(replicas))


@st.composite
def history_ordered_executions(draw):
    """0-10 reads on 1-4 replicas whose seen bitsets respect history order:
    each event sees up to two earlier ones. Each event may also see its
    replica's previous one (program order); the bitsets are raw,
    transitively closed, or closed and then cut by one bit, so that every
    axiom both holds and fails."""
    n = draw(st.integers(0, 10))
    replicas = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    seen = [
        sum({1 << i for i in draw(st.lists(st.integers(0, j - 1), max_size=2))}) if j else 0
        for j in range(n)
    ]
    if draw(st.booleans()):
        last = {}
        for j, r in enumerate(replicas):
            if r in last:
                seen[j] |= 1 << last[r]
            last[r] = j
    mode = draw(st.sampled_from(["raw", "closed", "cut"]))
    if mode != "raw":
        for j in range(n):
            for i in reversed(range(j)):
                if seen[j] >> i & 1:
                    seen[j] |= seen[i]
    if mode == "cut" and any(seen):
        j = draw(st.sampled_from([j for j in range(n) if seen[j]]))
        seen[j] &= ~(1 << draw(st.sampled_from(list(bit_positions(seen[j])))))
    return AbstractExecution(_reads(*replicas), tuple(seen))


def _raised(check, A):
    try:
        check(A)
    except ProtocolError as exc:
        return str(exc)
    return None


class TestTransitivityMatchesPairScan:
    @FAST
    @given(history_ordered_executions())
    # Event 2 sees event 1 but not event 0, which event 1 sees.
    @example(AbstractExecution(_reads(1, 2, 3), (0, 0b1, 0b10)))
    # Event 3 sees event 1 but not event 0, which event 1 sees; the latest
    # event that event 3 sees, event 2, sees nothing.
    @example(AbstractExecution(_reads(1, 2, 3, 3), (0, 0b1, 0, 0b110)))
    def test_same_outcome_as_all_pairs(self, A):
        assert _raised(checkers._validate_visibility, A) == _raised(oracle_validate_visibility, A)

    @pytest.mark.parametrize(
        "message", [None, "per-replica order must be visible", "visibility must be transitive"]
    )
    def test_strategy_reaches_outcome(self, message):
        find(
            history_ordered_executions(),
            lambda A: _raised(oracle_validate_visibility, A) == message,
            settings=settings(derandomize=True, database=None),
        )


class TestSpecChecksReadNoPairs:
    """The verify path builds no (i, j) pair: the library holds no
    causal_pairs to call (it is a test oracle), and A.vis is never
    spelled out."""

    @pytest.mark.parametrize(
        "schedule",
        [podc16_schedule(), random_schedule(3, 12, seed=0, read_probability=1.0)],
        ids=["podc16", "observe-seed0"],
    )
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_no_pair_is_built(self, schedule, protocol):
        trace = run(protocol, schedule).trace
        assert not any(hasattr(m, "causal_pairs") for m in (simnet, checkers))
        A = build_abstract_execution(trace)
        verdicts = [
            check_convergence(A),
            check_weak_spec(A),
            checkers.check_strong_spec(A),
            check_pairwise_compatibility([e.value for e in A.H]),
        ]
        assert [v.check for v in verdicts] == [
            "convergence", "weak_spec", "strong_spec", "pairwise_compatibility"
        ]
        assert "vis" not in vars(A)

    @pytest.mark.parametrize(
        "schedule",
        [podc16_schedule(), random_schedule(3, 12, seed=0, read_probability=1.0)],
        ids=["podc16", "observe-seed0"],
    )
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_weak_spec_builds_no_list_order(self, schedule, protocol):
        # Condition 2 is decided in linear time; the pairs of the list
        # order are built only for a failing witness.
        A = build_abstract_execution(run(protocol, schedule).trace)
        assert check_weak_spec(A).satisfied
        assert "list_order" not in vars(A)


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

    @FAST
    @given(clocked_events())
    def test_masks_expand_to_clock_scan(self, events):
        # The masks are by position in events, not by index.
        want = {
            (p, q)
            for p, a in enumerate(events)
            for q, b in enumerate(events)
            if vc_less(a.vclock, b.vclock)
        }
        masks = causal_masks(events)
        assert len(masks) == len(events)
        assert {(p, q) for q, m in enumerate(masks) for p in bit_positions(m)} == want

    def test_clocks_of_different_lengths_raise(self):
        with pytest.raises(ProtocolError, match="different lengths"):
            causal_pairs([Clocked(0, (1, 0)), Clocked(1, (1, 0, 0))])


@st.composite
def executions(draw):
    """A hand-built AbstractExecution: random events over Element values,
    drawn from a pool of five or, in the fresh mode, as a replay makes
    them, and returned lists that are random, a permutation of the visible
    elements, those elements sorted (so that reads converge), or runs of
    a ring of elements (so that the lists close cycles). vis is
    random and then "causal" (each replica's earlier events added, then
    closed transitively, as in a replay), "closed" (only closed), or "raw"
    (neither, so in general neither transitive nor in program order)."""
    n = draw(st.integers(0, 10))
    replicas = [draw(st.integers(1, 3)) for _ in range(n)]
    closure = draw(st.sampled_from(["causal", "closed", "raw"]))
    preds = [set() for _ in range(n)]
    last = max(n - 1, 0)
    for i, j in draw(st.lists(st.tuples(st.integers(0, last), st.integers(0, last)), max_size=25)):
        if i < j < n:
            preds[j].add(i)
    for j in range(n):
        if closure == "causal":
            preds[j] |= {i for i in range(j) if replicas[i] == replicas[j]}
        if closure != "raw":
            for i in list(preds[j]):
                preds[j] |= preds[i]
    mode = draw(st.sampled_from(["sorted", "permuted", "random", "ring"]))
    ring = draw(st.permutations(ELEMENTS))[: draw(st.integers(1, 5))]
    fresh = draw(st.booleans())  # each insert a new element, each delete a visible insert's
    H = []
    for j in range(n):
        kind = draw(st.sampled_from(["ins", "del", "read"]))
        earlier = [H[i].op.element for i in sorted(preds[j]) if H[i].op.kind == "ins"]
        if kind == "read":
            element = None
        elif fresh and kind == "ins":
            element = Element("abcdefghij"[j], replicas[j], j + 1)
        else:
            element = draw(st.sampled_from(earlier if fresh and earlier else ELEMENTS))
        pos = None if kind == "read" else draw(st.integers(0, 3))
        op = OpRecord(kind, None if kind == "read" else f"{j}:1", element, pos)
        ops = [H[i].op for i in preds[j]] + [op]
        live = {o.element for o in ops if o.kind == "ins"} - {o.element for o in ops if o.kind == "del"}
        if mode == "sorted":
            value = tuple(sorted(live))
        elif mode == "permuted":
            value = tuple(draw(st.permutations(sorted(live))))
        elif mode == "ring":
            # Consecutive elements of a ring, so that the lists together
            # can close a cycle, as podc16's a, x, b does, and a list
            # longer than the ring repeats an element.
            start, length = draw(st.integers(0, len(ring) - 1)), draw(st.integers(0, 3))
            value = tuple(ring[(start + d) % len(ring)] for d in range(length))
        else:
            value = tuple(draw(st.lists(st.sampled_from(ELEMENTS), max_size=4)))
        H.append(DoEvent(j, replicas[j], op, value, ()))
    return AbstractExecution(tuple(H), seen_masks(n, ((i, j) for j in range(n) for i in preds[j])))


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
        "indices, seen",
        # Event 0 sees event 2; event 1's mask is negative, so it sees
        # event -1 and every event past the end; indices 5 and 7 are not
        # positions; and event 2, past the end, sees event 0.
        [((0, 1), (0b100, 0)), ((0, 1), (0, -1)), ((5, 7), (0, 0b1)), ((0, 1), (0, 0, 0b1))],
        ids=["pair-past-end", "negative-pair", "index-not-position", "mask-past-end"],
    )
    def test_malformed_execution_rejected(self, indices, seen):
        H = tuple(DoEvent(j, 1, OpRecord("read"), (), ()) for j in indices)
        with pytest.raises(ValueError, match=" H"):
            AbstractExecution(H, seen)


class TestListOrderAcceptsMatchOracle:
    """Weak condition 2 and the strong spec's linear-time accept against
    the pair-by-pair scans of the list order, and the strong spec's
    witness against the shortest cycles found by walks."""

    @FAST
    @given(executions())
    def test_condition_2(self, A):
        want = literal_condition_2(A)
        if oracle_weak_condition_1(A) is None:
            weak = check_weak_spec(A)
            assert weak.satisfied == (want is None)
            assert weak.witness == want

    @FAST
    @given(executions())
    def test_strong_spec(self, A):
        # The witness is a cycle of the order, no cycle is shorter, and it
        # starts at the least element on a shortest cycle.
        pairs = checkers.build_list_order(A).pairs
        length, on = shortest_cycles(pairs)
        assert checkers._list_order_acyclic(A) == (length is None)
        strong = checkers.check_strong_spec(A)
        assert strong.satisfied == (length is None)
        if length is not None:
            cycle = checkers._shortest_cycle(pairs)
            assert all(p in pairs for p in zip(cycle, cycle[1:] + cycle[:1]))
            assert len(cycle) == length and cycle[0] == on[0]
            assert strong.witness == {
                "cycle": ["%s@%s:%s" % x for x in cycle],
                "elements": sorted(x[0] for x in cycle),
            }

    @pytest.mark.parametrize(
        "outcome",
        ["repeat", "conflict", "cycle of three", "acyclic", "inserted twice", "delete sees no insert",
         "untransitive and 1a fails"],
    )
    def test_strategy_reaches_outcome(self, outcome):
        # The last three break what an exact condition-1a decision must not
        # assume: test_convergence_and_weak_spec draws them from the same
        # strategy.
        def reached(A):
            lists = [e.value for e in A.H]
            if outcome == "repeat":
                return any(len(set(w)) < len(w) for w in lists)
            if outcome == "conflict":
                return all(len(set(w)) == len(w) for w in lists) and literal_condition_2(A) is not None
            if outcome == "inserted twice":
                inserted = [e.op.element for e in A.H if e.op.kind == "ins"]
                return len(set(inserted)) < len(inserted)
            if outcome == "delete sees no insert":
                return any(
                    e.op.kind == "del"
                    and not any(u.op.kind == "ins" and u.op.element == e.op.element for u in _visible(A, e))
                    for e in A.H
                )
            if outcome == "untransitive and 1a fails":
                want = oracle_weak_condition_1(A)
                chained = any((i, k) not in A.vis for i, j in A.vis for j2, k in A.vis if j2 == j)
                return chained and want is not None and want["witness"]["condition"] == "1a"
            length, _ = shortest_cycles(checkers.build_list_order(A).pairs)
            if outcome == "cycle of three":
                return literal_condition_2(A) is None and length == 3
            return length is None and any(len(w) > 2 for w in lists)

        # The first example found will do; shrinking it would take long.
        find(executions(), reached, settings=settings(
            derandomize=True, database=None, phases=[Phase.generate], max_examples=1000))


# --------------------------------------------------------------------------
# The per-step lemmas against the literal scans they replace, on recorded
# histories and on mutated ones.


def oracle_first_rule(result):
    arrivals = result.arrival_log
    for k, snap in enumerate(result.css_server_steps):
        seen = list(arrivals[:k])
        for key in snap.vertices:
            held = set(snap.index.decode(key))
            want = [o for o in seen if o not in held]
            try:
                got = [op.oid for op in snap.first_path(key)]
            except ProtocolError as exc:
                return {"check": "first_rule", "satisfied": False, "witness": {
                    "step": k, "vertex": _fmt(held), "error": str(exc)}}
            if got != want:
                return {"check": "first_rule", "satisfied": False, "witness": {
                    "step": k, "vertex": _fmt(held), "path": [o.token() for o in got],
                    "expected": [o.token() for o in want]}}
    return {"check": "first_rule", "satisfied": True}


def _edge_tuple(snap, src, e):
    o = e.o
    elem = None if o.element is None else (o.element.glyph, o.element.origin_cid, o.element.origin_seq)
    decode = snap.index.decode
    return (frozenset(decode(src)), e.oid, frozenset(decode(src | e.bit)), (o.kind.value, elem, o.position))


def oracle_client_subgraph(result, jresult):
    for cid, steps2d in sorted(jresult.cscw_client_steps.items()):
        steps_nary = result.css_client_steps.get(cid, ())
        if len(steps2d) != len(steps_nary):
            return {"check": "client_subgraph", "satisfied": False, "witness": {
                "client": cid, "steps_2d": len(steps2d), "steps_nary": len(steps_nary)}}
        for k, (snap2d, snap) in enumerate(zip(steps2d, steps_nary)):
            vertices2d, vertices = set(as_sets(snap2d)), set(as_sets(snap))
            if not vertices2d <= vertices:
                return {"check": "client_subgraph", "satisfied": False, "witness": {
                    "client": cid, "step": k, "extra_vertices": [
                        _fmt(v) for v in sorted(vertices2d - vertices, key=sorted)]}}
            edges2d = {_edge_tuple(snap2d, s, e) for s, es in snap2d.vertices.items() for e in es}
            edges = {_edge_tuple(snap, s, e) for s, es in snap.vertices.items() for e in es}
            if edges2d - edges:
                return {"check": "client_subgraph", "satisfied": False, "witness": {
                    "client": cid, "step": k, "extra_edges": sorted(e[1].token() for e in edges2d - edges)}}
    return {"check": "client_subgraph", "satisfied": True}


def outcome(fn, *args):
    """A checker's verdict as JSON, or the exception it raised."""
    try:
        verdict = fn(*args)
    except ProtocolError as exc:
        return type(exc).__name__, str(exc)
    return verdict if isinstance(verdict, dict) else verdict.to_json_dict()


@pytest.fixture(scope="module")
def recorded():
    """(cjupiter, jupiter) runs of podc16 and of small random schedules."""
    scheds = [podc16_schedule()]
    scheds += [random_schedule(1 + s % 4, 2 + s % 6, seed=s) for s in range(16)]
    return [(run("cjupiter", s), run("jupiter", s)) for s in scheds]


def _mutate_history(draw, history, donors):
    """history rewritten on (final snapshot, marks): two edges of a final
    vertex swapped, a final vertex dropped or emptied, the vertices born at
    one step born a step later, or the cur of one step or of every step
    from it onwards moved, each with the marks recounted; or one mark's
    vertex or edge count off by one, which breaks the history's premise;
    or a history from `donors` (other replicas) in its place."""
    kind = draw(st.sampled_from(["swap", "drop", "empty", "late", "cur", "count", "splice"]))
    if kind == "splice":
        return draw(st.sampled_from(donors))
    vertices, births, marks = dict(history.final.vertices), history.births, history.marks
    k = draw(st.integers(0, len(marks) - 1))
    if kind == "count":
        field = draw(st.sampled_from(["vertices", "edges"]))
        mark = marks[k]._replace(**{field: getattr(marks[k], field) + draw(st.sampled_from([-1, 1]))})
        return StepHistory(history.final, (*marks[:k], mark, *marks[k + 1 :]))
    if kind == "cur":
        view = list(history[k].vertices)
        last = draw(st.sampled_from([k, len(marks) - 1]))
        return history_with(history, curs={at: draw(st.sampled_from(view)) for at in range(k, last + 1)})
    if kind == "late":
        later = {m: b + (b == k and k < len(marks) - 1) for m, b in births.items()}
        return history_with(history, births=later)
    key = draw(st.sampled_from(list(vertices)))
    edges = vertices[key]
    if kind == "drop":
        del vertices[key]
    elif kind == "empty":
        vertices[key] = ()
    elif len(edges) >= 2:
        i, j = sorted(draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2, unique=True)))
        edges = list(edges)
        edges[i], edges[j] = edges[j], edges[i]
        vertices[key] = tuple(edges)
    return history_with(history, vertices)


class TestStepLemmasMatchOracle:
    @FAST
    @given(st.data())
    def test_first_rule(self, recorded, data):
        cj, _ = data.draw(st.sampled_from(recorded))
        broken = copy.copy(cj)
        arrivals = list(cj.arrival_log)
        kind = data.draw(st.sampled_from(["steps", "swap_arrivals", "repeat_arrival"]))
        if kind == "steps":
            donors = list(cj.css_client_steps.values())
            broken.css_server_steps = _mutate_history(data.draw, cj.css_server_steps, donors)
        elif arrivals:
            i = data.draw(st.integers(0, len(arrivals) - 1))
            j = data.draw(st.integers(0, len(arrivals) - 1))
            if kind == "swap_arrivals":
                arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
            else:
                arrivals[i] = arrivals[j]
            broken.arrival_log = tuple(arrivals)
        assert outcome(_check_first_rule, broken) == outcome(oracle_first_rule, broken)

    @FAST
    @given(st.data())
    def test_client_subgraph(self, recorded, data):
        cj, j = data.draw(st.sampled_from(recorded))
        broken_cj, broken_j = copy.copy(cj), copy.copy(j)
        if data.draw(st.booleans()):
            side, history = broken_j, "cscw_client_steps"
        else:
            side, history = broken_cj, "css_client_steps"
        per_client = dict(getattr(side, history))
        cid = data.draw(st.sampled_from(sorted(per_client)))
        per_client[cid] = _mutate_history(data.draw, per_client[cid], list(per_client.values()))
        setattr(side, history, per_client)
        assert outcome(_check_client_subgraph, broken_cj, broken_j) == outcome(
            oracle_client_subgraph, broken_cj, broken_j
        )

    def test_recorded_histories_pass(self, recorded):
        for cj, j in recorded:
            assert _check_first_rule(cj).to_json_dict() == oracle_first_rule(cj) == {
                "check": "first_rule", "satisfied": True}
            assert _check_client_subgraph(cj, j).to_json_dict() == oracle_client_subgraph(cj, j) == {
                "check": "client_subgraph", "satisfied": True}


# --------------------------------------------------------------------------
# Step histories against from-scratch copies taken while stepping.


class TestStepHistory:
    @FAST
    @given(st.sampled_from(PROTOCOLS), st.integers(1, 4), st.integers(0, 10), st.integers(0, 10**6))
    def test_views_equal_copies_taken_while_stepping(self, protocol, n, u, seed):
        sched = random_schedule(n, u, seed=seed)
        res = run(protocol, sched)
        histories = {0: res.css_server_steps} if protocol == "cjupiter" else {}
        histories.update(res.cscw_client_steps if protocol == "jupiter" else res.css_client_steps)
        want = stepped_copies(protocol, sched)
        assert sorted(histories) == sorted(want)
        assert len({id(h.final.index) for h in histories.values()}) == 1  # the run's one OidIndex
        for rid, history in histories.items():
            assert len(history.marks) == len(want[rid])
            assert [(snap.cur, plain(snap.vertices)) for snap in history] == want[rid]
            assert all(snap.index is history.final.index and snap.rid == rid for snap in history)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_hand_stepped_simulation_keeps_the_histories_run_returns(self, protocol):
        # Each space records its own marks, so a Simulation stepped without
        # run holds a history for every space, the jupiter server's too.
        small = [random_schedule(n, u, seed=s) for n in (1, 2, 3, 4) for u in (0, 3, 8) for s in range(3)]
        for sched in (podc16_schedule(), *small):
            n = sched.n_clients
            sim = Simulation(protocol, n)
            spaces = held_spaces(sim)
            assert len(spaces) == {"cjupiter": n + 1, "jupiter": 2 * n, "djupiter": n}[protocol]
            for space, want in zip(spaces, step_copying(sim, sched, spaces)):
                history = StepHistory(space.snapshot(), space.marks)
                assert [(snap.cur, plain(snap.vertices)) for snap in history] == want, (sched.prng, space.rid)
            if protocol != "djupiter":
                res = run(protocol, sched)
                histories = [res.css_server_steps] if protocol == "cjupiter" else []
                histories += (res.cscw_client_steps if protocol == "jupiter" else res.css_client_steps).values()
                assert [h.marks for h in histories] == [tuple(s.marks) for s in spaces[: len(histories)]]

    def test_history_that_does_not_fit_its_final_space(self, podc16_cj):
        # An edge linked to a vertex born before its call would show in the
        # views before it was made: the marks' edge counts catch it.
        history = podc16_cj.css_server_steps
        root = history.final.vertices[0]
        late = root[0]._replace(oid=Oid(9, 9))
        broken = StepHistory(dataclasses.replace(history.final, vertices={
            **history.final.vertices, 0: (*root, late)}), history.marks)
        with pytest.raises(ProtocolError, match="history of replica 0: step 1 shows 2 edges, but its mark counts 1"):
            broken[1]
        short = StepHistory(history.final, history.marks[:-1])
        with pytest.raises(ProtocolError, match=r"vertex counts \[1, 2, 3, 5\] do not grow to 8"):
            short.births

    def test_ladder_rung_8_48_matches_the_oracles(self):
        # V = 544 on the ladder's first rung: one mark before the first step
        # and one per update or receive event of the replica, and both
        # lemmas agree with the literal oracles.
        sched = random_schedule(8, 48, seed=7)
        cj, j = run("cjupiter", sched), run("jupiter", sched)
        assert len(cj.css_final[0].vertices) == 544
        changes = collections.Counter(
            e.replica for e in cj.trace.events if e.kind == "receive" or e.kind == "do" and e.op.oid)
        assert len(cj.css_server_steps.marks) == 1 + changes[0]
        for c, history in cj.css_client_steps.items():
            assert len(history.marks) == 1 + changes[c] == len(j.cscw_client_steps[c].marks)
        assert _check_first_rule(cj).to_json_dict() == oracle_first_rule(cj) == {
            "check": "first_rule", "satisfied": True}
        assert _check_client_subgraph(cj, j).to_json_dict() == oracle_client_subgraph(cj, j) == {
            "check": "client_subgraph", "satisfied": True}
