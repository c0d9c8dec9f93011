"""Builds abstract executions from traces and decides the list
specifications (convergence, weak, strong) and the structural graph
properties of recorded runs.

All checkers are pure functions over immutable trace snapshots; a Verdict
either confirms a property or carries a minimal witness of its failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .css_space import CssSnapshot, Oid, OidSet, ProtocolError, materialize
from .jupiter_space import Snapshot2D
from .simnet import OpRecord, RunResult, Trace, causal_pairs, vc_less

Elem = Tuple[str, int, int]  # (glyph, origin cid, origin seq)
Value = Tuple[Elem, ...]


def _text(value: Value) -> str:
    return "".join(v[0] for v in value)


@dataclass(frozen=True)
class DoEvent:
    index: int  # position in H
    replica: int
    op: OpRecord
    value: Value
    vclock: Tuple[int, ...]

    def is_update(self) -> bool:
        return self.op.kind in ("ins", "del")


@dataclass(frozen=True)
class AbstractExecution:
    """The do-event history H plus the visibility relation over it.

    Derived from them, for the checkers: seen[j], the bitset of the events
    that event j sees (bit i set when (i, j) is in vis), and updates, the
    bitset of the list updates in H. An event's index is its position in H.
    """

    H: Tuple[DoEvent, ...]
    vis: FrozenSet[Tuple[int, int]]
    seen: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    updates: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.H)
        if any(e.index != p for p, e in enumerate(self.H)):
            raise ValueError("an event's index must be its position in H")
        seen = [0] * n
        for i, j in self.vis:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"visibility pair {(i, j)} outside H")
            seen[j] |= 1 << i
        object.__setattr__(self, "seen", tuple(seen))
        object.__setattr__(self, "updates", sum(1 << e.index for e in self.H if e.is_update()))


@dataclass(frozen=True)
class ListOrder:
    """Element-precedence pairs induced by every returned list."""

    pairs: FrozenSet[Tuple[Elem, Elem]]


@dataclass(frozen=True)
class Verdict:
    check: str
    satisfied: bool
    witness: Optional[dict] = None

    def to_json_dict(self) -> dict:
        doc: dict = {"check": self.check, "satisfied": self.satisfied}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def build_abstract_execution(trace: Trace) -> AbstractExecution:
    """H = do events in trace order; vis = causally-before restricted to
    them, which satisfies the visibility axioms by construction."""
    H: List[DoEvent] = []
    for e in trace.events:
        if e.kind == "do":
            H.append(DoEvent(len(H), e.replica, e.op, e.value or (), e.vclock))
    A = AbstractExecution(tuple(H), frozenset(causal_pairs(H)))
    _validate_visibility(A)
    return A


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _validate_visibility(A: AbstractExecution) -> None:
    """Raise ProtocolError unless vis respects history order, contains each
    replica's program order and is transitive. Reads the seen bitsets, so
    the cost is O(|vis| * |H| / word)."""
    seen = A.seen
    if any(s >> j for j, s in enumerate(seen)):
        raise ProtocolError("visibility must respect history order")
    last: Dict[int, int] = {}
    for e in A.H:
        prev = last.get(e.replica)
        if prev is not None and not seen[e.index] >> prev & 1:
            raise ProtocolError("per-replica order must be visible")
        last[e.replica] = e.index
    for s in seen:
        for i in _bits(s):
            if seen[i] & ~s:
                raise ProtocolError("visibility must be transitive")


def check_convergence(A: AbstractExecution) -> Verdict:
    """Reads that observe the same set of list updates must return the
    same list. The key is the bitset of the updates a read sees."""
    groups: Dict[int, Tuple[DoEvent, Value]] = {}
    for e in A.H:
        if e.op.kind != "read":
            continue
        key = A.seen[e.index] & A.updates
        if key in groups:
            first, value = groups[key]
            if value != e.value:
                return Verdict(
                    "convergence",
                    False,
                    {
                        "events": [first.index, e.index],
                        "replicas": [first.replica, e.replica],
                        "lists": [_text(value), _text(e.value)],
                    },
                )
        else:
            groups[key] = (e, e.value)
    return Verdict("convergence", True)


def build_list_order(A: AbstractExecution) -> ListOrder:
    pairs: Set[Tuple[Elem, Elem]] = set()
    for e in A.H:
        w = e.value
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                pairs.add((w[i], w[j]))
    return ListOrder(frozenset(pairs))


def _shortest_cycle(pairs: Iterable[Tuple[Elem, Elem]]) -> Optional[List[Elem]]:
    # Sorted, so that the witness does not depend on set iteration order
    # (and with it on PYTHONHASHSEED).
    adj: Dict[Elem, List[Elem]] = {}
    for a, b in sorted(pairs):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    best: Optional[List[Elem]] = None
    for start in sorted(adj):
        # BFS for the shortest path back to start
        frontier = [(start, [start])]
        seen = {start}
        while frontier:
            nxt = []
            for node, path in frontier:
                for succ in adj[node]:
                    if succ == start:
                        cycle = path
                        if best is None or len(cycle) < len(best):
                            best = cycle
                        nxt = []
                        frontier = []
                        break
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append((succ, path + [succ]))
                else:
                    continue
                break
            else:
                frontier = nxt
                continue
            break
    return best


def check_weak_spec(A: AbstractExecution) -> Verdict:
    """The three per-event conditions plus acyclicity of the constructed
    list order."""
    lo = build_list_order(A)
    for e in A.H:
        visible = [A.H[i] for i in _bits((A.seen[e.index] | 1 << e.index) & A.updates)]
        inserted = {u.op.element for u in visible if u.op.kind == "ins"}
        deleted = {u.op.element for u in visible if u.op.kind == "del"}
        expected = inserted - deleted
        got = set(e.value)
        if got != expected:
            return Verdict(
                "weak_spec",
                False,
                {
                    "condition": "1a",
                    "event": e.index,
                    "replica": e.replica,
                    "list": _text(e.value),
                    "missing": sorted(map(str, expected - got)),
                    "extra": sorted(map(str, got - expected)),
                },
            )
        if e.op.kind == "ins":
            n = len(e.value)
            at = min(e.op.pos, n - 1)
            if n == 0 or e.value[at] != e.op.element:
                return Verdict(
                    "weak_spec",
                    False,
                    {"condition": "1c", "event": e.index, "list": _text(e.value)},
                )
        # 1b holds by construction: build_list_order takes every ordered
        # pair of every returned list, this one included.
    # Condition 2: the list order is irreflexive, and transitive and total
    # on each returned list's elements. Totality holds by construction;
    # transitivity plus irreflexivity on a list fail exactly when some
    # other returned list contradicts its internal order.
    for e in A.H:
        w = e.value
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[i] == w[j]:
                    return Verdict(
                        "weak_spec",
                        False,
                        {"condition": "2", "event": e.index, "duplicate": str(w[i])},
                    )
                if (w[j], w[i]) in lo.pairs:
                    other = next(
                        (
                            f.index
                            for f in A.H
                            if w[i] in f.value
                            and w[j] in f.value
                            and f.value.index(w[j]) < f.value.index(w[i])
                        ),
                        None,
                    )
                    return Verdict(
                        "weak_spec",
                        False,
                        {
                            "condition": "2",
                            "events": [e.index, other],
                            "elements": [
                                f"{w[i][0]}@{w[i][1]}:{w[i][2]}",
                                f"{w[j][0]}@{w[j][1]}:{w[j][2]}",
                            ],
                            "list": _text(w),
                        },
                    )
    return Verdict("weak_spec", True)


def check_strong_spec(A: AbstractExecution) -> Verdict:
    """A single global list order consistent with every returned list must
    exist and be acyclic; the union order is the only candidate."""
    lo = build_list_order(A)
    cycle = _shortest_cycle(lo.pairs)
    if cycle is not None:
        return Verdict(
            "strong_spec",
            False,
            {
                "cycle": [f"{g}@{c}:{s}" for g, c, s in cycle],
                "elements": sorted(g for g, _, _ in cycle),
            },
        )
    return Verdict("strong_spec", True)


def check_pairwise_compatibility(states: Sequence[Value]) -> Verdict:
    """Every pair of list states must agree on the relative order of their
    common elements. Decided by `_orders_conflict` in O(sum of lengths)
    bitset operations; only a conflict runs the pair scan, which finds the
    first witness."""
    states = list(states)
    if not _orders_conflict(states):
        return Verdict("pairwise_compatibility", True)
    for i in range(len(states)):
        pos1 = {e: k for k, e in enumerate(states[i])}
        for j in range(i + 1, len(states)):
            pos2 = {e: k for k, e in enumerate(states[j])}
            common = [e for e in states[i] if e in pos2]
            for x in range(len(common)):
                for y in range(x + 1, len(common)):
                    a, b = common[x], common[y]
                    if (pos1[a] < pos1[b]) != (pos2[a] < pos2[b]):
                        return Verdict(
                            "pairwise_compatibility",
                            False,
                            {
                                "lists": [_text(states[i]), _text(states[j])],
                                "elements": [f"{a[0]}@{a[1]}:{a[2]}", f"{b[0]}@{b[1]}:{b[2]}"],
                            },
                        )
    return Verdict("pairwise_compatibility", True)


def _orders_conflict(states: Sequence[Value]) -> bool:
    """Whether the union of the states' precedence relations holds some
    pair in both directions, which two states must then disagree on. As in
    the pair scan, an element repeated within a state counts at its last
    position."""
    ids: Dict[Elem, int] = {}
    before: List[int] = []  # before[x]: bitset of elements some state lists before x
    after: List[int] = []  # after[x]: bitset of elements some state lists after x
    for s in states:
        last = {e: k for k, e in enumerate(s)}
        seq = []
        for k, e in enumerate(s):
            if last[e] == k:
                x = ids.get(e)
                if x is None:
                    x = ids[e] = len(before)
                    before.append(0)
                    after.append(0)
                seq.append(x)
        seen = 0
        for x in seq:
            before[x] |= seen
            seen |= 1 << x
        for x in seq:
            seen ^= 1 << x
            after[x] |= seen
    return any(b & a for b, a in zip(before, after))


def check_equivalence(trace_a: Trace, trace_b: Trace) -> Verdict:
    """Per replica, the sequences of (do/receive event, resulting list)
    must match between the two runs of the same schedule."""
    if trace_a.schedule_sha256 != trace_b.schedule_sha256:
        raise ValueError("equivalence needs two replays of the same schedule")

    def per_replica(trace: Trace) -> Dict[int, List[Tuple[str, Optional[str], Value]]]:
        out: Dict[int, List[Tuple[str, Optional[str], Value]]] = {}
        for e in trace.events:
            if e.kind in ("do", "receive"):
                oid = e.op.oid if e.op else None
                out.setdefault(e.replica, []).append((e.kind, oid, e.value or ()))
        return out

    sa, sb = per_replica(trace_a), per_replica(trace_b)
    for r in sorted(set(sa) | set(sb)):
        ea, eb = sa.get(r, []), sb.get(r, [])
        for k in range(max(len(ea), len(eb))):
            va = ea[k] if k < len(ea) else None
            vb = eb[k] if k < len(eb) else None
            if va != vb:
                return Verdict(
                    "equivalence",
                    False,
                    {
                        "replica": r,
                        "step": k,
                        trace_a.protocol: _fmt_step(va),
                        trace_b.protocol: _fmt_step(vb),
                    },
                )
    return Verdict("equivalence", True)


def _fmt_step(step) -> Optional[dict]:
    if step is None:
        return None
    kind, oid, value = step
    return {"event": kind, "oid": oid, "list": _text(value)}


# --------------------------------------------------------------------------
# Structural checks over state-space snapshots


def _sig(op_record_like) -> Tuple:
    o = op_record_like
    elem = None
    if o.element is not None:
        elem = (o.element.glyph, o.element.origin_cid, o.element.origin_seq)
    return (o.kind.value, elem, o.position)


def _css_edge_set(snap: CssSnapshot) -> Set[Tuple[OidSet, Oid, OidSet, Tuple]]:
    return {
        (src, e.op.oid, e.target, _sig(e.op.o))
        for src, edges in snap.vertices.items()
        for e in edges
    }


def _cscw_edge_set(snap: Snapshot2D) -> Set[Tuple[OidSet, Oid, OidSet, Tuple]]:
    out = set()
    for src, pair in snap.vertices.items():
        for e in pair:
            if e is not None:
                out.add((src, e.op.oid, e.target, _sig(e.op.o)))
    return out


# vertex -> its out-edges in order, as (oid, label, target)
Shape = Dict[OidSet, Tuple[Tuple[Oid, Tuple, OidSet], ...]]


def _shape(snap: CssSnapshot) -> Shape:
    return {
        key: tuple((e.op.oid, _sig(e.op.o), e.target) for e in edges)
        for key, edges in snap.vertices.items()
    }


def _fmt_oids(oids: OidSet) -> List[str]:
    return [o.token() for o in sorted(oids)]


class _Graph:
    """Bit-indexed view of a snapshot for the two LCA lemmas."""

    def __init__(self, snap: CssSnapshot):
        self.keys = sorted(snap.vertices, key=lambda s: (len(s), sorted(s)))
        idx = {k: i for i, k in enumerate(self.keys)}
        parents: List[List[int]] = [[] for _ in self.keys]
        for src, edges in snap.vertices.items():
            for e in edges:
                parents[idx[e.target]].append(idx[src])
        # reflexive ancestor masks, computed in |oids| order (parents first)
        self.anc = [0] * len(self.keys)
        for i, ps in enumerate(parents):
            mask = 1 << i
            for p in ps:
                mask |= self.anc[p]
            self.anc[i] = mask

    @cached_property
    def strict_desc(self) -> List[int]:
        """Which vertices have i as a proper ancestor."""
        out = [0] * len(self.keys)
        for v, m in enumerate(self.anc):
            for a in _bits(m & ~(1 << v)):
                out[a] |= 1 << v
        return out

    def unique_lca(self, i: int, j: int) -> Tuple[Optional[int], int]:
        common = self.anc[i] & self.anc[j]
        lowest = [c for c in _bits(common) if not self.strict_desc[c] & common]
        if len(lowest) == 1:
            return lowest[0], len(lowest)
        return (None, len(lowest))

    @cached_property
    def open_pairs(self) -> List[Tuple[int, int, Optional[int], int]]:
        """(i, j, *unique_lca(i, j)) for the pairs i < j, in order, whose
        unique LCA is not shown to be the vertex c = keys[i] & keys[j].

        If c exists and anc[c] == anc[i] & anc[j], then c is a common
        ancestor and every common ancestor is an ancestor of c, so c is the
        unique LCA; no pair of a correct run needs the scan. Oid sets are
        compared as bitmasks."""
        bit = {o: 1 << k for k, o in enumerate(set().union(*self.keys))}
        masks = [sum(bit[o] for o in key) for key in self.keys]
        at = {m: c for c, m in enumerate(masks)}
        anc = self.anc
        out = []
        for i, (mi, ai) in enumerate(zip(masks, anc)):
            for j in range(i + 1, len(masks)):
                c = at.get(mi & masks[j])
                if c is None or anc[c] != ai & anc[j]:
                    out.append((i, j, *self.unique_lca(i, j)))
        return out


def _shared_graphs(snapshots: Dict[int, CssSnapshot]) -> Dict[int, _Graph]:
    """One _Graph per replica. A graph depends only on the vertices and the
    edges' endpoints, so replicas holding the same space (all of them, at
    quiescence) share one graph and with it the pair scan."""
    graphs: Dict[int, _Graph] = {}
    by_shape: Dict[tuple, _Graph] = {}
    for rid, snap in snapshots.items():
        shape = (
            frozenset(snap.vertices),
            frozenset((src, e.target) for src, edges in snap.vertices.items() for e in edges),
        )
        if shape not in by_shape:
            by_shape[shape] = _Graph(snap)
        graphs[rid] = by_shape[shape]
    return graphs


def check_structural(result: RunResult, jupiter_result: Optional[RunResult] = None) -> List[Verdict]:
    """Every structural lemma, checked literally against the recorded
    graphs and the server arrival log. Returns one verdict per lemma."""
    verdicts: List[Verdict] = []
    snapshots = dict(result.css_final)
    n = result.schedule.n_clients
    graphs = _shared_graphs(snapshots)
    shapes = {rid: _shape(snap) for rid, snap in snapshots.items()}

    verdicts.append(_check_out_degree(snapshots, n))
    verdicts.append(_check_simple_path(snapshots))
    verdicts.append(_check_closure(snapshots))
    verdicts.append(_check_first_rule(result))
    verdicts.append(_check_ot_sequence(result))
    verdicts.append(_check_unique_lca(graphs))
    verdicts.append(_check_disjoint_paths(graphs))
    verdicts.append(_check_vertex_compatibility(snapshots, shapes))
    verdicts.append(_check_isomorphism(result, shapes))
    if jupiter_result is not None:
        verdicts.append(_check_server_union(result, jupiter_result))
        verdicts.append(_check_client_subgraph(result, jupiter_result))
    return verdicts


def _check_out_degree(snapshots: Dict[int, CssSnapshot], n: int) -> Verdict:
    for rid, snap in sorted(snapshots.items()):
        for key, edges in snap.vertices.items():
            if len(edges) > n:
                return Verdict(
                    "nary_out_degree",
                    False,
                    {"replica": rid, "vertex": _fmt_oids(key), "out_degree": len(edges)},
                )
    return Verdict("nary_out_degree", True)


def _check_simple_path(snapshots: Dict[int, CssSnapshot]) -> Verdict:
    # The edge/vertex matching constraints force oids to grow by exactly
    # the edge label along every edge, so no path can repeat an oid.
    for rid, snap in sorted(snapshots.items()):
        for src, edges in snap.vertices.items():
            for e in edges:
                if e.op.oid in src or e.target != src | {e.op.oid} or e.op.ctx != src:
                    return Verdict(
                        "simple_path",
                        False,
                        {
                            "replica": rid,
                            "vertex": _fmt_oids(src),
                            "edge": e.op.oid.token(),
                            "target": _fmt_oids(e.target),
                        },
                    )
    return Verdict("simple_path", True)


def _check_closure(snapshots: Dict[int, CssSnapshot]) -> Verdict:
    """Square completion: wherever a vertex has two or more children, the
    first edge and each sibling close into the transformed square."""
    for rid, snap in sorted(snapshots.items()):
        for src, edges in snap.vertices.items():
            if len(edges) < 2:
                continue
            first = edges[0]
            for other in edges[1:]:
                target_oids = src | {first.op.oid, other.op.oid}
                witness = {
                    "replica": rid,
                    "vertex": _fmt_oids(src),
                    "first": first.op.oid.token(),
                    "sibling": other.op.oid.token(),
                }
                if target_oids not in snap.vertices:
                    return Verdict("css_closure", False, {**witness, "missing": "vertex"})
                via_first = [
                    e for e in snap.vertices[first.target] if e.op.oid == other.op.oid
                ]
                via_other = [
                    e for e in snap.vertices[other.target] if e.op.oid == first.op.oid
                ]
                if not any(e.target == target_oids for e in via_first):
                    return Verdict("css_closure", False, {**witness, "missing": "edge from first child"})
                if not any(e.target == target_oids for e in via_other):
                    return Verdict("css_closure", False, {**witness, "missing": "edge from sibling child"})
    return Verdict("css_closure", True)


def _check_first_rule(result: RunResult) -> Verdict:
    """After the server's k-th step, the first-edge path from any vertex
    carries exactly the arrived oids missing from it, in arrival order."""
    arrivals = result.arrival_log
    for k, snap in enumerate(result.css_server_steps):
        seen = list(arrivals[:k])
        for key in snap.vertices:
            want = [o for o in seen if o not in key]
            try:
                got = [e.op.oid for e in snap.first_path(key)]
            except ProtocolError as exc:
                return Verdict(
                    "first_rule",
                    False,
                    {"step": k, "vertex": _fmt_oids(key), "error": str(exc)},
                )
            if got != want:
                return Verdict(
                    "first_rule",
                    False,
                    {
                        "step": k,
                        "vertex": _fmt_oids(key),
                        "path": [o.token() for o in got],
                        "expected": [o.token() for o in want],
                    },
                )
    return Verdict("first_rule", True)


def _check_ot_sequence(result: RunResult) -> Verdict:
    """At the server, each operation transforms against exactly the earlier
    arrivals concurrent with it, in arrival order."""
    do_vc: Dict[str, Tuple[int, ...]] = {}
    for e in result.trace.events:
        if e.kind == "do" and e.op is not None and e.op.oid is not None:
            do_vc[e.op.oid] = e.vclock
    arrivals = [o.token() for o in result.arrival_log]
    server_receives = [
        e for e in result.trace.events if e.kind == "receive" and e.replica == 0
    ]
    for k, e in enumerate(server_receives):
        op_tok = e.op.oid
        expected = [
            tok
            for tok in arrivals[:k]
            if not vc_less(do_vc[tok], do_vc[op_tok]) and not vc_less(do_vc[op_tok], do_vc[tok])
        ]
        got = list(e.ot_seq or ())
        if got != expected:
            return Verdict(
                "ot_sequence",
                False,
                {"arrival": k, "oid": op_tok, "transformed_against": got, "expected": expected},
            )
    return Verdict("ot_sequence", True)


def _check_unique_lca(graphs: Dict[int, _Graph]) -> Verdict:
    for rid, g in sorted(graphs.items()):
        for i, j, lca, count in g.open_pairs:
            if lca is None:
                return Verdict(
                    "unique_lca",
                    False,
                    {
                        "replica": rid,
                        "vertices": [_fmt_oids(g.keys[i]), _fmt_oids(g.keys[j])],
                        "lca_count": count,
                    },
                )
    return Verdict("unique_lca", True)


def _check_disjoint_paths(graphs: Dict[int, _Graph]) -> Verdict:
    # Along any path the oids picked up are exactly the target-minus-source
    # difference, so path disjointness reduces to set disjointness. A pair
    # whose LCA is a & b has disjoint differences, so only the open pairs
    # can fail; on general graphs they can even when the LCA is unique.
    for rid, g in sorted(graphs.items()):
        for i, j, lca, _ in g.open_pairs:
            if lca is None:
                continue  # reported by unique_lca
            base = g.keys[lca]
            left = g.keys[i] - base
            right = g.keys[j] - base
            overlap = left & right
            if overlap:
                return Verdict(
                    "disjoint_lca_paths",
                    False,
                    {
                        "replica": rid,
                        "vertices": [_fmt_oids(g.keys[i]), _fmt_oids(g.keys[j])],
                        "lca": _fmt_oids(base),
                        "overlap": _fmt_oids(overlap),
                    },
                )
    return Verdict("disjoint_lca_paths", True)


def _check_vertex_compatibility(snapshots: Dict[int, CssSnapshot], shapes: Dict[int, Shape]) -> Verdict:
    # The verdict on a space depends only on its shape, so each distinct
    # shape is checked once, at the first replica in id order that holds it.
    checked = set()
    for rid, snap in sorted(snapshots.items()):
        key = frozenset(shapes[rid].items())
        if key in checked:
            continue
        checked.add(key)
        try:
            states = materialize(snap)
        except ProtocolError as exc:
            return Verdict(
                "vertex_compatibility", False, {"replica": rid, "error": str(exc)}
            )
        values = [
            tuple((e.glyph, e.origin_cid, e.origin_seq) for e in states[k])
            for k in sorted(states, key=lambda s: (len(s), sorted(s)))
        ]
        verdict = check_pairwise_compatibility(values)
        if not verdict.satisfied:
            return Verdict(
                "vertex_compatibility",
                False,
                {"replica": rid, **(verdict.witness or {})},
            )
    return Verdict("vertex_compatibility", True)


def _check_isomorphism(result: RunResult, shapes: Dict[int, Shape]) -> Verdict:
    """At quiescence all spaces are the same graph with the same edge
    order and labels."""
    if not result.quiescent:
        return Verdict("space_isomorphism", True, {"vacuous": "run not quiescent"})
    rids = sorted(shapes)
    base = shapes[rids[0]]
    for rid in rids[1:]:
        if shapes[rid] != base:
            only_base = set(base) - set(shapes[rid])
            only_other = set(shapes[rid]) - set(base)
            return Verdict(
                "space_isomorphism",
                False,
                {
                    "replicas": [rids[0], rid],
                    "only_first": [_fmt_oids(k) for k in sorted(only_base, key=sorted)],
                    "only_second": [_fmt_oids(k) for k in sorted(only_other, key=sorted)],
                },
            )
    return Verdict("space_isomorphism", True)


def _check_server_union(result: RunResult, jupiter_result: RunResult) -> Verdict:
    """The union of the server's per-client 2D spaces equals the n-ary
    server space, vertex for vertex and edge for edge."""
    if not (result.quiescent and jupiter_result.quiescent):
        return Verdict("server_union", True, {"vacuous": "run not quiescent"})
    css = result.css_final[0]
    union_vertices: Set[OidSet] = set()
    union_edges: Set[Tuple[OidSet, Oid, OidSet, Tuple]] = set()
    for snap in jupiter_result.cscw_server_final.values():
        union_vertices |= set(snap.vertices)
        union_edges |= _cscw_edge_set(snap)
    css_vertices = set(css.vertices)
    css_edges = _css_edge_set(css)
    if union_vertices != css_vertices or union_edges != css_edges:
        return Verdict(
            "server_union",
            False,
            {
                "vertices_only_union": [_fmt_oids(k) for k in sorted(union_vertices - css_vertices, key=sorted)],
                "vertices_only_css": [_fmt_oids(k) for k in sorted(css_vertices - union_vertices, key=sorted)],
                "edges_only_union": sorted(str(e[1].token()) for e in union_edges - css_edges),
                "edges_only_css": sorted(str(e[1].token()) for e in css_edges - union_edges),
            },
        )
    return Verdict("server_union", True)


def _check_client_subgraph(result: RunResult, jupiter_result: RunResult) -> Verdict:
    """Per replayed step, each client's 2D space is a subgraph of its
    n-ary space."""
    for cid, steps2d in sorted(jupiter_result.cscw_client_steps.items()):
        steps_nary = result.css_client_steps.get(cid, ())
        if len(steps2d) != len(steps_nary):
            return Verdict(
                "client_subgraph",
                False,
                {"client": cid, "steps_2d": len(steps2d), "steps_nary": len(steps_nary)},
            )
        for k, (snap2d, snap) in enumerate(zip(steps2d, steps_nary)):
            if not set(snap2d.vertices) <= set(snap.vertices):
                return Verdict(
                    "client_subgraph",
                    False,
                    {
                        "client": cid,
                        "step": k,
                        "extra_vertices": [
                            _fmt_oids(v) for v in sorted(set(snap2d.vertices) - set(snap.vertices), key=sorted)
                        ],
                    },
                )
            extra = _cscw_edge_set(snap2d) - _css_edge_set(snap)
            if extra:
                return Verdict(
                    "client_subgraph",
                    False,
                    {
                        "client": cid,
                        "step": k,
                        "extra_edges": sorted(e[1].token() for e in extra),
                    },
                )
    return Verdict("client_subgraph", True)
