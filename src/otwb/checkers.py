"""Builds abstract executions from traces and decides the list
specifications (convergence, weak, strong) and the structural graph
properties of recorded runs; `verify` is the one pipeline that replays a
schedule and runs them.

All checkers are pure functions over immutable trace snapshots; a Verdict
either confirms a property or carries a minimal witness of its failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import attrgetter, or_
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import simnet
from .css_space import CssSnapshot, Oid, OidIndex, ProtocolError, ProtoOp, StepHistory, materialize
from .ot_core import to_text
from .simnet import OpRecord, RunResult, Schedule, Trace, bit_positions, causal_masks

_tuple_new = tuple.__new__
_value = attrgetter("value")

Elem = Tuple[str, int, int]  # (glyph, origin cid, origin seq); an ot_core.Element is one
Value = Tuple[Elem, ...]


class DoEvent(NamedTuple):
    index: int  # position in H; it hides tuple.index, which nothing calls on an event
    replica: int
    op: OpRecord
    value: Value
    vclock: Tuple[int, ...]

    def is_update(self) -> bool:
        return self.op.kind in ("ins", "del")


@dataclass(frozen=True)
class AbstractExecution:
    """The do-event history H plus the visibility relation over it, held
    as seen[j]: the bitset of the events that event j sees (bit i set when
    (i, j) is in vis). An event's index is its position in H.

    Derived from them, for the checkers: updates, the bitset of the list
    updates in H, and, on first use, lists and list_order.
    vis, the relation as index pairs, is spelled out only when read; no
    checker reads it.
    """

    H: Tuple[DoEvent, ...]
    seen: Tuple[int, ...]
    updates: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.H)
        if any(e.index != p for p, e in enumerate(self.H)):
            raise ValueError("an event's index must be its position in H")
        if len(self.seen) != n:
            raise ValueError(f"{len(self.seen)} visibility masks for the {n} events of H")
        for j, s in enumerate(self.seen):
            if s < 0 or s >> n:
                raise ValueError(f"event {j} sees an event outside H")
        object.__setattr__(self, "updates", sum(1 << e.index for e in self.H if e.is_update()))

    @cached_property
    def vis(self) -> FrozenSet[Tuple[int, int]]:
        """The visibility relation as (i, j) index pairs."""
        return frozenset((i, j) for j, s in enumerate(self.seen) for i in bit_positions(s))

    @cached_property
    def lists(self) -> Tuple[Value, ...]:
        """The distinct returned lists, in the order of their first return."""
        return tuple(dict.fromkeys(map(_value, self.H)))

    @cached_property
    def list_order(self) -> "ListOrder":
        """build_list_order(self), built once for the witnesses of both
        spec checkers; a run that passes them never builds it."""
        return build_list_order(self)


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
    them, which satisfies the visibility axioms by construction. The
    causal masks of H are its seen bitsets; no pair is spelled out."""
    H: List[DoEvent] = []
    for e in trace.events:
        if e.kind == "do":
            # A DoEvent checks nothing, so tuple.__new__ builds it with no frame.
            H.append(_tuple_new(DoEvent, (len(H), e.replica, e.op, e.value or (), e.vclock)))
    A = AbstractExecution(tuple(H), tuple(causal_masks(H)))
    _validate_visibility(A)
    return A


def _validate_visibility(A: AbstractExecution) -> None:
    """Raise ProtocolError unless vis respects history order, contains each
    replica's program order and is transitive, tested in that order on
    the seen bitsets. The first two cost O(|H|) big-int operations.

    Transitivity costs O(|H| n) for n replicas, not O(|vis|): for each
    event j and replica r, with t the latest r-event that j sees, it asks
    that seen[t] be a subset of seen[j]. Once the first two tests pass
    that is enough, by induction over H: t sees r's previous event, which
    by induction sees all of r's earlier events, so every r-event i that j
    sees is t or in seen[t], and seen[i] is a subset of seen[t], so of
    seen[j]."""
    seen = A.seen
    if any(s >> j for j, s in enumerate(seen)):
        raise ProtocolError("visibility must respect history order")
    last: Dict[int, int] = {}
    own: Dict[int, int] = {}  # replica -> bitset of its events
    for e in A.H:
        prev = last.get(e.replica)
        if prev is not None and not seen[e.index] >> prev & 1:
            raise ProtocolError("per-replica order must be visible")
        last[e.replica] = e.index
        own[e.replica] = own.get(e.replica, 0) | 1 << e.index
    for s in seen:
        for events in own.values():
            latest = (s & events).bit_length() - 1
            if latest >= 0 and seen[latest] & ~s:
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
                        "lists": [to_text(value), to_text(e.value)],
                    },
                )
        else:
            groups[key] = (e, e.value)
    return Verdict("convergence", True)


def _distinct_values(A: AbstractExecution) -> Iterator[Tuple[DoEvent, Value]]:
    """(e, e.value) for each distinct returned list, at its first
    occurrence in H."""
    first: Dict[Value, DoEvent] = {}
    for e in A.H:
        first.setdefault(e.value, e)
    return ((e, w) for w, e in first.items())


def _fmt_elem(x: Elem) -> str:
    """An element as witnesses spell it, glyph@cid:seq; a plain triple of a
    hand-built execution too, so not Element.token()."""
    return f"{x[0]}@{x[1]}:{x[2]}"


def build_list_order(A: AbstractExecution) -> ListOrder:
    """Every ordered pair of every returned list; a list returned again
    adds no pair."""
    pairs: Set[Tuple[Elem, Elem]] = set()
    for _, w in _distinct_values(A):
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                pairs.add((w[i], w[j]))
    return ListOrder(frozenset(pairs))


def _shortest_cycle(pairs: Iterable[Tuple[Elem, Elem]]) -> Optional[List[Elem]]:
    """The shortest cycle of the relation, or None: a BFS with parent
    pointers from each element in sorted order stops at the first frontier
    node with an edge back to the start, and a later start wins only with
    a shorter cycle. Sorted, so that the witness does not depend on set
    iteration order (and with it on PYTHONHASHSEED)."""
    adj: Dict[Elem, List[Elem]] = {}
    for a, b in sorted(pairs):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    best: Optional[List[Elem]] = None
    for start in sorted(adj):
        parent: Dict[Elem, Optional[Elem]] = {start: None}
        frontier = [start]
        while frontier:
            end = next((u for u in frontier if start in adj[u]), None)
            if end is not None:
                cycle = [end]
                while parent[cycle[-1]] is not None:
                    cycle.append(parent[cycle[-1]])
                if best is None or len(cycle) < len(best):
                    best = cycle[::-1]
                break
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
    return best


def check_weak_spec(A: AbstractExecution) -> Verdict:
    """The three per-event conditions plus acyclicity of the constructed
    list order. Condition 1a, for any execution: with ins[x] and dels[x]
    the events that insert and delete element x, and m the updates an
    event sees, itself included, the elements inserted and not deleted in
    m are the x with ins[x] & m and not dels[x] & m."""
    ins: Dict[Elem, int] = {}
    dels: Dict[Elem, int] = {}
    for e in A.H:
        if e.op.kind == "ins":
            ins[e.op.element] = ins.get(e.op.element, 0) | 1 << e.index
        elif e.op.kind == "del":
            dels[e.op.element] = dels.get(e.op.element, 0) | 1 << e.index
    bits = [(x, b, dels.get(x, 0)) for x, b in ins.items()]
    for e in A.H:
        m = (A.seen[e.index] | 1 << e.index) & A.updates
        expected = {x for x, b, d in bits if b & m and not d & m}
        got = set(e.value)
        if got != expected:
            return Verdict(
                "weak_spec",
                False,
                {
                    "condition": "1a",
                    "event": e.index,
                    "replica": e.replica,
                    "list": to_text(e.value),
                    "missing": sorted(map(str, expected - got)),
                    "extra": sorted(map(str, got - expected)),
                },
            )
        if e.op.kind == "ins":
            n = len(e.value)
            at = min(e.op.pos, n - 1)
            if n == 0 or e.value[at] != e.op.element:
                return Verdict("weak_spec", False, {"condition": "1c", "event": e.index, "list": to_text(e.value)})
        # 1b holds by construction: build_list_order takes every ordered
        # pair of every returned list, this one included.
    # Condition 2: the list order is irreflexive, and transitive and total
    # on each returned list's elements. Totality holds by construction;
    # transitivity plus irreflexivity on a list fail exactly when some
    # other returned list contradicts its internal order. A list returned
    # again fails exactly as it did at its first occurrence. A list that
    # repeats an element puts both orders of a pair into the list order,
    # so repeats are looked for first, in every list: blamed as a
    # conflict, a repeat would name another list and no second event.
    for e, w in _distinct_values(A):
        if len(set(w)) < len(w):
            x = next(x for i, x in enumerate(w) if x in w[i + 1 :])
            return Verdict("weak_spec", False, {"condition": "2", "event": e.index, "duplicate": str(x)})
    # With no repeat, (y, x) is in the list order exactly when some list
    # holds y before x, so the pair scan fails exactly when some pair is
    # in the order both ways, which is what _orders_conflict decides.
    if not _orders_conflict(A.lists):
        return Verdict("weak_spec", True)
    lo = A.list_order
    for e, w in _distinct_values(A):
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
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
                            "elements": [_fmt_elem(w[i]), _fmt_elem(w[j])],
                            "list": to_text(w),
                        },
                    )
    return Verdict("weak_spec", True)


def _list_order_acyclic(A: AbstractExecution) -> bool:
    """Whether the list order has no cycle, by one Kahn pass over the
    pairs of adjacent elements of the distinct returned lists, in
    O(sum of their lengths). Proof: each pair (w[i], w[j]), i < j, of the
    order is the path w[i], w[i+1], ..., w[j] of adjacent pairs, and each
    adjacent pair is in the order, so the two relations have the same
    transitive closure, and one has a cycle exactly when the other does.
    Kahn's pass orders every element exactly when there is no cycle."""
    edges: Set[Tuple[Elem, Elem]] = set()
    for w in A.lists:
        edges.update(zip(w, w[1:]))
    after: Dict[Elem, List[Elem]] = {}
    waiting: Dict[Elem, int] = {}  # element -> its predecessors not yet ordered
    for a, b in edges:
        after.setdefault(a, []).append(b)
        waiting[b] = waiting.get(b, 0) + 1
    ready = [a for a in after if a not in waiting]
    while ready:
        for b in after.get(ready.pop(), ()):
            waiting[b] -= 1
            if not waiting[b]:
                ready.append(b)
    return not any(waiting.values())


def check_strong_spec(A: AbstractExecution) -> Verdict:
    """A single global list order consistent with every returned list must
    exist and be acyclic; the union order is the only candidate. Unless
    _list_order_acyclic, the shortest cycle of the list order is the
    witness; a cycle that _shortest_cycle cannot find raises ProtocolError."""
    if _list_order_acyclic(A):
        return Verdict("strong_spec", True)
    cycle = _shortest_cycle(A.list_order.pairs)
    if cycle is None:
        raise ProtocolError("strong_spec: the list order has a cycle, but no shortest cycle was found")
    return Verdict(
        "strong_spec",
        False,
        {
            "cycle": [_fmt_elem(x) for x in cycle],
            "elements": sorted(g for g, _, _ in cycle),
        },
    )


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
                                "lists": [to_text(states[i]), to_text(states[j])],
                                "elements": [_fmt_elem(a), _fmt_elem(b)],
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
    for s in dict.fromkeys(states):  # a repeated state adds nothing
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
    return {"event": kind, "oid": oid, "list": to_text(value)}


# --------------------------------------------------------------------------
# Structural checks over state-space snapshots


def _edge_set(snap: CssSnapshot) -> Set[Tuple[int, ProtoOp]]:
    return {(src, e) for src, edges in snap.vertices.items() for e in edges}


class _Graph:
    """Bit-indexed view of a snapshot for the two LCA lemmas: vertex i is
    keys[i], an oid mask, and the keys are in vertex_order."""

    def __init__(self, snap: CssSnapshot):
        self.fmt_oids = snap.index.fmt_oids
        self.keys = snap.order
        idx = {k: i for i, k in enumerate(self.keys)}
        parents: List[List[int]] = [[] for _ in self.keys]
        for src, edges in snap.vertices.items():
            for e in edges:
                t = idx.get(src | e.bit)
                if t is not None:  # a dangling edge fails simple_path
                    parents[t].append(idx[src])
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
            for a in bit_positions(m & ~(1 << v)):
                out[a] |= 1 << v
        return out

    def unique_lca(self, i: int, j: int) -> Tuple[Optional[int], int]:
        common = self.anc[i] & self.anc[j]
        lowest = [c for c in bit_positions(common) if not self.strict_desc[c] & common]
        if len(lowest) == 1:
            return lowest[0], len(lowest)
        return (None, len(lowest))

    @cached_property
    def open_pairs(self) -> List[Tuple[int, int, Optional[int], int]]:
        """(i, j, *unique_lca(i, j)) for the pairs i < j, in order, whose
        unique LCA is not shown to be the vertex c = keys[i] & keys[j].

        If c exists and anc[c] == anc[i] & anc[j], then c is a common
        ancestor and every common ancestor is an ancestor of c, so c is the
        unique LCA; no pair of a correct run needs the scan."""
        masks = self.keys
        at = {m: c for c, m in enumerate(masks)}
        anc = self.anc
        out = []
        for i, (mi, ai) in enumerate(zip(masks, anc)):
            for j in range(i + 1, len(masks)):
                c = at.get(mi & masks[j])
                if c is None or anc[c] != ai & anc[j]:
                    out.append((i, j, *self.unique_lca(i, j)))
        return out


def check_structural(result: RunResult, jupiter_result: Optional[RunResult] = None) -> List[Verdict]:
    """Every structural lemma, checked literally against the recorded
    graphs and the server arrival log. Returns one verdict per lemma.

    result is a cjupiter or djupiter run: a jupiter run keeps no n-ary
    space to check. jupiter_result, if given, is a jupiter run. The two
    runs' vertex masks are compared directly, so jupiter_result must
    replay the same schedule. ValueError otherwise."""
    if result.protocol == "jupiter":
        raise ValueError("check_structural checks a cjupiter or djupiter run; a jupiter run goes in jupiter_result")
    if jupiter_result is not None and jupiter_result.protocol != "jupiter":
        raise ValueError(f"jupiter_result must be a jupiter run, got a {jupiter_result.protocol} run")
    if jupiter_result is not None and (
        jupiter_result.trace.schedule_sha256 != result.trace.schedule_sha256
    ):
        raise ValueError("server_union and client_subgraph need two replays of the same schedule")
    verdicts: List[Verdict] = []
    n = result.schedule.n_clients
    # The lemmas that read only a space give replicas with equal spaces the
    # same verdict, and report the first failing replica in id order; so
    # they check only the first replica holding each space (at quiescence,
    # one replica in all). An edge is its source and its op, and ProtoOp
    # equality is the edge identity.
    distinct: Dict[int, CssSnapshot] = {}
    for rid, snap in sorted(result.css_final.items()):
        if all(snap.vertices != d.vertices for d in distinct.values()):
            distinct[rid] = snap
    graphs = {rid: _Graph(snap) for rid, snap in distinct.items()}

    verdicts.append(_check_out_degree(distinct, n))
    verdicts.append(_check_simple_path(distinct))
    verdicts.append(_check_closure(distinct))
    verdicts.append(_check_first_rule(result))
    verdicts.append(_check_ot_sequence(result))
    verdicts.append(_check_unique_lca(graphs))
    verdicts.append(_check_disjoint_paths(graphs))
    verdicts.append(_check_vertex_compatibility(distinct))
    verdicts.append(_check_isomorphism(result, distinct))
    if jupiter_result is not None:
        verdicts.append(_check_server_union(result, jupiter_result))
        verdicts.append(_check_client_subgraph(result, jupiter_result))
    return verdicts


def _fmt_sorted(masks: Iterable[int], index: OidIndex) -> List[List[str]]:
    """Oid masks as token lists, in the order of their sorted oids."""
    return [[o.token() for o in oids] for oids in sorted(map(index.decode, masks))]


def _check_out_degree(snapshots: Dict[int, CssSnapshot], n: int) -> Verdict:
    for rid, snap in sorted(snapshots.items()):
        for key, edges in snap.vertices.items():
            if len(edges) > n:
                witness = {"replica": rid, "vertex": snap.index.fmt_oids(key), "out_degree": len(edges)}
                return Verdict("nary_out_degree", False, witness)
    return Verdict("nary_out_degree", True)


def _check_simple_path(snapshots: Dict[int, CssSnapshot]) -> Verdict:
    # An edge ends at src | op.bit, so the edge/vertex matching constraints
    # (op's bit not in src, op's context src) force oids to grow by exactly
    # the edge label along every edge, and no path can repeat an oid. An
    # edge must also end at a vertex of the snapshot.
    for rid, snap in sorted(snapshots.items()):
        for src, edges in snap.vertices.items():
            for e in edges:
                target = src | e.bit
                if e.bit & src or target not in snap.vertices or e.ctx != src:
                    fmt = snap.index.fmt_oids
                    witness = {"replica": rid, "vertex": fmt(src), "edge": e.oid.token(), "target": fmt(target)}
                    return Verdict("simple_path", False, witness)
    return Verdict("simple_path", True)


def _check_closure(snapshots: Dict[int, CssSnapshot]) -> Verdict:
    """Square completion: wherever a vertex has two or more children, the
    first edge and each sibling close into the transformed square. An edge
    with the sibling's oid out of the first child ends at the square's
    corner, and so does one with the first's oid out of the sibling child."""
    for rid, snap in sorted(snapshots.items()):
        vertices = snap.vertices
        for src, edges in vertices.items():
            if len(edges) < 2:
                continue
            first = edges[0]
            for other in edges[1:]:
                if src | first.bit | other.bit not in vertices:
                    missing = "vertex"
                # A child that is not a vertex has no edge to close with.
                elif not any(e.oid == other.oid for e in vertices.get(src | first.bit, ())):
                    missing = "edge from first child"
                elif not any(e.oid == first.oid for e in vertices.get(src | other.bit, ())):
                    missing = "edge from sibling child"
                else:
                    continue
                return Verdict("css_closure", False, {
                    "replica": rid, "vertex": snap.index.fmt_oids(src), "first": first.oid.token(),
                    "sibling": other.oid.token(), "missing": missing})
    return Verdict("css_closure", True)


def _check_first_rule(result: RunResult) -> Verdict:
    """After the server's k-th step, the first-edge path from any vertex
    carries exactly the arrived oids missing from it, in arrival order.
    Decided in one pass (_first_rule_holds); a history that it does not
    accept is decided by walking every path of every step."""
    if result.protocol == "djupiter":
        return Verdict("first_rule", True, {"vacuous": "no server space"})
    steps = result.css_server_steps
    if result.protocol == "cjupiter" and not steps:
        return Verdict("first_rule", True, {"vacuous": "no step snapshots recorded"})
    if steps and _first_rule_holds(steps, result.arrival_log):
        return Verdict("first_rule", True)
    for k, snap in enumerate(steps):
        witness = _first_paths_mismatch(snap, result.arrival_log[:k])
        if witness is not None:
            return Verdict("first_rule", False, {"step": k, **witness})
    return Verdict("first_rule", True)


def _first_rule_holds(history: StepHistory, arrivals: Sequence[Oid]) -> bool:
    """Whether every step of the server's history passes the first rule,
    from one pass over its final space. L is the last step, b(x) the birth
    step of vertex x, cur_k the cur of step k, and arrival i is arrivals[i];
    the arrivals below L must be distinct oids of the run, or this returns
    False. f(u) is the first arrival below L that vertex u lacks (L if
    none), so u misses no arrival at a step k <= f(u). It accepts when
    every vertex u meets (A) and (B), which a vertex without edges meets
    only if b(u) = f(u) = L:
    (A) if b(u) <= f(u), then b(u) = f(u) and u = cur_b(u);
    (B) if K0 = max(b(u), f(u) + 1) <= L, u's first final edge carries
        arrival f(u) to t = u | its bit, and b(t) <= K0.
    Proof, at a step k, by induction on how many arrivals a vertex u of
    view k misses. None: k <= f(u), so (A) gives k = b(u) = f(u) and u =
    cur_k. Some: f(u) < k, so K0 <= k and (B) holds. Then t is in view k,
    and the edge to t is u's first edge there, since a view keeps the final
    edge order. t misses what u misses but f(u), the earliest, so by
    induction its path carries the rest in order and ends at cur_k. u is
    not cur_k: first edges lead from u to a vertex of view k that misses
    nothing, which is cur_k, and u misses f(u). So u's path is f(u), then
    t's."""
    final, marks, births = history.final, history.marks, history.births
    last = len(marks) - 1
    seen = arrivals[:last]
    at = {o: i for i, o in enumerate(seen)}
    bit = [final.index.bits.get(o, 0) for o in seen]
    if len(at) != last or not all(bit):
        return False
    held = [0, *accumulate(bit, or_)]  # held[i]: the bits of the first i arrivals
    for u, edges in final.vertices.items():
        b = births[u]
        if not edges:
            if b != last or u != marks[last].cur or held[last] & ~u:
                return False
            continue
        e = edges[0]
        f = at.get(e.oid)
        # f = f(u) if u holds the arrivals before f and lacks f; else (B) fails, or f(u) = L.
        if f is None or held[f] & ~u or u & bit[f]:
            return False
        if b <= f and (b < f or u != marks[f].cur):
            return False
        if e.bit != bit[f] or births.get(u | e.bit, last + 1) > max(b, f + 1):
            return False
    return True


def _first_paths_mismatch(snap: CssSnapshot, seen: Sequence[Oid]) -> Optional[dict]:
    """The literal first-rule scan of one step: walk the first-edge path
    from every vertex and compare it with the arrivals `seen` it misses.
    Returns the first failing vertex's witness, or None."""
    bits = snap.index.bits
    for key in snap.vertices:
        want = [o for o in seen if not key & bits.get(o, 0)]
        try:
            got = [op.oid for op in snap.first_path(key)]
        except ProtocolError as exc:
            return {"vertex": snap.index.fmt_oids(key), "error": str(exc)}
        if got != want:
            return {
                "vertex": snap.index.fmt_oids(key),
                "path": [o.token() for o in got],
                "expected": [o.token() for o in want],
            }
    return None


def _check_ot_sequence(result: RunResult) -> Verdict:
    """At the server, each operation transforms against exactly the earlier
    arrivals concurrent with it, in arrival order. Two operations are
    concurrent when neither do event's causal mask holds the other."""
    if result.protocol == "djupiter":
        return Verdict("ot_sequence", True, {"vacuous": "no server receive"})
    dos = [e for e in result.trace.events if e.kind == "do" and e.op is not None and e.op.oid is not None]
    at = {e.op.oid: p for p, e in enumerate(dos)}
    before = causal_masks(dos)  # before[p]: the do events causally before dos[p]
    arrivals = [o.token() for o in result.arrival_log]
    server_receives = [e for e in result.trace.events if e.kind == "receive" and e.replica == 0]
    for k, e in enumerate(server_receives):
        op_tok = e.op.oid
        # arrivals[:k] were all checked by the arrivals before this one.
        unknown = [tok for tok in (op_tok, *arrivals[k : k + 1]) if tok not in at]
        if unknown:
            return Verdict("ot_sequence", False, {"arrival": k, "oid": unknown[0], "error": "no do event"})
        p = at[op_tok]
        expected = [tok for tok in arrivals[:k] if not (before[p] >> at[tok] & 1 or before[at[tok]] >> p & 1)]
        got = list(e.ot_seq or ())
        if got != expected:
            witness = {"arrival": k, "oid": op_tok, "transformed_against": got, "expected": expected}
            return Verdict("ot_sequence", False, witness)
    return Verdict("ot_sequence", True)


def _check_unique_lca(graphs: Dict[int, _Graph]) -> Verdict:
    for rid, g in sorted(graphs.items()):
        for i, j, lca, count in g.open_pairs:
            if lca is None:
                vertices = [g.fmt_oids(g.keys[i]), g.fmt_oids(g.keys[j])]
                return Verdict("unique_lca", False, {"replica": rid, "vertices": vertices, "lca_count": count})
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
            overlap = g.keys[i] & g.keys[j] & ~base
            if overlap:
                return Verdict("disjoint_lca_paths", False, {
                    "replica": rid, "vertices": [g.fmt_oids(g.keys[i]), g.fmt_oids(g.keys[j])],
                    "lca": g.fmt_oids(base), "overlap": g.fmt_oids(overlap)})
    return Verdict("disjoint_lca_paths", True)


def _check_vertex_compatibility(distinct: Dict[int, CssSnapshot]) -> Verdict:
    # The verdict on a space depends only on the space, so check_structural
    # passes one replica per distinct space.
    for rid, snap in sorted(distinct.items()):
        try:
            states = materialize(snap)
        except ProtocolError as exc:
            return Verdict("vertex_compatibility", False, {"replica": rid, "error": str(exc)})
        # materialize returns the states in vertex_order.
        verdict = check_pairwise_compatibility(list(states.values()))
        if not verdict.satisfied:
            return Verdict("vertex_compatibility", False, {"replica": rid, **(verdict.witness or {})})
    return Verdict("vertex_compatibility", True)


def _check_isomorphism(result: RunResult, distinct: Dict[int, CssSnapshot]) -> Verdict:
    """At quiescence all spaces are the same graph with the same edge
    order and labels. `distinct` holds the first replica of each distinct
    space in id order, so its second is the first replica that differs."""
    if not result.quiescent:
        return Verdict("space_isomorphism", True, {"vacuous": "run not quiescent"})
    if len(distinct) < 2:
        return Verdict("space_isomorphism", True)
    (first, a), (rid, b) = list(distinct.items())[:2]
    base, other, index = a.vertices, b.vertices, a.index
    witness = {
        "replicas": [first, rid],
        "only_first": _fmt_sorted(base.keys() - other.keys(), index),
        "only_second": _fmt_sorted(other.keys() - base.keys(), b.index),
    }
    # Vertices both replicas hold whose ordered, labelled edges differ.
    differ = [k for k in base.keys() & other.keys() if base[k] != other[k]]
    if differ:
        witness["edges_differ"] = [index.fmt_oids(k) for k in sorted(differ, key=index.vertex_order)]
    return Verdict("space_isomorphism", False, witness)


def _check_server_union(result: RunResult, jupiter_result: RunResult) -> Verdict:
    """The union of the server's per-client 2D spaces equals the n-ary
    server space, vertex for vertex and edge for edge."""
    if not (result.quiescent and jupiter_result.quiescent):
        return Verdict("server_union", True, {"vacuous": "run not quiescent"})
    css = result.css_final[0]
    union_vertices: Set[int] = set()
    union_edges: Set[Tuple[int, ProtoOp]] = set()
    union_index = css.index
    for snap in jupiter_result.cscw_server_final.values():
        union_vertices |= snap.vertices.keys()
        union_edges |= _edge_set(snap)
        union_index = snap.index
    css_vertices = set(css.vertices)
    css_edges = _edge_set(css)
    if union_vertices != css_vertices or union_edges != css_edges:
        return Verdict("server_union", False, {
            "vertices_only_union": _fmt_sorted(union_vertices - css_vertices, union_index),
            "vertices_only_css": _fmt_sorted(css_vertices - union_vertices, css.index),
            "edges_only_union": sorted(e.oid.token() for _, e in union_edges - css_edges),
            "edges_only_css": sorted(e.oid.token() for _, e in css_edges - union_edges)})
    return Verdict("server_union", True)


def _check_client_subgraph(result: RunResult, jupiter_result: RunResult) -> Verdict:
    """Per replayed step, each client's 2D space is a subgraph of its
    n-ary space. Decided in one pass (_subgraph_at_every_step); histories
    that it does not accept are compared step by step."""
    steps2d_by_client = jupiter_result.cscw_client_steps
    if not any(result.css_client_steps.values()) and not any(steps2d_by_client.values()):
        return Verdict("client_subgraph", True, {"vacuous": "no step snapshots recorded"})
    for cid, steps2d in sorted(steps2d_by_client.items()):
        steps_nary = result.css_client_steps.get(cid, ())
        if len(steps2d) != len(steps_nary):
            witness = {"client": cid, "steps_2d": len(steps2d), "steps_nary": len(steps_nary)}
            return Verdict("client_subgraph", False, witness)
        if not steps2d or _subgraph_at_every_step(steps2d, steps_nary):
            continue
        for k, (snap2d, snap) in enumerate(zip(steps2d, steps_nary)):
            v2d, v_nary = snap2d.vertices, snap.vertices
            if not v2d.keys() <= v_nary.keys():
                extra = _fmt_sorted(v2d.keys() - v_nary.keys(), snap2d.index)
                return Verdict("client_subgraph", False, {"client": cid, "step": k, "extra_vertices": extra})
            extra = [e.oid.token() for src, edges in v2d.items() for e in edges if e not in v_nary[src]]
            if extra:
                return Verdict("client_subgraph", False, {"client": cid, "step": k, "extra_edges": sorted(extra)})
    return Verdict("client_subgraph", True)


def _subgraph_at_every_step(h2d: StepHistory, h: StepHistory) -> bool:
    """Whether the 2D history h2d is a subgraph of the n-ary history h at
    each of their equally many steps, from one pass over the final spaces.
    b2d and b are the birth steps of the two histories. It accepts when
    every 2D vertex x is an n-ary vertex with b(x) <= b2d(x), and every 2D
    edge ends at a 2D vertex and equals an n-ary edge out of the same
    source. Proof: at step k, a 2D vertex x has b(x) <= b2d(x) <= k, so it
    is in the n-ary view. A 2D edge out of x shown there ends at a vertex t
    with b2d(t) <= k; its equal n-ary edge out of x ends at t too, and b(t)
    <= b2d(t) <= k, so the n-ary view shows it."""
    b2d, b, never = h2d.births, h.births, len(h)
    nary = h.final.vertices
    for x, edges in h2d.final.vertices.items():
        if b.get(x, never) > b2d[x]:
            return False
        for e in edges:
            if x | e.bit not in b2d or e not in nary[x]:
                return False
    return True


# --------------------------------------------------------------------------
# The verify pipeline

CHECKS = ("convergence", "weak", "strong", "compat", "structural", "equivalence")
_SPEC_CHECKS = {
    "convergence": check_convergence,
    "weak": check_weak_spec,
    "strong": check_strong_spec,
    "compat": lambda A: check_pairwise_compatibility([e.value for e in A.H]),
}


class Checked(NamedTuple):
    check: str  # the requested check, one of CHECKS
    protocol: Optional[str]  # the run decided (structural: the first run checked); None for equivalence
    verdict: Verdict


@dataclass(frozen=True)
class Report:
    results: Dict[str, RunResult]  # each replay: the selected protocols a check reads, then companions
    verdicts: Tuple[Checked, ...]  # in request order: by check, then by protocol


def verify(
    schedule: Schedule, checks: Sequence[str] = CHECKS, protocols: Sequence[str] = simnet.PROTOCOLS
) -> Report:
    """Replay the schedule under each selected protocol and decide the checks.
    A spec check decides each selected protocol's abstract execution, built once;
    structural checks cjupiter's spaces against jupiter's when either is selected,
    and djupiter's when it is; equivalence compares cjupiter with jupiter. Only the
    protocols that a check reads are replayed, each once, and checked for FIFO
    delivery (ProtocolError).
    ValueError for an unknown check."""
    for c in checks:
        if c not in CHECKS:
            raise ValueError(f"unknown check {c!r}; pick from {', '.join(CHECKS)}")
    pair = "cjupiter" in protocols or "jupiter" in protocols
    results: Dict[str, RunResult] = {}

    def replay(p: str) -> RunResult:
        if p not in results:
            results[p] = simnet.run(p, schedule)
            simnet.check_fifo(results[p].trace)
        return results[p]

    for p in protocols:
        if any(c != "equivalence" or p != "djupiter" for c in checks):
            replay(p)
    execs: Dict[str, AbstractExecution] = {}
    out: List[Checked] = []
    for check in checks:
        if check in _SPEC_CHECKS:
            for p in protocols:
                if p not in execs:
                    execs[p] = build_abstract_execution(results[p].trace)
                out.append(Checked(check, p, _SPEC_CHECKS[check](execs[p])))
        elif check == "structural":
            runs = [(replay("cjupiter"), replay("jupiter"))] if pair else []
            runs += [(results["djupiter"],)] if "djupiter" in protocols else []
            out += (Checked(check, r[0].protocol, v) for r in runs for v in check_structural(*r))
        else:
            cj, j = replay("cjupiter"), replay("jupiter")
            out.append(Checked(check, None, check_equivalence(cj.trace, j.trace)))
    return Report(results, tuple(out))
