"""The ordered state space: a rooted DAG of list states whose edges are
labeled with contextualized operations, kept in order at every vertex.

One class and one edge rule serve every protocol: compare_ops orders each
vertex's edges by the server serialization order, and a walk follows the
first edge. The 2D space (Jupiter) is that space with at most two edges
per vertex, one of everyone else's operations (global) and one of the
owner's own (local), in that order: no jupiter operation carries a server
stamp, so compare_ops puts the remote one first and rejects two of one
side. Nothing here tells the two apart; dot.css_to_dot is told which
drawing to make.

A space is single-owner mutable: it is driven by exactly one replica state
machine. It keys each vertex by its set of executed oids, held as an int
bitmask: bit k stands for the k-th oid generated in the run, as an
OidIndex records. Every space and snapshot of a run shares that one
append-only index, so a mask means the same set everywhere in the run,
and oids are decoded only to format output and to order vertices. A
vertex's out-edges are its ordered operations: the edge labelled op leads
from src to src | op.bit, as a vertex is the set of oids it has executed.
Checkers work on immutable snapshots taken via snapshot(), which copies
the space's edge lists and shares every operation. A space only grows,
so each of its steps is a prefix of its final space: it records one Mark
(cur, vertex and edge counts) per step, not a copy, and a StepHistory
rebuilds a step's view from the final snapshot when it is read.

A space grows only at cur: append, and the end of xform, add the
operation's edge as the only edge out of cur and move cur along it.
xform makes each OT square in one pass of its walk loop. The loop builds
both transformed operations with tuple.__new__, makes the fresh vertex
with its single edge, and places the operation's edge with _place, which
calls compare_ops once against each existing edge. Every check that
ProtoOp and an edge's ends need is kept: the loop makes the ones its
induction does not settle inline, with their messages.
"""

from __future__ import annotations

import collections.abc
import enum
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .ot_core import ListOp, ListState, apply, transform


class Oid(NamedTuple):
    """Globally unique operation identifier: (client id, sequence number)."""

    cid: int
    seq: int

    def token(self) -> str:
        return f"{self.cid}:{self.seq}"


class ProtocolError(Exception):
    """A protocol integrity violation: broken FIFO, bad context, or an
    edge/vertex constraint that correct runs can never reach."""


class OidIndex:
    """The oids of one run in the order they were generated: bit k of an
    oid mask stands for oids[k]. Append-only, so a mask decodes to the
    same oids at any later time."""

    def __init__(self) -> None:
        self.oids: List[Oid] = []
        self.bits: Dict[Oid, int] = {}

    def bit(self, oid: Oid) -> int:
        """The oid's bit; an oid not seen before gets the next one."""
        bit = self.bits.get(oid)
        if bit is None:
            bit = self.bits[oid] = 1 << len(self.oids)
            self.oids.append(oid)
        return bit

    def decode(self, mask: int) -> List[Oid]:
        """The oids of a mask, sorted."""
        if mask >> len(self.oids):
            raise ProtocolError(f"oid mask {mask:#x} has a bit that no generated oid holds")
        out = []
        while mask:
            low = mask & -mask
            out.append(self.oids[low.bit_length() - 1])
            mask ^= low
        out.sort()
        return out

    def vertex_order(self, mask: int) -> Tuple[int, List[Oid]]:
        """Sort key of vertices: by size, then by sorted oids, so that every
        vertex comes after its parents."""
        oids = self.decode(mask)
        return len(oids), oids

    def fmt_oids(self, mask: int) -> List[str]:
        """An oid mask as tokens in Oid order, for messages and witnesses."""
        return [o.token() for o in self.decode(mask)]


_tuple_new = tuple.__new__


class _ProtoOpFields(NamedTuple):
    o: ListOp
    oid: Oid
    bit: int
    ctx: int = 0
    sctx: int = 0


class ProtoOp(_ProtoOpFields):
    """A protocol operation: the signature plus identity and contexts.

    bit is the oid's bit in the run's OidIndex, and the contexts are oid
    masks. ctx holds the oids causally before the operation (it always
    equals the vertex the operation was generated at or transformed to);
    sctx holds the oids the server had executed before it, stamped by the
    server, and stays empty on locally generated copies and under jupiter.

    A validating NamedTuple; _replace checks the new fields too. Equality
    and hash leave sctx out, because two copies of one operation differ
    only in the server's stamp. So two edges out of one vertex are the
    same edge to the structural lemmas exactly when their ops are equal.
    """

    __slots__ = ()

    def __new__(cls, o: ListOp, oid: Oid, bit: int, ctx: int = 0, sctx: int = 0) -> "ProtoOp":
        if bit <= 0 or bit & (bit - 1):
            raise ProtocolError(f"operation {oid.token()} needs exactly one oid bit")
        if bit & ctx:
            raise ProtocolError(f"operation {oid.token()} lists itself in its context")
        return _tuple_new(cls, (o, oid, bit, ctx, sctx))

    @classmethod
    def _make(cls, iterable) -> "ProtoOp":
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProtoOp):
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, ProtoOp):
            return NotImplemented
        return self[:4] != other[:4]

    def __hash__(self) -> int:
        # Equal operations have equal oids and contexts. Hashing only those
        # skips the Python-level enum hashes inside o.
        return hash((self.oid, self.ctx))

    def label(self) -> str:
        return f"{self.oid.token()} {self.o.sig()}"


class Ord(enum.IntEnum):
    LEFT = -1
    RIGHT = 1


_LEFT = Ord.LEFT


def _order_broken(rid: int, op: ProtoOp, other: ProtoOp) -> ProtocolError:
    return ProtocolError(
        f"edge order at replica {rid}: {op.oid.token()} and "
        f"{other.oid.token()} break a strict total order"
    )


def compare_ops(op: ProtoOp, op2: ProtoOp, rid: int) -> Ord:
    """Decide the server order between two operations as visible at replica
    rid (0 is the server).

    The server contexts decide when they can, and must not each hold the
    other operation. Otherwise exactly one of the two must be local to a
    client replica, and the redirected one orders first. Any other
    configuration is unreachable over FIFO channels. Swapping the
    arguments swaps the two context tests and the local side, so the two
    calls on a pair both raise or return opposite orders.
    """
    if op.oid == op2.oid:
        raise ProtocolError("compare_ops needs two distinct operations")
    if op.bit & op2.sctx:
        if op2.bit & op.sctx:
            raise _order_broken(rid, op, op2)
        return Ord.LEFT
    if op2.bit & op.sctx:
        return Ord.RIGHT
    if rid == 0:
        raise ProtocolError(
            f"server cannot order {op.oid.token()} and {op2.oid.token()}: "
            "both server contexts are silent"
        )
    op_local = op.oid.cid == rid
    op2_local = op2.oid.cid == rid
    if not op_local and op2_local:
        return Ord.LEFT
    if op_local and not op2_local:
        return Ord.RIGHT
    raise ProtocolError(
        f"cannot order {op.oid.token()} and {op2.oid.token()} at replica {rid}: "
        "neither context decides and the pair is not one local, one remote"
    )


@dataclass(frozen=True)
class CssSnapshot:
    """Immutable copy of a space: per-vertex ordered tuples of edge
    operations keyed by oid mask (op's edge out of src ends at
    src | op.bit), and the run's oid index."""

    rid: int
    cur: int
    vertices: Dict[int, Tuple[ProtoOp, ...]]
    index: OidIndex

    @cached_property
    def order(self) -> List[int]:
        """The vertex masks in vertex_order, every vertex after its
        parents; sorted once per snapshot, since each key decodes a mask."""
        return sorted(self.vertices, key=self.index.vertex_order)

    def first_path(self, start: int) -> List[ProtoOp]:
        """The ops of repeated first-edge hops from start to cur."""
        path: List[ProtoOp] = []
        at = start
        while at != self.cur:
            edges = self.vertices.get(at)
            if edges is None:
                fmt = self.index.fmt_oids
                raise ProtocolError(
                    f"first-edge path from {fmt(start)} reaches {fmt(at)}, which is not a vertex"
                )
            if not edges:
                raise ProtocolError(
                    f"first-edge path from {self.index.fmt_oids(start)} stalled before cur"
                )
            path.append(edges[0])
            at |= edges[0].bit
            if len(path) > len(self.vertices):
                raise ProtocolError("first-edge path does not terminate")
        return path


class Mark(NamedTuple):
    """One recorded step of a space: its cur, and how many vertices and
    edges it held."""

    cur: int
    vertices: int
    edges: int


class StepHistory(collections.abc.Sequence):
    """A space's snapshot after each recorded step, held as one Mark per
    step over the final snapshot; a view is rebuilt each time it is read.

    A space keeps its vertices in creation order. Every edge that xform or
    append adds ends at a vertex made by the same call, and an insert
    keeps the order of the other edges. So the view at step k is the first
    marks[k].vertices vertices of the final snapshot, each with its final
    edges in order, less those whose target is a vertex born after step k;
    births checks this premise against the marks' counts."""

    def __init__(self, final: CssSnapshot, marks: Sequence[Mark]):
        self.final, self.marks = final, tuple(marks)

    def __len__(self) -> int:
        return len(self.marks)

    def __getitem__(self, k: int) -> CssSnapshot:  # type: ignore[override]
        k = range(len(self.marks))[operator.index(k)]
        births, (cur, n, _), final = self.births, self.marks[k], self.final
        items = islice(final.vertices.items(), n)
        vertices = {m: tuple(e for e in es if births.get(m | e.bit, 0) <= k) for m, es in items}
        return CssSnapshot(final.rid, cur, vertices, final.index)

    @cached_property
    def births(self) -> Dict[int, int]:
        """Each vertex's birth step, the first step whose view holds it.
        Raises ProtocolError unless the vertex counts never fall and end at
        the final size, and each view shows its mark's count of edges (an
        edge is shown from the later of its two ends' births on)."""
        final, marks, misfit = self.final, self.marks, f"history of replica {self.final.rid}:"
        counts = [m.vertices for m in marks]
        if counts != sorted(counts) or counts[-1:] != [len(final.vertices)] or counts[:1] < [0]:
            raise ProtocolError(f"{misfit} vertex counts {counts} do not grow to {len(final.vertices)}")
        steps = map(repeat, range(len(counts)), map(operator.sub, counts, [0, *counts]))
        births = dict(zip(final.vertices, chain.from_iterable(steps)))
        shown, get = [0] * len(marks), births.get
        for src, edges in final.vertices.items():
            b = births[src]
            for e in edges:
                t = get(src | e.bit, 0)
                shown[t if t > b else b] += 1
        for k, (count, mark) in enumerate(zip(accumulate(shown), marks)):
            if count != mark.edges:
                raise ProtocolError(f"{misfit} step {k} shows {count} edges, but its mark counts {mark.edges}")
        return births


class CssSpace:
    """The mutable ordered state space owned by replica rid.

    compare_ops places each edge, and a walk follows the first edge. A
    jupiter client's space is owned by its client id; the server keeps one
    space per client, owned by that client's id. Their operations carry no
    server stamp, so a vertex holds at most one edge of everyone else's
    operations (global), first, and one of rid's own (local). index is
    the run's OidIndex, which every space of the run shares.
    """

    def __init__(self, rid: int, index: OidIndex):
        self.rid = rid
        self.index = index
        self.vertices: Dict[int, List[ProtoOp]] = {0: []}
        self.cur = 0
        self.n_edges = 0
        self.marks: List[Mark] = [_tuple_new(Mark, (0, 1, 0))]  # the empty space's, then one per step

    def _new_vertex(self, mask: int) -> int:
        if mask in self.vertices:
            raise ProtocolError(f"vertex {self.index.fmt_oids(mask)} already exists")
        self.vertices[mask] = []
        return mask

    def locate(self, op: ProtoOp) -> int:
        """Find the unique vertex matching op's context.

        Absence means a FIFO/channel invariant broke upstream; the space
        never creates the vertex silently.
        """
        if op.ctx not in self.vertices:
            raise ProtocolError(
                f"no vertex matches ctx of {op.oid.token()} at replica {self.rid}: "
                f"{self.index.fmt_oids(op.ctx)}"
            )
        return op.ctx

    def _grow(self, op: ProtoOp, v: int) -> None:
        """Add op's edge as the only edge out of cur, move cur to its
        target v = cur | op.bit, and mark the step. cur never has an edge of
        its own in a replay; vertices is public, so that is checked."""
        edges = self.vertices[self.cur]
        if edges:
            raise ProtocolError(
                f"cur {self.index.fmt_oids(self.cur)} of replica {self.rid} already has an edge"
            )
        edges.append(op)
        self.n_edges += 1
        self.cur = v
        self.marks.append(_tuple_new(Mark, (v, len(self.vertices), self.n_edges)))

    def _place(self, u: int, edges: List[ProtoOp], op: ProtoOp) -> None:
        """Insert op's edge into u's non-empty edge list in compare_ops
        order. None of u's edges has op's bit: u | op.bit is a vertex that
        xform has just made.

        compare_ops must be a strict total order on every co-existing edge
        set, and that is not proved, so it is checked. Only the pairs with
        the new edge need it: every other pair was checked when the later
        of its two edges came, compare_ops is pure and antisymmetric, and
        an insert keeps the order of the others. The new edge goes before
        the first edge it orders LEFT of, and must order RIGHT of every
        edge before it.
        """
        rid, at = self.rid, None
        for i, other in enumerate(edges):
            if compare_ops(op, other, rid) is _LEFT:
                if at is None:
                    at = i
            elif at is not None:
                raise _order_broken(rid, op, other)
        edges.insert(len(edges) if at is None else at, op)
        self.n_edges += 1

    def xform(self, op: ProtoOp) -> Tuple[ProtoOp, Tuple[Oid, ...]]:
        """Transform op along the first-edge path from its context vertex
        to cur, materializing every intermediate OT square, and
        advance cur. Returns op transformed, and the oids it was
        transformed against, in walk order, for the structural checkers.

        Each pass of the loop makes one OT square u -> v -> v2 <- u2 <- u:
        it reads the walk edge op2 out of u, which ends at u2 = u | op2.bit,
        creates the fresh vertex v2 = v | op2.bit, gives v its single edge
        (op2 transformed by op), places op's edge at u, and goes on with op
        transformed by op2, whose context is u2. Both transformed ops are
        built by tuple.__new__. At cur, _grow adds op's last edge.
        """
        u = self.locate(op)
        v = self._new_vertex(u | op.bit)
        vertices, fmt, place = self.vertices, self.index.fmt_oids, self._place
        v_edges = vertices[v]
        cur = self.cur
        o, oid, bit, _, sctx = op
        ot_seq: List[Oid] = []
        # Along the walk op's context is u and v == u | bit, with bit not
        # in u: that holds at the start (op is a valid ProtoOp) and each
        # square adds op2's bit to both. So of the checks that ProtoOp and
        # an edge's ends need, two are left, made inline with their
        # messages: op2's bit is not op's (op transformed would list itself
        # in its context), and op2 transformed has context v. The others
        # hold by construction: op's and op2's bits are single bits of
        # valid ops, v2 extends v by op2's bit, and v, made by this walk,
        # has no edge before the one to v2.
        while u != cur:
            edges = vertices[u]
            if not edges:
                raise ProtocolError(f"xform: final vertex {fmt(u)} has no first edge")
            op2 = edges[0]
            o2, oid2, bit2, ctx2, sctx2 = op2
            u2 = u | bit2
            if u2 not in vertices:
                raise ProtocolError(f"xform: walk from {fmt(u)} reaches {fmt(u2)}, which is not a vertex")
            o_t = transform(o, o2)
            if bit2 & bit:
                raise ProtocolError(f"operation {oid.token()} lists itself in its context")
            op2_t = _tuple_new(ProtoOp, (transform(o2, o), oid2, bit2, ctx2 | bit, sctx2))
            v2 = v | bit2
            if v2 in vertices:
                raise ProtocolError(f"vertex {fmt(v2)} already exists")
            vertices[v2] = v2_edges = []
            if ctx2 | bit != v:
                raise ProtocolError(f"link: ctx of {oid2.token()} does not match source vertex")
            v_edges.append(op2_t)
            place(u, edges, op)
            ot_seq.append(oid2)
            u, v, v_edges, o = u2, v2, v2_edges, o_t
            op = _tuple_new(ProtoOp, (o, oid, bit, u, sctx))
        self.n_edges += len(ot_seq)  # each square's edge out of its fresh vertex
        self._grow(op, v)
        return op, tuple(ot_seq)

    def append(self, op: ProtoOp) -> None:
        """Extend cur with an op generated or transformed to cur (its ctx
        must equal cur)."""
        if op.ctx != self.cur:
            raise ProtocolError(f"appended op {op.oid.token()} not generated at cur")
        self._grow(op, self._new_vertex(self.cur | op.bit))

    def snapshot(self) -> CssSnapshot:
        """A copy of the space, its vertices in creation order."""
        vertices = {mask: tuple(edges) for mask, edges in self.vertices.items()}
        return CssSnapshot(self.rid, self.cur, vertices, self.index)


def materialize(snapshot: CssSnapshot) -> Dict[int, ListState]:
    """Replay every vertex's list state from the root, and return them in
    vertex_order (the root, the least vertex, first).

    Any in-edge gives the same list (that is the convergence property); all
    of them are replayed and checked to agree.
    """
    states: Dict[int, ListState] = {0: ()}
    in_edges: Dict[int, List[Tuple[int, ProtoOp]]] = {}
    for src, edges in snapshot.vertices.items():
        for op in edges:
            in_edges.setdefault(src | op.bit, []).append((src, op))
    for mask in snapshot.order:
        if not mask:
            continue
        candidates = []
        for src, op in in_edges.get(mask, []):
            if src in states:
                candidates.append(apply(states[src], op.o))
        if not candidates:
            raise ProtocolError(f"vertex {snapshot.index.fmt_oids(mask)} unreachable from root")
        if any(c != candidates[0] for c in candidates[1:]):
            raise ProtocolError("replay paths disagree")
        states[mask] = candidates[0]
    return states
