"""The ordered state space: a rooted DAG of list states whose edges are
labeled with contextualized operations, kept in order at every vertex.

One class serves both protocols; they differ only in the edge-order
policy. The n-ary space (CJupiter) orders each vertex's edges by the
server serialization order. The 2D space (Jupiter) is the n-ary space
restricted to at most two edges per vertex, one on each side: the owner's
own operations and everyone else's.

A space is single-owner mutable: it is driven by exactly one replica state
machine. It keys each vertex by its set of executed oids, held as an int
bitmask: bit k stands for the k-th oid generated in the run, as an
OidIndex records. Every space and snapshot of a run shares that one
append-only index, so a mask means the same set everywhere in the run,
and oids are decoded only to format output and to order vertices. A
vertex's out-edges are kept as SnapEdge(op, target mask), the encoding its
snapshots use. Checkers work on immutable snapshots taken via snapshot();
each snapshot shares the edge tuple of every vertex that did not change
since the one before it, and every snapshot shares each SnapEdge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

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
    only in the server's stamp. So two SnapEdges are the same edge to the
    structural lemmas exactly when they are equal.
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


_LEFT, _RIGHT = Ord.LEFT, Ord.RIGHT


def compare_ops(op: ProtoOp, op2: ProtoOp, rid: int) -> Ord:
    """Decide the server order between two operations as visible at replica
    rid (0 is the server).

    The server contexts decide when they can; otherwise exactly one of the
    two must be local to a client replica, and the redirected one orders
    first. Any other configuration is unreachable over FIFO channels.
    """
    if op.oid == op2.oid:
        raise ProtocolError("compare_ops needs two distinct operations")
    if op.bit & op2.sctx:
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


class SnapEdge(NamedTuple):
    op: ProtoOp
    target: int


@dataclass(frozen=True)
class CssSnapshot:
    """Immutable copy of a space: per-vertex ordered edge tuples keyed by
    oid mask, the run's oid index, and the policy that ordered them."""

    rid: int
    cur: int
    vertices: Dict[int, Tuple[SnapEdge, ...]]
    index: OidIndex
    two_d: bool = False

    @cached_property
    def order(self) -> List[int]:
        """The vertex masks in vertex_order, every vertex after its
        parents; sorted once per snapshot, since each key decodes a mask."""
        return sorted(self.vertices, key=self.index.vertex_order)

    def first_path(self, start: int) -> List[SnapEdge]:
        """Edges along repeated first-edge hops from start to cur."""
        path: List[SnapEdge] = []
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
            at = edges[0].target
            if len(path) > len(self.vertices):
                raise ProtocolError("first-edge path does not terminate")
        return path


class CssSpace:
    """The mutable ordered state space owned by replica rid.

    Under the n-ary policy compare_ops places each edge, and a walk
    follows the first edge. Under the 2D policy (two_d) a vertex holds at
    most one edge of rid's own operations (local), first, and one of
    everyone else's (global), and a walk follows the edge on the other
    side from the incoming operation. A jupiter client's space is owned by its client
    id; the server keeps one space per client, owned by that client's id.
    The replicas of a run pass the run's OidIndex; a space built without
    one makes its own.
    """

    def __init__(self, rid: int, two_d: bool = False, index: Optional[OidIndex] = None):
        self.rid = rid
        self.two_d = two_d
        self.index = OidIndex() if index is None else index
        self.vertices: Dict[int, List[SnapEdge]] = {0: []}
        self.cur = 0
        self.last_ot_sequence: Tuple[Oid, ...] = ()
        # The vertices of the last snapshot, and the vertices created or
        # given an edge since, in the order they were first touched.
        self._snap: Dict[int, Tuple[SnapEdge, ...]] = {}
        self._touched: Dict[int, List[SnapEdge]] = {0: self.vertices[0]}

    def _new_vertex(self, mask: int) -> int:
        if mask in self.vertices:
            raise ProtocolError(f"vertex {self.index.fmt_oids(mask)} already exists")
        self.vertices[mask] = self._touched[mask] = []
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

    def link(self, u: int, v: int, op: ProtoOp) -> None:
        """Insert the edge (op, v) into u's ordered edge list, where the
        policy puts it.

        Idempotent when an edge with the same oid is already present.
        """
        edges = self.vertices.get(u)
        if edges is None or v not in self.vertices:
            raise ProtocolError(
                f"link: {self.index.fmt_oids(u if edges is None else v)} "
                f"is not a vertex of replica {self.rid}"
            )
        if op.ctx != u:
            raise ProtocolError(f"link: ctx of {op.oid.token()} does not match source vertex")
        if v != u | op.bit:
            raise ProtocolError(f"link: target oids do not extend source by {op.oid.token()}")
        if not edges:
            # Nothing to order against: the fresh vertex of every square.
            edges.append(SnapEdge(op, v))
            self._touched[u] = edges
            return
        # Every edge of op's oid out of u ends at u | op.bit, so a second
        # link of it is the same edge.
        bit = op.bit
        for e in edges:
            if e.op.bit == bit:
                return
        rid = self.rid
        if self.two_d:
            own = op.oid.cid == rid
            for e in edges:
                if (e.op.oid.cid == rid) is own:
                    raise ProtocolError(
                        f"link: {'local' if own else 'global'} edge already occupied at "
                        f"{self.index.fmt_oids(u)}"
                    )
            at = 0 if own else None
        else:
            # compare_ops must be a strict total order on every co-existing
            # edge set, and that is not proved, so it is checked. Only the
            # pairs with the new edge need it: every other pair was checked
            # when the later of its two edges came, compare_ops is pure, and
            # an insert keeps the order of the others. The new edge goes
            # before the first edge it orders LEFT of, and must order RIGHT
            # of every edge before it.
            at = None
            for i, e in enumerate(edges):
                other = e.op
                order = compare_ops(op, other, rid)
                if compare_ops(other, op, rid) is order or (order is _RIGHT and at is not None):
                    raise ProtocolError(
                        f"edge order at replica {rid}: {op.oid.token()} and "
                        f"{other.oid.token()} break a strict total order"
                    )
                if order is _LEFT and at is None:
                    at = i
        edges.insert(len(edges) if at is None else at, SnapEdge(op, v))
        self._touched[u] = edges

    def _walk_edge(self, u: int, op: ProtoOp) -> SnapEdge:
        """The edge out of u that an xform walk of op follows."""
        edges = self.vertices[u]
        if not self.two_d:
            if not edges:
                raise ProtocolError(f"xform: final vertex {self.index.fmt_oids(u)} has no first edge")
            return edges[0]
        own = op.oid.cid == self.rid
        for e in edges:
            if (e.op.oid.cid == self.rid) is not own:
                return e
        raise ProtocolError(
            f"xform: no {'global' if own else 'local'} edge at {self.index.fmt_oids(u)}"
        )

    def xform(self, op: ProtoOp) -> ProtoOp:
        """Transform op along the path the policy walks from its context
        vertex to cur, materializing every intermediate OT square, and
        advance cur.

        The sequence of oids transformed against is kept in
        last_ot_sequence for the structural checkers.
        """
        u = self.locate(op)
        v = self._new_vertex(u | op.bit)
        ot_seq: List[Oid] = []
        cur, walk_edge, new_vertex, link = self.cur, self._walk_edge, self._new_vertex, self.link
        oid, bit, sctx = op.oid, op.bit, op.sctx  # op keeps them along the walk
        while u != cur:
            op2, u2 = walk_edge(u, op)
            o, o2 = op.o, op2.o
            op_t = ProtoOp(transform(o, o2), oid, bit, op.ctx | op2.bit, sctx)
            op2_t = ProtoOp(transform(o2, o), op2.oid, op2.bit, op2.ctx | bit, op2.sctx)
            v2 = new_vertex(v | op2.bit)
            link(v, v2, op2_t)
            link(u, v, op)
            ot_seq.append(op2.oid)
            u, v, op = u2, v2, op_t
        link(u, v, op)
        self.cur = v
        self.last_ot_sequence = tuple(ot_seq)
        return op

    def append(self, op: ProtoOp) -> None:
        """Extend cur with an op generated or transformed to cur (its ctx
        must equal cur)."""
        if op.ctx != self.cur:
            raise ProtocolError(f"appended op {op.oid.token()} not generated at cur")
        v = self._new_vertex(self.cur | op.bit)
        self.link(self.cur, v, op)
        self.cur = v

    def snapshot(self) -> CssSnapshot:
        """Copy the last snapshot's vertex dict and turn into tuples only
        the edge lists of the vertices touched since, so the cost is O(V)
        pointer copies plus the touched edges. New vertices were touched in
        creation order, so the keys keep the order of self.vertices. A
        dict once handed out is never mutated."""
        if self._touched:
            verts = self._snap.copy()
            for mask, edges in self._touched.items():
                verts[mask] = tuple(edges)
            self._snap = verts
            self._touched = {}
        return CssSnapshot(self.rid, self.cur, self._snap, self.index, self.two_d)


def materialize(snapshot: CssSnapshot) -> Dict[int, ListState]:
    """Replay every vertex's list state from the root, and return them in
    vertex_order (the root, the least vertex, first).

    Any in-edge gives the same list (that is the convergence property); all
    of them are replayed and checked to agree.
    """
    states: Dict[int, ListState] = {0: ()}
    in_edges: Dict[int, List[Tuple[int, ProtoOp]]] = {}
    for src, edges in snapshot.vertices.items():
        for e in edges:
            in_edges.setdefault(e.target, []).append((src, e.op))
    for mask in snapshot.order:
        if not mask:
            continue
        candidates = []
        for src, op in in_edges.get(mask, []):
            if src in states:
                candidates.append(apply(states[src], op.o)[0])
        if not candidates:
            raise ProtocolError(f"vertex {snapshot.index.fmt_oids(mask)} unreachable from root")
        if any(c != candidates[0] for c in candidates[1:]):
            raise ProtocolError("replay paths disagree")
        states[mask] = candidates[0]
    return states
