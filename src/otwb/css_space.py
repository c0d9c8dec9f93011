"""The ordered state space: a rooted DAG of list states whose edges are
labeled with contextualized operations, kept in order at every vertex.

One class serves both protocols; they differ only in the edge-order
policy. The n-ary space (CJupiter) orders each vertex's edges by the
server serialization order. The 2D space (Jupiter) is the n-ary space
restricted to at most two edges per vertex, one on each side: the owner's
own operations and everyone else's.

A space is single-owner mutable: it is driven by exactly one replica state
machine. It keys each vertex by its set of executed oids and keeps the
vertex's out-edges as SnapEdge(op, target oid set), the encoding its
snapshots use. Checkers work on immutable snapshots taken via snapshot();
each snapshot shares the edge tuple of every vertex that did not change
since the one before it, and every snapshot shares each SnapEdge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .ot_core import ListOp, ListState, apply, transform


class Oid(NamedTuple):
    """Globally unique operation identifier: (client id, sequence number)."""

    cid: int
    seq: int

    def token(self) -> str:
        return f"{self.cid}:{self.seq}"


OidSet = FrozenSet[Oid]

EMPTY_OIDS: OidSet = frozenset()


class ProtocolError(Exception):
    """A protocol integrity violation: broken FIFO, bad context, or an
    edge/vertex constraint that correct runs can never reach."""


@dataclass(frozen=True)
class ProtoOp:
    """A protocol operation: the signature plus identity and contexts.

    ctx holds the oids causally before the operation (it always equals the
    oids of the vertex the operation was generated at or transformed to);
    sctx holds the oids the server had executed before it, stamped by the
    server, and stays empty on locally generated copies and under jupiter.
    """

    o: ListOp
    oid: Oid
    ctx: OidSet = EMPTY_OIDS
    sctx: OidSet = EMPTY_OIDS

    def __post_init__(self) -> None:
        if self.oid in self.ctx:
            raise ProtocolError(f"operation {self.oid.token()} lists itself in its context")

    def label(self) -> str:
        return f"{self.oid.token()} {self.o.sig()}"


class Ord(enum.IntEnum):
    LEFT = -1
    RIGHT = 1


def compare_ops(op: ProtoOp, op2: ProtoOp, rid: int) -> Ord:
    """Decide the server order between two operations as visible at replica
    rid (0 is the server).

    The server contexts decide when they can; otherwise exactly one of the
    two must be local to a client replica, and the redirected one orders
    first. Any other configuration is unreachable over FIFO channels.
    """
    if op.oid == op2.oid:
        raise ProtocolError("compare_ops needs two distinct operations")
    if op.oid in op2.sctx:
        return Ord.LEFT
    if op2.oid in op.sctx:
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
    target: OidSet


@dataclass(frozen=True)
class CssSnapshot:
    """Immutable copy of a space: per-vertex ordered edge tuples, and the
    policy that ordered them."""

    rid: int
    cur: OidSet
    vertices: Dict[OidSet, Tuple[SnapEdge, ...]]
    two_d: bool = False

    def first_path(self, start: OidSet) -> List[SnapEdge]:
        """Edges along repeated first-edge hops from start to cur."""
        path: List[SnapEdge] = []
        at = start
        while at != self.cur:
            edges = self.vertices.get(at)
            if edges is None:
                raise ProtocolError(
                    f"first-edge path from {fmt_oids(start)} reaches "
                    f"{fmt_oids(at)}, which is not a vertex"
                )
            if not edges:
                raise ProtocolError(f"first-edge path from {fmt_oids(start)} stalled before cur")
            path.append(edges[0])
            at = edges[0].target
            if len(path) > len(self.vertices):
                raise ProtocolError("first-edge path does not terminate")
        return path


def vertex_order(oids: OidSet) -> Tuple[int, List[Oid]]:
    """Sort key of vertices: by size, then by sorted oids, so that every
    vertex comes after its parents."""
    return len(oids), sorted(oids)


def fmt_oids(oids: OidSet) -> List[str]:
    """An oid set as tokens in Oid order, for messages and witnesses."""
    return [o.token() for o in sorted(oids)]


class CssSpace:
    """The mutable ordered state space owned by replica rid.

    Under the n-ary policy compare_ops places each edge, and a walk
    follows the first edge. Under the 2D policy (two_d) a vertex holds at
    most one edge of rid's own operations (local), first, and one of
    everyone else's (global), and a walk follows the edge on the other
    side from the incoming operation. A jupiter client's space is owned by its client
    id; the server keeps one space per client, owned by that client's id.
    """

    def __init__(self, rid: int, two_d: bool = False):
        self.rid = rid
        self.two_d = two_d
        self.vertices: Dict[OidSet, List[SnapEdge]] = {EMPTY_OIDS: []}
        self.cur: OidSet = EMPTY_OIDS
        self.last_ot_sequence: Tuple[Oid, ...] = ()
        # The vertices of the last snapshot, and the vertices created or
        # given an edge since, in the order they were first touched.
        self._snap: Dict[OidSet, Tuple[SnapEdge, ...]] = {}
        self._touched: Dict[OidSet, List[SnapEdge]] = {EMPTY_OIDS: self.vertices[EMPTY_OIDS]}

    def _new_vertex(self, oids: OidSet) -> OidSet:
        if oids in self.vertices:
            raise ProtocolError(f"vertex {fmt_oids(oids)} already exists")
        self.vertices[oids] = self._touched[oids] = []
        return oids

    def locate(self, op: ProtoOp) -> OidSet:
        """Find the unique vertex matching op's context.

        Absence means a FIFO/channel invariant broke upstream; the space
        never creates the vertex silently.
        """
        if op.ctx not in self.vertices:
            raise ProtocolError(
                f"no vertex matches ctx of {op.oid.token()} at replica {self.rid}: "
                f"{fmt_oids(op.ctx)}"
            )
        return op.ctx

    def link(self, u: OidSet, v: OidSet, op: ProtoOp) -> None:
        """Insert the edge (op, v) into u's ordered edge list, where the
        policy puts it.

        Idempotent when an edge with the same oid is already present.
        """
        edges = self.vertices.get(u)
        if edges is None or v not in self.vertices:
            raise ProtocolError(
                f"link: {fmt_oids(u if edges is None else v)} is not a vertex of replica {self.rid}"
            )
        if op.ctx != u:
            raise ProtocolError(f"link: ctx of {op.oid.token()} does not match source vertex")
        # op.oid is not in op.ctx (ProtoOp checks that), so v extends u by
        # op.oid exactly when it is one larger, holds op.oid and contains
        # u. Unlike comparing with u | {op.oid}, this builds no set.
        if len(v) != len(u) + 1 or op.oid not in v or not u < v:
            raise ProtocolError(f"link: target oids do not extend source by {op.oid.token()}")
        for e in edges:
            if e.op.oid == op.oid:
                if e.target != v:
                    raise ProtocolError(f"link: {op.oid.token()} already linked to a different vertex")
                return
        if self.two_d:
            own = op.oid.cid == self.rid
            for e in edges:
                if (e.op.oid.cid == self.rid) is own:
                    raise ProtocolError(
                        f"link: {'local' if own else 'global'} edge already occupied at "
                        f"{fmt_oids(u)}"
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
                order = compare_ops(op, e.op, self.rid)
                if compare_ops(e.op, op, self.rid) is order or (order is Ord.RIGHT and at is not None):
                    raise ProtocolError(
                        f"edge order at replica {self.rid}: {op.oid.token()} and "
                        f"{e.op.oid.token()} break a strict total order"
                    )
                if order is Ord.LEFT and at is None:
                    at = i
        edges.insert(len(edges) if at is None else at, SnapEdge(op, v))
        self._touched[u] = edges

    def _walk_edge(self, u: OidSet, op: ProtoOp) -> SnapEdge:
        """The edge out of u that an xform walk of op follows."""
        edges = self.vertices[u]
        if not self.two_d:
            if not edges:
                raise ProtocolError(f"xform: final vertex {fmt_oids(u)} has no first edge")
            return edges[0]
        own = op.oid.cid == self.rid
        for e in edges:
            if (e.op.oid.cid == self.rid) is not own:
                return e
        raise ProtocolError(
            f"xform: no {'global' if own else 'local'} edge at {fmt_oids(u)}"
        )

    def xform(self, op: ProtoOp) -> ProtoOp:
        """Transform op along the path the policy walks from its context
        vertex to cur, materializing every intermediate OT square, and
        advance cur.

        The sequence of oids transformed against is kept in
        last_ot_sequence for the structural checkers.
        """
        u = self.locate(op)
        v = self._new_vertex(u | {op.oid})
        ot_seq: List[Oid] = []
        while u != self.cur:
            op2, u2 = self._walk_edge(u, op)
            op_t = ProtoOp(transform(op.o, op2.o), op.oid, op.ctx | {op2.oid}, op.sctx)
            op2_t = ProtoOp(transform(op2.o, op.o), op2.oid, op2.ctx | {op.oid}, op2.sctx)
            v2 = self._new_vertex(v | {op2.oid})
            self.link(v, v2, op2_t)
            self.link(u, v, op)
            ot_seq.append(op2.oid)
            u, v, op = u2, v2, op_t
        self.link(u, v, op)
        self.cur = v
        self.last_ot_sequence = tuple(ot_seq)
        return op

    def append(self, op: ProtoOp) -> None:
        """Extend cur with an op generated or transformed to cur (its ctx
        must equal cur)."""
        if op.ctx != self.cur:
            raise ProtocolError(f"appended op {op.oid.token()} not generated at cur")
        v = self._new_vertex(self.cur | {op.oid})
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
            for oids, edges in self._touched.items():
                verts[oids] = tuple(edges)
            self._snap = verts
            self._touched = {}
        return CssSnapshot(rid=self.rid, cur=self.cur, vertices=self._snap, two_d=self.two_d)


def materialize(snapshot: CssSnapshot) -> Dict[OidSet, ListState]:
    """Replay every vertex's list state from the root.

    Any in-edge gives the same list (that is the convergence property); all
    of them are replayed and checked to agree.
    """
    states: Dict[OidSet, ListState] = {EMPTY_OIDS: ()}
    in_edges: Dict[OidSet, List[Tuple[OidSet, ProtoOp]]] = {}
    for src, edges in snapshot.vertices.items():
        for e in edges:
            in_edges.setdefault(e.target, []).append((src, e.op))
    for oids in sorted(snapshot.vertices, key=vertex_order):
        if oids == EMPTY_OIDS:
            continue
        candidates = []
        for src, op in in_edges.get(oids, []):
            if src in states:
                candidates.append(apply(states[src], op.o)[0])
        if not candidates:
            raise ProtocolError(f"vertex {fmt_oids(oids)} unreachable from root")
        if any(c != candidates[0] for c in candidates[1:]):
            raise ProtocolError("replay paths disagree")
        states[oids] = candidates[0]
    return states
