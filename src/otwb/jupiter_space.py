"""The 2D state space: every vertex carries at most one local and one
global out-edge, and transformation walks follow a single dimension.

Same single-owner contract as the n-ary space; checkers use snapshots,
which share unchanged vertices in the same way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .css_space import EMPTY_OIDS, Oid, OidSet, ProtocolError
from .ot_core import ListOp, ListState, apply, transform


class Dimension(enum.IntEnum):
    LOCAL = 0
    GLOBAL = 1

    def flip(self) -> "Dimension":
        return Dimension(1 - self)


@dataclass(frozen=True)
class ProtoOp2D:
    """Operation identity for the 2D space: no server context needed, the
    two fixed dimensions encode the order."""

    o: ListOp
    oid: Oid
    ctx: OidSet = EMPTY_OIDS

    def __post_init__(self) -> None:
        if self.oid in self.ctx:
            raise ProtocolError(f"operation {self.oid.token()} lists itself in its context")

    def label(self) -> str:
        return f"{self.oid.token()} {self.o.sig()}"


class Edge2D(NamedTuple):
    op: ProtoOp2D
    target: "Vertex2D"


class Vertex2D:
    __slots__ = ("oids", "edges")

    def __init__(self, oids: OidSet):
        self.oids: OidSet = oids
        self.edges: List[Optional[Edge2D]] = [None, None]

    def __repr__(self) -> str:
        return f"Vertex2D({sorted(o.token() for o in self.oids)})"


class SnapEdge2D(NamedTuple):
    op: ProtoOp2D
    target: OidSet


@dataclass(frozen=True)
class Snapshot2D:
    """Immutable copy: per-vertex (local edge, global edge) pairs."""

    cur: OidSet
    vertices: Dict[OidSet, Tuple[Optional[SnapEdge2D], Optional[SnapEdge2D]]]


class StateSpace2D:
    def __init__(self) -> None:
        root = Vertex2D(EMPTY_OIDS)
        self.vertices: Dict[OidSet, Vertex2D] = {EMPTY_OIDS: root}
        self.root = root
        self.cur = root
        self.last_ot_sequence: Tuple[Oid, ...] = ()
        # As in CssSpace: the last snapshot's vertices, and the vertices
        # touched since, in the order they were first touched.
        self._snap: Dict[OidSet, Tuple[Optional[SnapEdge2D], Optional[SnapEdge2D]]] = {}
        self._touched: Dict[OidSet, Vertex2D] = {EMPTY_OIDS: root}

    def vertex(self, oids: OidSet) -> Optional[Vertex2D]:
        return self.vertices.get(oids)

    def _new_vertex(self, oids: OidSet) -> Vertex2D:
        if oids in self.vertices:
            raise ProtocolError(f"vertex {sorted(o.token() for o in oids)} already exists")
        v = Vertex2D(oids)
        self.vertices[oids] = v
        self._touched[oids] = v
        return v

    def locate(self, op: ProtoOp2D) -> Vertex2D:
        v = self.vertices.get(op.ctx)
        if v is None:
            raise ProtocolError(
                f"no vertex matches ctx of {op.oid.token()}: {sorted(o.token() for o in op.ctx)}"
            )
        return v

    def add(self, op: ProtoOp2D, d: Dimension, u: Vertex2D) -> Vertex2D:
        """Install op as u's d-edge, creating and returning the target."""
        if op.ctx != u.oids:
            raise ProtocolError(f"add: ctx of {op.oid.token()} does not match vertex")
        if u.edges[d] is not None:
            raise ProtocolError(
                f"add: {Dimension(d).name.lower()} edge already occupied at "
                f"{sorted(o.token() for o in u.oids)}"
            )
        v = self._new_vertex(u.oids | {op.oid})
        u.edges[d] = Edge2D(op, v)
        self._touched[u.oids] = u
        return v

    def xform(self, op: ProtoOp2D, d: Dimension) -> ProtoOp2D:
        """Walk the d-dimension edges from op's context vertex to cur,
        transforming op and filling in the opposite-dimension squares."""
        u = self.locate(op)
        v = self.add(op, d.flip(), u)
        ot_seq: List[Oid] = []
        while u.oids != self.cur.oids:
            e = u.edges[d]
            if e is None:
                raise ProtocolError(
                    f"xform: no {d.name.lower()} edge at {sorted(o.token() for o in u.oids)}"
                )
            u2, op2 = e.target, e.op
            op_t = ProtoOp2D(transform(op.o, op2.o), op.oid, op.ctx | {op2.oid})
            op2_t = ProtoOp2D(transform(op2.o, op.o), op2.oid, op2.ctx | {op.oid})
            v2 = self._new_vertex(v.oids | {op2.oid})
            if v.edges[d] is not None:
                raise ProtocolError("xform: square target edge already occupied")
            v.edges[d] = Edge2D(op2_t, v2)  # v was created in this walk, so it is touched
            if u2.edges[d.flip()] is not None:
                raise ProtocolError("xform: square rung edge already occupied")
            u2.edges[d.flip()] = Edge2D(op_t, v2)
            self._touched[u2.oids] = u2
            ot_seq.append(op2.oid)
            u, v, op = u2, v2, op_t
        self.cur = v
        self.last_ot_sequence = tuple(ot_seq)
        return op

    def append_global(self, op: ProtoOp2D) -> None:
        """Save op at the end of the space along the global dimension."""
        self.cur = self.add(op, Dimension.GLOBAL, self.cur)

    def snapshot(self) -> Snapshot2D:
        """Share the last snapshot's unchanged vertices, as CssSpace does."""

        def snap(e: Optional[Edge2D]) -> Optional[SnapEdge2D]:
            return None if e is None else SnapEdge2D(e.op, e.target.oids)

        if self._touched:
            verts = self._snap.copy()
            for oids, v in self._touched.items():
                verts[oids] = (snap(v.edges[Dimension.LOCAL]), snap(v.edges[Dimension.GLOBAL]))
            self._snap = verts
            self._touched = {}
        return Snapshot2D(cur=self.cur.oids, vertices=self._snap)


def materialize2d(snapshot: Snapshot2D) -> Dict[OidSet, ListState]:
    """Replay every vertex's list state from the root, as for n-ary spaces."""
    states: Dict[OidSet, ListState] = {EMPTY_OIDS: ()}
    in_edges: Dict[OidSet, List[Tuple[OidSet, ProtoOp2D]]] = {}
    for src, pair in snapshot.vertices.items():
        for e in pair:
            if e is not None:
                in_edges.setdefault(e.target, []).append((src, e.op))
    for oids in sorted(snapshot.vertices, key=lambda s: (len(s), sorted(s))):
        if oids == EMPTY_OIDS:
            continue
        candidates = [
            apply(states[src], op.o)[0] for src, op in in_edges.get(oids, []) if src in states
        ]
        if not candidates:
            raise ProtocolError(f"vertex {sorted(o.token() for o in oids)} unreachable from root")
        if any(c != candidates[0] for c in candidates[1:]):
            raise ProtocolError("replay paths disagree")
        states[oids] = candidates[0]
    return states
