"""Replica state machines for the three protocols.

Handlers are transport-free: they take an operation, mutate replica-local
state, and return what should be sent. The simulator owns channels and
delivery order; replicas never share mutable state, and every message
payload is an immutable value.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .css_space import CssSpace, Oid, OidIndex, ProtoOp, ProtocolError
from .ot_core import Element, ListOp, ListState, OpKind, apply

SERVER_ID = 0


class RecvResult(NamedTuple):
    value: Optional[ListState]  # None at a replica that keeps no list
    applied: ProtoOp  # the fully transformed operation that was executed
    ot_seq: Tuple[Oid, ...]
    fanout: Tuple[Tuple[int, ProtoOp], ...] = ()  # (destination cid, message)


def _fill_del(o: ListOp, state: ListState) -> ListOp:
    """Record the element a deletion removes; a deletion aimed at an empty
    list degenerates to Nop so it deletes nothing anywhere."""
    if o.kind is not OpKind.DEL:
        return o
    if not state:
        return ListOp.nop()
    return o.with_element(state[min(o.position, len(state) - 1)])


class CJClient:
    """A client of either client/server protocol: cjupiter's space holds
    server-stamped operations, jupiter's the server's transformed ones,
    which makes it 2D. It applies, mints identities and records deletes
    locally; do() returns the operation to send to the server. `index` is
    the run's OidIndex."""

    def __init__(self, cid: int, index: OidIndex):
        if cid < 1:
            raise ValueError("client ids start at 1")
        self.cid = cid
        self.seq = 0
        self.state: ListState = ()
        self.space = CssSpace(cid, index)

    def make_ins(self, glyph: str, position: int) -> ListOp:
        """Build an insert carrying the identity do() will expect."""
        element = Element(glyph, self.cid, self.seq + 1)
        return ListOp.ins(element, position)

    def do(self, o: ListOp) -> ProtoOp:
        if o.kind is OpKind.INS and (o.element.origin_cid, o.element.origin_seq) != (
            self.cid,
            self.seq + 1,
        ):
            raise ProtocolError("inserted element identity does not match this client")
        o = _fill_del(o, self.state)
        self.state = apply(self.state, o)
        self.seq += 1
        oid = Oid(self.cid, self.seq)
        op = ProtoOp(o, oid, self.space.index.bit(oid), self.space.cur)
        self.space.append(op)
        return op

    def receive(self, op: ProtoOp) -> RecvResult:
        applied, ot_seq = self.space.xform(op)
        self.state = apply(self.state, applied.o)
        return RecvResult(self.state, applied, ot_seq)


class Sequencer:
    """Causal atomic broadcast for djupiter, placed where the server sits:
    it stamps each submission with every oid committed before it and
    forwards it unchanged to every other replica. It keeps no list."""

    def __init__(self, n_clients: int):
        self.n_clients = n_clients
        self.soids = 0  # oid mask of the commits so far
        self.arrival_log: List[Oid] = []

    def receive(self, op: ProtoOp) -> RecvResult:
        stamped = ProtoOp(op.o, op.oid, op.bit, op.ctx, self.soids)
        self.soids |= op.bit
        self.arrival_log.append(stamped.oid)
        fanout = tuple(
            (c, stamped) for c in range(1, self.n_clients + 1) if c != stamped.oid.cid
        )
        return RecvResult(None, stamped, (), fanout)


class CJServer(Sequencer):
    """The serializing server: a sequencer that also transforms each
    stamped operation against its own space; it forwards the original."""

    def __init__(self, n_clients: int, index: OidIndex):
        super().__init__(n_clients)
        self.state: ListState = ()
        self.space = CssSpace(SERVER_ID, index)

    def receive(self, op: ProtoOp) -> RecvResult:
        stamped = super().receive(op)
        applied, ot_seq = self.space.xform(stamped.applied)
        self.state = apply(self.state, applied.o)
        return stamped._replace(value=self.state, applied=applied, ot_seq=ot_seq)


class JServer:
    """Keeps one 2D space per client, owned by that client's id, and
    forwards transformed operations."""

    def __init__(self, n_clients: int, index: OidIndex):
        self.n_clients = n_clients
        self.state: ListState = ()
        self.arrival_log: List[Oid] = []
        self.spaces: Dict[int, CssSpace] = {c: CssSpace(c, index) for c in range(1, n_clients + 1)}

    def receive(self, op: ProtoOp) -> RecvResult:
        origin = op.oid.cid
        self.arrival_log.append(op.oid)
        applied, ot_seq = self.spaces[origin].xform(op)
        self.state = apply(self.state, applied.o)
        fanout = []
        for c in range(1, self.n_clients + 1):
            if c == origin:
                continue
            self.spaces[c].append(applied)
            fanout.append((c, applied))
        if len({s.cur for s in self.spaces.values()}) != 1:
            raise ProtocolError("per-client server spaces diverged")
        return RecvResult(self.state, applied, ot_seq, tuple(fanout))


class DJReplica(CJClient):
    """Peer replica over causal atomic broadcast: generates like a client
    and processes the other replicas' operations in broadcast order."""

    def __init__(self, rid: int, index: OidIndex):
        super().__init__(rid, index)
        self.soids_mirror = 0  # oid mask of the commits delivered or stamped so far

    def receive(self, op: ProtoOp) -> RecvResult:
        if op.oid.cid == self.cid:
            raise ProtocolError("own operations are never delivered back")
        if self.soids_mirror & ~op.sctx:
            raise ProtocolError(
                f"delivery of {op.oid.token()} at replica {self.cid} is behind "
                "the broadcast order already observed"
            )
        self.soids_mirror = op.sctx | op.bit
        return super().receive(op)
