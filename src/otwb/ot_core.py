"""Single-element list editing: elements, operations, application, and the
pairwise transformation functions used to reconcile concurrent edits.

Positions are strict: apply rejects an operation that does not target the
list it is applied to, with ProtocolError, the error every replay fault
raises. Operations are immutable values and every function here is pure,
so the module is safe for concurrent use from any number of threads.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import NamedTuple, Optional


class ProtocolError(Exception):
    """A protocol integrity violation: broken FIFO, bad context, an
    operation that does not fit its list, or an edge/vertex constraint
    that correct runs can never reach."""


class OpKind(enum.Enum):
    INS = "ins"
    DEL = "del"
    NOP = "nop"


class Element(NamedTuple):
    """A list element: a printable glyph tagged with its origin, as a triple.

    (origin_cid, origin_seq) must be globally unique within an execution;
    the glyph itself may repeat.
    """

    glyph: str
    origin_cid: int
    origin_seq: int

    __repr__ = tuple.__repr__  # witnesses print an element as the triple it is

    def token(self) -> str:
        return f"{self.glyph}@{self.origin_cid}:{self.origin_seq}"


_INS, _DEL, _NOP = OpKind.INS, OpKind.DEL, OpKind.NOP
_tuple_new = tuple.__new__


class _ListOpFields(NamedTuple):
    kind: OpKind
    element: Optional[Element] = None
    position: Optional[int] = None


class ListOp(_ListOpFields):
    """One list operation: Ins, Del, or Nop.

    Ins carries the inserted element; Del records the element it deleted,
    filled in by the generating replica (None until then). Nop carries no
    payload at all.

    A validating NamedTuple: it equals its (kind, element, position)
    tuple, and _replace checks the new fields too.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: OpKind,
        element: Optional[Element] = None,
        position: Optional[int] = None,
    ) -> "ListOp":
        if kind is _NOP:
            if element is not None or position is not None:
                raise ValueError(f"{kind.value} carries no element or position")
        elif kind is not _INS and kind is not _DEL:
            raise ValueError(f"kind must be an OpKind, got {kind!r}")
        else:
            if position is None or position < 0:
                raise ValueError(f"{kind.value} needs a non-negative position")
            if kind is _INS and element is None:
                raise ValueError("ins needs an element")
        return _tuple_new(cls, (kind, element, position))

    @classmethod
    def _make(cls, iterable) -> "ListOp":
        return cls(*iterable)

    @classmethod
    def ins(cls, element: Element, position: int) -> "ListOp":
        return cls(OpKind.INS, element, position)

    @classmethod
    def del_(cls, position: int, element: Optional[Element] = None) -> "ListOp":
        return cls(OpKind.DEL, element, position)

    @classmethod
    def nop(cls) -> "ListOp":
        return cls(OpKind.NOP)

    def sig(self) -> str:
        """Short human-readable signature, e.g. Ins(x,0) or Del(_,3)."""
        if self.kind is OpKind.INS:
            return f"Ins({self.element.glyph},{self.position})"
        if self.kind is OpKind.DEL:
            glyph = self.element.glyph if self.element is not None else "_"
            return f"Del({glyph},{self.position})"
        return self.kind.value.capitalize()


ListState = tuple[Element, ...]  # a builtin alias: typing's cache would keep Element alive
_glyph = itemgetter(0)


def to_text(state: ListState) -> str:
    """The glyphs of a list of elements, or of plain element triples."""
    return "".join(map(_glyph, state))


def apply(state: ListState, o: ListOp) -> ListState:
    """Apply one operation to a list state, returning the new state.

    ProtocolError for an Ins past the end, a Del at or past the end (on an
    empty list too), and an Ins of an element the list already holds.
    """
    kind = o.kind
    if kind is _NOP:
        return state
    p, n = o.position, len(state)
    if kind is _INS:
        element = o.element
        cid, seq = element[1], element[2]  # origin_cid, origin_seq
        for existing in state:
            if existing[2] == seq and existing[1] == cid:
                raise ProtocolError(f"duplicate element {element.token()}")
        if p <= n:
            return state[:p] + (element,) + state[p:]
    elif p < n:  # Del
        return state[:p] + state[p + 1 :]
    raise ProtocolError(f"{o.sig()} is out of range for a list of length {n}")


_NOP_OP = ListOp.nop()  # immutable, so every degenerate deletion shares it


def transform(o1: ListOp, o2: ListOp) -> ListOp:
    """Transform o1 against a concurrent o2, returning o1'.

    Nop absorbs: transform(Nop, _) = Nop and transform(o, Nop) = o. An
    Ins/Del keeps its kind and element and only moves position, except two
    deletions of the same position, where o1 degenerates to Nop.

    Concurrent inserts at one position are ordered by the origin client
    of their elements: the smaller client id wins and shifts right, and
    equal origins shift neither.

    A moved o1 is built without re-validating: it keeps o1's kind and
    element, which ListOp checked when o1 was made, and its position is
    p1 + 1 or p1 - 1 with p1 > p2 >= 0, never negative.
    """
    k1, k2 = o1.kind, o2.kind
    if k1 is _NOP or k2 is _NOP:
        return o1

    p1, p2 = o1.position, o2.position
    if k1 is _INS:
        if k2 is _INS:
            if p1 < p2:
                return o1
            if p1 > p2 or o1.element[1] < o2.element[1]:  # origin_cid
                return _tuple_new(ListOp, (k1, o1.element, p1 + 1))
            return o1
        # Ins against Del
        if p1 <= p2:
            return o1
        return _tuple_new(ListOp, (k1, o1.element, p1 - 1))
    if k2 is _INS:  # Del against Ins
        if p1 < p2:
            return o1
        return _tuple_new(ListOp, (k1, o1.element, p1 + 1))
    # Del against Del
    if p1 < p2:
        return o1
    if p1 > p2:
        return _tuple_new(ListOp, (k1, o1.element, p1 - 1))
    return _NOP_OP
