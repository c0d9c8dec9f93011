"""Unit tests for the list operation domain and transformation functions."""

import itertools

import pytest

from conftest import EMPTY_STATE, applicable, check_cp1
from otwb.css_space import OidIndex
from otwb.ot_core import Element, ListOp, OpKind, ProtocolError, apply, to_text, transform
from otwb.protocols import CJClient, DJReplica


def elem(glyph, cid=1, seq=None):
    if seq is None:
        seq = ord(glyph)
    return Element(glyph, cid, seq)


def state_of(*glyphs):
    return tuple(elem(g, cid=9, seq=i + 1) for i, g in enumerate(glyphs))


class TestApply:
    def test_insert_into_empty_list(self):
        assert to_text(apply(EMPTY_STATE, ListOp.ins(elem("x"), 0))) == "x"

    def test_nop_leaves_state_unchanged(self):
        st = state_of("x")
        assert apply(st, ListOp.nop()) == st

    def test_delete_past_the_end_rejected(self):
        st = state_of("a", "b", "c", "d", "e")
        with pytest.raises(ProtocolError, match=r"Del\(_,5\) is out of range for a list of length 5$"):
            apply(st, ListOp.del_(5))

    def test_insert_past_the_end_rejected(self):
        st = state_of("a", "b")
        with pytest.raises(ProtocolError, match=r"Ins\(z,7\) is out of range for a list of length 2$"):
            apply(st, ListOp.ins(elem("z"), 7))

    def test_delete_on_empty_list_rejected(self):
        with pytest.raises(ProtocolError, match=r"Del\(_,0\) is out of range for a list of length 0$"):
            apply(EMPTY_STATE, ListOp.del_(0))

    def test_out_of_range_positions_rejected(self):
        # Brute-force oracle: on every list of up to 4 elements, an Ins at
        # 0..len and a Del at 0..len-1 splice the list; every other
        # position, a Del on the empty list included, is a ProtocolError.
        for length in range(5):
            st = state_of(*"abcde"[:length])
            for p in range(7):
                ins, dl = ListOp.ins(elem("z"), p), ListOp.del_(p)
                if p <= length:
                    assert apply(st, ins) == st[:p] + (elem("z"),) + st[p:]
                else:
                    with pytest.raises(ProtocolError, match=rf"Ins\(z,{p}\) is out of range for a list of length {length}$"):
                        apply(st, ins)
                if p < length:
                    assert apply(st, dl) == st[:p] + st[p + 1 :]
                else:
                    with pytest.raises(ProtocolError, match=rf"Del\(_,{p}\) is out of range for a list of length {length}$"):
                        apply(st, dl)

    def test_duplicate_insert_rejected(self):
        st = (elem("x", cid=1, seq=1),)
        with pytest.raises(ProtocolError, match="duplicate element y@1:1"):
            apply(st, ListOp.ins(elem("y", cid=1, seq=1), 0))


class TestTransform:
    def test_ins_del_pair_from_buffer_example(self):
        # Ins(f,1) / Del(_,5) on a 6-element list: the deletion shifts right.
        o1 = ListOp.ins(elem("f"), 1)
        o2 = ListOp.del_(5)
        assert transform(o1, o2) == o1
        assert transform(o2, o1) == ListOp.del_(6)

    def test_del_ins_pair_at_distinct_positions(self):
        # Del(x,0) against Ins(b,1): Del unchanged, Ins shifts left past it.
        x = elem("x")
        o2 = ListOp.del_(0, element=x)
        o4 = ListOp.ins(elem("b"), 1)
        assert transform(o2, o4) == o2
        assert transform(o4, o2) == ListOp.ins(elem("b"), 0)

    def test_ins_del_pair_at_same_position(self):
        # Ins(a,0) against Del(x,0): insert keeps its slot, delete shifts.
        x = elem("x")
        o3 = ListOp.ins(elem("a"), 0)
        o2 = ListOp.del_(0, element=x)
        assert transform(o3, o2) == o3
        assert transform(o2, o3) == ListOp.del_(1, element=x)

    def test_del_del_same_position_yields_nop(self):
        assert transform(ListOp.del_(3), ListOp.del_(3)) == ListOp.nop()

    def test_ins_ins_same_position_priority_shift(self):
        # The insert whose element comes from the smaller client id has
        # the higher priority and shifts right.
        hi = ListOp.ins(elem("a", cid=2), 2)
        lo = ListOp.ins(elem("b", cid=3), 2)
        assert transform(hi, lo) == ListOp.ins(elem("a", cid=2), 3)
        assert transform(lo, hi) == lo

    def test_nop_is_absorbing(self):
        o = ListOp.ins(elem("q"), 1)
        assert transform(ListOp.nop(), o) == ListOp.nop()
        assert transform(o, ListOp.nop()) == o
        assert transform(ListOp.nop(), ListOp.nop()) == ListOp.nop()

    def test_kind_and_element_preserved(self):
        # Except for Del/Del at equal positions, a transform never changes
        # kind or element, only position.
        for o1, o2 in _update_pairs(max_pos=3):
            t = transform(o1, o2)
            if (
                o1.kind is OpKind.DEL
                and o2.kind is OpKind.DEL
                and o1.position == o2.position
            ):
                assert t.kind is OpKind.NOP
            elif o1.kind is OpKind.NOP:
                assert t.kind is OpKind.NOP
            else:
                assert t.kind is o1.kind
                assert t.element == o1.element


def _update_ops(max_pos, tag):
    """Nop, then at every position a deletion and an insert from each of
    clients 1-3, its element's origin."""
    ops = [ListOp.nop()]
    for p in range(max_pos + 1):
        ops += (ListOp.ins(Element(tag, cid, p + 1), p) for cid in (1, 2, 3))
        ops.append(ListOp.del_(p))
    return ops


def _update_pairs(max_pos):
    for o1, o2 in itertools.product(_update_ops(max_pos, "u"), _update_ops(max_pos, "v")):
        if o1.kind is o2.kind is OpKind.INS and o1.element.origin_cid == o2.element.origin_cid:
            continue  # concurrent inserts always come from distinct clients
        yield o1, o2


class TestCp1:
    def test_buffer_scenario_converges(self):
        st = state_of(*"buffer")
        assert check_cp1(ListOp.ins(elem("f"), 1), ListOp.del_(5), st)

    def test_nop_pair_trivially_converges(self):
        assert check_cp1(ListOp.nop(), ListOp.nop(), state_of("x"))

    def test_exhaustive_small_sweep(self):
        # Enumeration is the oracle: every applicable update pair, its
        # inserts from distinct clients, over every short base list must
        # commute through its transforms.
        for length in range(4):
            st = state_of(*"wxyz"[:length])
            for o1, o2 in _update_pairs(max_pos=4):
                if not (applicable(o1, st) and applicable(o2, st)):
                    continue
                assert check_cp1(o1, o2, st), (o1.sig(), o2.sig(), to_text(st))

    def test_inapplicable_pair_rejected(self):
        # A deletion aimed at an empty list is outside the guarantee; the
        # applicability guard excludes it, and apply rejects it.
        o1 = ListOp.ins(elem("u"), 0)
        o2 = ListOp.del_(0)
        assert not applicable(o2, EMPTY_STATE)
        with pytest.raises(ProtocolError, match="out of range"):
            check_cp1(o1, o2, EMPTY_STATE)


class TestPriority:
    # Concurrent inserts at one position are ordered by the origin client
    # of their elements alone, not by glyph or sequence number.
    def test_smaller_id_wins_by_default(self):
        small = ListOp.ins(elem("z", cid=1, seq=9), 0)
        large = ListOp.ins(elem("a", cid=3, seq=1), 0)
        assert transform(small, large) == ListOp.ins(elem("z", cid=1, seq=9), 1)
        assert transform(large, small) == large

    def test_equal_ids_tie(self):
        # Equal origins at one position shift neither.
        a = ListOp.ins(elem("a", cid=4, seq=1), 2)
        b = ListOp.ins(elem("b", cid=4, seq=2), 2)
        assert transform(a, b) == a
        assert transform(b, a) == b

    def test_invalid_cid_rejected(self):
        # Origins, and so insert priorities, are client ids, which start at 1.
        for replica in (CJClient, DJReplica):
            with pytest.raises(ValueError, match="client ids start at 1"):
                replica(0, OidIndex())


class TestListOpValidation:
    def test_nop_carries_nothing(self):
        with pytest.raises(ValueError):
            ListOp(OpKind.NOP, position=1)
        with pytest.raises(ValueError):
            ListOp(OpKind.NOP, element=elem("a"))

    def test_updates_need_position(self):
        with pytest.raises(ValueError):
            ListOp(OpKind.INS, element=elem("a"))
        with pytest.raises(ValueError):
            ListOp(OpKind.DEL, position=-1)
        with pytest.raises(ValueError, match="ins needs an element"):
            ListOp(OpKind.INS, position=0)
        # The string a trace writes is not a kind: apply and transform run any
        # kind other than ins and nop as a delete.
        with pytest.raises(ValueError, match="kind must be an OpKind, got 'ins'"):
            ListOp("ins", Element("x", 1, 1), 0)

    def test_replace_validates(self):
        o = ListOp.ins(elem("a"), 0)
        with pytest.raises(ValueError, match="non-negative position"):
            o._replace(position=-1)
        moved = o._replace(position=2)
        assert type(moved) is ListOp and moved.position == 2

    def test_equals_its_tuple(self):
        o = ListOp.ins(elem("a"), 0)
        assert ListOp._fields == ("kind", "element", "position")
        assert o == (OpKind.INS, elem("a"), 0)
        assert hash(o) == hash((OpKind.INS, elem("a"), 0))

    def test_del_element_filled_later(self):
        d = ListOp.del_(2)
        assert d.element is None
        filled = d._replace(element=elem("k"))
        assert filled.element == elem("k")
        assert filled.position == 2
