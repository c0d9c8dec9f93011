"""Tests for the n-ary ordered state space."""

import pytest

from conftest import O1, O2, O3, O4
from otwb.css_space import (
    EMPTY_OIDS,
    CssSpace,
    Oid,
    Ord,
    ProtoOp,
    ProtocolError,
    compare_ops,
    materialize,
)
from otwb.ot_core import Element, ListOp, priority_of, to_text
from otwb.protocols import CJClient, CJServer


def ins(glyph, pos, cid, seq):
    return ListOp.ins(Element(glyph, cid, seq), pos, priority_of(cid))


def op(o, oid, ctx=(), sctx=()):
    return ProtoOp(o, oid, frozenset(ctx), frozenset(sctx))


def oids(*pairs):
    return frozenset(Oid(c, s) for c, s in pairs)


def replay_podc16():
    """Drive the golden scenario directly through the protocol objects,
    returning (server, clients)."""
    server = CJServer(3)
    c = {i: CJClient(i) for i in (1, 2, 3)}
    sent = {}
    _, op1 = c[1].do(c[1].make_ins("x", 0))
    sent[1] = server.receive(op1)
    for i in (2, 3):
        c[i].receive(sent[1].fanout[0][1])
    _, op2 = c[1].do(c[1].make_del(0))
    _, op3 = c[2].do(c[2].make_ins("a", 0))
    _, op4 = c[3].do(c[3].make_ins("b", 1))
    r2 = server.receive(op2)
    r3 = server.receive(op3)
    r4 = server.receive(op4)
    stamped = {2: r2.fanout[0][1], 3: r3.fanout[0][1], 4: r4.fanout[0][1]}
    c[2].receive(stamped[2])
    c[3].receive(stamped[2])
    c[1].receive(stamped[3])
    c[2].receive(stamped[4])
    c[3].receive(stamped[3])
    c[1].receive(stamped[4])
    return server, c, stamped


class TestCompareOps:
    def test_sctx_membership_forces_left(self):
        a = op(ins("p", 0, 1, 1), Oid(1, 1))
        b = op(ins("q", 0, 2, 1), Oid(2, 1), sctx={Oid(1, 1)})
        assert compare_ops(a, b, 0) is Ord.LEFT
        assert compare_ops(b, a, 0) is Ord.RIGHT

    def test_remote_before_local_at_client(self):
        # At client 2: a redirected operation with silent contexts orders
        # before the client's own unacknowledged one.
        remote = op(ListOp.del_(0, priority_of(1)), O2, ctx={O1}, sctx={O1})
        local = op(ins("a", 0, 2, 1), O3, ctx={O1})
        assert compare_ops(remote, local, 2) is Ord.LEFT
        assert compare_ops(local, remote, 2) is Ord.RIGHT

    def test_server_replay_orders_by_arrival(self, podc16_cj):
        snap = podc16_cj.css_final[0]
        v1 = snap.vertices[frozenset({O1})]
        assert [e.op.oid for e in v1] == [O2, O3, O4]

    def test_server_orders_by_sctx_membership(self):
        # o4 arrived after o3, so o3 appears in o4's server context.
        o3 = op(ins("a", 0, 2, 1), O3, ctx={O1}, sctx={O1, O2})
        o4 = op(ins("b", 1, 3, 1), O4, ctx={O1}, sctx={O1, O2, O3})
        assert compare_ops(o3, o4, 0) is Ord.LEFT
        assert compare_ops(o4, o3, 0) is Ord.RIGHT

    def test_server_fallback_is_a_protocol_bug(self):
        a = op(ins("p", 0, 1, 1), Oid(1, 1))
        b = op(ins("q", 0, 2, 1), Oid(2, 1))
        with pytest.raises(ProtocolError):
            compare_ops(a, b, 0)

    def test_two_remote_ops_with_silent_contexts_rejected(self):
        a = op(ins("p", 0, 1, 1), Oid(1, 1))
        b = op(ins("q", 0, 2, 1), Oid(2, 1))
        with pytest.raises(ProtocolError):
            compare_ops(a, b, 3)

    def test_same_oid_rejected(self):
        a = op(ins("p", 0, 1, 1), Oid(1, 1))
        with pytest.raises(ProtocolError):
            compare_ops(a, a, 1)


class TestLocate:
    def test_root_matches_empty_context(self):
        s = CssSpace(rid=1)
        incoming = op(ins("x", 0, 2, 1), Oid(2, 1))
        assert s.locate(incoming) == EMPTY_OIDS

    def test_example_locates_middle_vertex(self):
        # Client 3 after o1, o4, o2: an op with ctx {o1} matches v1.
        _, clients, stamped = replay_podc16()
        c3 = CJClient(3)
        c3.receive(op(ins("x", 0, 1, 1), O1, sctx=frozenset()))
        c3.do(c3.make_ins("b", 1))
        c3.receive(stamped[2])
        v = c3.space.locate(stamped[3])
        assert v == frozenset({O1})

    def test_missing_context_is_integrity_error(self):
        # A FIFO violation hand-built: the op's context names an operation
        # this replica never processed.
        s = CssSpace(rid=1)
        bad = op(ins("x", 0, 2, 2), Oid(2, 2), ctx={Oid(2, 1)})
        with pytest.raises(ProtocolError):
            s.locate(bad)


class TestLink:
    def test_first_link_makes_one_edge(self):
        s = CssSpace(rid=1)
        o = op(ins("x", 0, 1, 1), Oid(1, 1))
        s.append(o)
        assert len(s.vertices[EMPTY_OIDS]) == 1
        assert s.cur == frozenset({Oid(1, 1)})

    def test_insertion_sorts_between_existing_edges(self, podc16_cj):
        # At client 3, o3's edge lands between o2's and o4's under the
        # server order.
        snap = podc16_cj.css_final[3]
        v1 = snap.vertices[frozenset({O1})]
        assert [e.op.oid for e in v1] == [O2, O3, O4]

    def test_double_link_is_idempotent(self):
        s = CssSpace(rid=1)
        o = op(ins("x", 0, 1, 1), Oid(1, 1))
        s.append(o)
        u, v = EMPTY_OIDS, s.cur
        s.link(u, v, o)
        assert len(s.vertices[u]) == 1

    def test_mismatched_context_rejected(self):
        s = CssSpace(rid=1)
        o = op(ins("x", 0, 1, 1), Oid(1, 1), ctx={Oid(9, 9)})
        with pytest.raises(ProtocolError):
            s.locate(o)
        with pytest.raises(ProtocolError):
            s.link(EMPTY_OIDS, EMPTY_OIDS, o)

    def test_source_or_target_not_a_vertex_rejected(self):
        # The oid sets extend each other correctly, but one end is not a
        # vertex of the space: a ProtocolError, never a KeyError.
        s = CssSpace(rid=1)
        o = op(ins("x", 0, 1, 1), Oid(1, 1))
        with pytest.raises(ProtocolError, match="is not a vertex"):
            s.link(EMPTY_OIDS, frozenset({Oid(1, 1)}), o)
        s.append(o)
        o2 = op(ins("y", 0, 1, 2), Oid(1, 2), ctx={Oid(2, 1)})
        with pytest.raises(ProtocolError, match="is not a vertex"):
            s.link(frozenset({Oid(2, 1)}), frozenset({Oid(2, 1), Oid(1, 2)}), o2)


class TestFirstEdgeAndPath:
    def test_single_edge_vertex(self):
        s = CssSpace(rid=1)
        o = op(ins("x", 0, 1, 1), Oid(1, 1))
        s.append(o)
        incoming = op(ins("y", 0, 2, 1), Oid(2, 1))
        assert s._walk_edge(EMPTY_OIDS, incoming).op.oid == Oid(1, 1)

    def test_final_vertex_has_no_first_edge(self):
        # {2:1} is a vertex but not cur and has no edges, so the walk of an
        # op located there cannot leave it.
        s = CssSpace(rid=1)
        s.append(op(ins("x", 0, 1, 1), Oid(1, 1)))
        s._new_vertex(frozenset({Oid(2, 1)}))
        with pytest.raises(ProtocolError, match="final vertex"):
            s.xform(op(ins("y", 0, 3, 1), Oid(3, 1), ctx={Oid(2, 1)}))

    def test_server_first_paths_follow_arrival_order(self):
        server, _, _ = replay_podc16()
        snap = server.space.snapshot()
        assert [e.op.oid for e in snap.first_path(frozenset({O1}))] == [O2, O3, O4]
        assert [e.op.oid for e in snap.first_path(frozenset({O1, O3}))] == [O2, O4]

    def test_path_from_cur_is_empty(self):
        server, _, _ = replay_podc16()
        snap = server.space.snapshot()
        assert snap.first_path(snap.cur) == []


class TestXform:
    def test_remote_del_against_local_ins(self):
        # Client 3 holding local o4 transforms the incoming deletion into
        # Del(x,0) with context {o1,o4}, materializing the square vertex.
        c3 = CJClient(3)
        c3.receive(op(ins("x", 0, 1, 1), O1))
        c3.do(c3.make_ins("b", 1))
        incoming = ProtoOp(
            ListOp.del_(0, priority_of(1), element=Element("x", 1, 1)),
            O2,
            frozenset({O1}),
            frozenset({O1}),
        )
        result = c3.receive(incoming)
        assert result.applied.o.sig() == "Del(x,0)"
        assert result.applied.ctx == frozenset({O1, O4})
        assert to_text(c3.state) == "b"
        assert frozenset({O1, O2, O4}) in c3.space.vertices

    def test_op_at_cur_passes_through_unchanged(self):
        c1 = CJClient(1)
        incoming = op(ins("x", 0, 2, 1), Oid(2, 1))
        result = c1.receive(incoming)
        assert result.applied.o == incoming.o
        assert result.ot_seq == ()
        assert len(c1.space.vertices) == 2

    def test_server_transforms_o4_across_two_steps(self):
        server, _, _ = replay_podc16()
        snap = server.space.snapshot()
        v123 = frozenset({O1, O2, O3})
        final_edges = snap.vertices[v123]
        assert [ (e.op.oid, e.op.o.sig()) for e in final_edges ] == [(O4, "Ins(b,0)")]
        assert to_text(server.state) == "ba"

    def test_byproduct_vertices_are_retained(self):
        server, _, _ = replay_podc16()
        assert len(server.space.vertices) == 8


class TestInvariants:
    def test_vertices_unique_and_rooted(self, podc16_cj):
        for snap in podc16_cj.css_final.values():
            states = materialize(snap)  # raises if any vertex is unreachable
            assert set(states) == set(snap.vertices)

    def test_edge_vertex_matching(self, podc16_cj):
        for snap in podc16_cj.css_final.values():
            for src, edges in snap.vertices.items():
                for e in edges:
                    assert e.op.ctx == src
                    assert e.target == src | {e.op.oid}
                    assert e.op.oid not in src

    def test_materialized_lists_match_figure(self, podc16_cj):
        snap = podc16_cj.css_final[0]
        states = {k: to_text(v) for k, v in materialize(snap).items()}
        assert states[EMPTY_OIDS] == ""
        assert states[frozenset({O1})] == "x"
        assert states[frozenset({O1, O2})] == ""
        assert states[frozenset({O1, O3})] == "ax"
        assert states[frozenset({O1, O4})] == "xb"
        assert states[frozenset({O1, O2, O3})] == "a"
        assert states[frozenset({O1, O2, O4})] == "b"
        assert states[frozenset({O1, O2, O3, O4})] == "ba"

    def test_self_context_rejected(self):
        with pytest.raises(ProtocolError):
            ProtoOp(ins("x", 0, 1, 1), Oid(1, 1), frozenset({Oid(1, 1)}))
