"""Tests for the n-ary ordered state space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import O1, O2, O3, O4, mask, oracle_link
from otwb.css_space import (
    CssSpace,
    Oid,
    OidIndex,
    Ord,
    ProtoOp,
    ProtocolError,
    compare_ops,
    materialize,
)
from otwb.ot_core import Element, ListOp, to_text
from otwb.protocols import CJClient, CJServer
from otwb.simnet import PROTOCOLS, Simulation, podc16_schedule, random_schedule


def ins(glyph, pos, cid, seq):
    return ListOp.ins(Element(glyph, cid, seq), pos)


def op(index, o, oid, ctx=(), sctx=()):
    """A ProtoOp whose oid and contexts are bits and masks of index."""
    return ProtoOp(o, oid, index.bit(oid), mask(index, ctx), mask(index, sctx))



def replay_podc16():
    """Drive the golden scenario directly through the protocol objects,
    sharing one oid index, returning (server, clients, stamped ops)."""
    index = OidIndex()
    server = CJServer(3, index)
    c = {i: CJClient(i, index=index) for i in (1, 2, 3)}
    sent = {}
    op1 = c[1].do(c[1].make_ins("x", 0))
    sent[1] = server.receive(op1)
    for i in (2, 3):
        c[i].receive(sent[1].fanout[0][1])
    op2 = c[1].do(ListOp.del_(0))
    op3 = c[2].do(c[2].make_ins("a", 0))
    op4 = c[3].do(c[3].make_ins("b", 1))
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
        ix = OidIndex()
        a = op(ix, ins("p", 0, 1, 1), Oid(1, 1))
        b = op(ix, ins("q", 0, 2, 1), Oid(2, 1), sctx={Oid(1, 1)})
        assert compare_ops(a, b, 0) is Ord.LEFT
        assert compare_ops(b, a, 0) is Ord.RIGHT

    def test_remote_before_local_at_client(self):
        # At client 2: a redirected operation with silent contexts orders
        # before the client's own unacknowledged one.
        ix = OidIndex()
        remote = op(ix, ListOp.del_(0), O2, ctx={O1}, sctx={O1})
        local = op(ix, ins("a", 0, 2, 1), O3, ctx={O1})
        assert compare_ops(remote, local, 2) is Ord.LEFT
        assert compare_ops(local, remote, 2) is Ord.RIGHT

    def test_server_replay_orders_by_arrival(self, podc16_cj):
        snap = podc16_cj.css_final[0]
        v1 = snap.vertices[mask(snap.index, [O1])]
        assert [e.oid for e in v1] == [O2, O3, O4]

    def test_server_orders_by_sctx_membership(self):
        # o4 arrived after o3, so o3 appears in o4's server context.
        ix = OidIndex()
        o3 = op(ix, ins("a", 0, 2, 1), O3, ctx={O1}, sctx={O1, O2})
        o4 = op(ix, ins("b", 1, 3, 1), O4, ctx={O1}, sctx={O1, O2, O3})
        assert compare_ops(o3, o4, 0) is Ord.LEFT
        assert compare_ops(o4, o3, 0) is Ord.RIGHT

    def test_server_fallback_is_a_protocol_bug(self):
        ix = OidIndex()
        a = op(ix, ins("p", 0, 1, 1), Oid(1, 1))
        b = op(ix, ins("q", 0, 2, 1), Oid(2, 1))
        with pytest.raises(ProtocolError):
            compare_ops(a, b, 0)

    def test_two_remote_ops_with_silent_contexts_rejected(self):
        ix = OidIndex()
        a = op(ix, ins("p", 0, 1, 1), Oid(1, 1))
        b = op(ix, ins("q", 0, 2, 1), Oid(2, 1))
        with pytest.raises(ProtocolError):
            compare_ops(a, b, 3)

    def test_same_oid_rejected(self):
        a = op(OidIndex(), ins("p", 0, 1, 1), Oid(1, 1))
        with pytest.raises(ProtocolError):
            compare_ops(a, a, 1)

    def test_each_in_the_others_server_context_rejected(self):
        # Both server-context tests fire: each op claims the server had
        # executed the other first, so neither order holds, both ways.
        ix = OidIndex()
        a = op(ix, ins("p", 0, 1, 1), Oid(1, 1), sctx={Oid(2, 1)})
        b = op(ix, ins("q", 0, 2, 1), Oid(2, 1), sctx={Oid(1, 1)})
        for first, second in ((a, b), (b, a)):
            with pytest.raises(ProtocolError, match="break a strict total order"):
                compare_ops(first, second, 0)


class TestLocate:
    def test_root_matches_empty_context(self):
        s = CssSpace(1, OidIndex())
        incoming = op(s.index, ins("x", 0, 2, 1), Oid(2, 1))
        assert s.locate(incoming) == 0

    def test_example_locates_middle_vertex(self):
        # Client 3 after o1, o4, o2: an op with ctx {o1} matches v1.
        server, clients, stamped = replay_podc16()
        ix = server.space.index
        c3 = CJClient(3, ix)
        c3.receive(op(ix, ins("x", 0, 1, 1), O1))
        c3.do(c3.make_ins("b", 1))
        c3.receive(stamped[2])
        v = c3.space.locate(stamped[3])
        assert v == mask(ix, [O1])

    def test_missing_context_is_integrity_error(self):
        # A FIFO violation hand-built: the op's context names an operation
        # this replica never processed.
        s = CssSpace(1, OidIndex())
        bad = op(s.index, ins("x", 0, 2, 2), Oid(2, 2), ctx={Oid(2, 1)})
        with pytest.raises(ProtocolError):
            s.locate(bad)


class TestLink:
    def test_first_link_makes_one_edge(self):
        s = CssSpace(1, OidIndex())
        o = op(s.index, ins("x", 0, 1, 1), Oid(1, 1))
        s.append(o)
        assert len(s.vertices[0]) == 1
        assert s.cur == mask(s.index, [Oid(1, 1)])

    def test_insertion_sorts_between_existing_edges(self, podc16_cj):
        # At client 3, o3's edge lands between o2's and o4's under the
        # server order.
        snap = podc16_cj.css_final[3]
        v1 = snap.vertices[mask(snap.index, [O1])]
        assert [e.oid for e in v1] == [O2, O3, O4]

    def test_mismatched_context_rejected(self):
        s = CssSpace(1, OidIndex())
        o = op(s.index, ins("x", 0, 1, 1), Oid(1, 1), ctx={Oid(9, 9)})
        with pytest.raises(ProtocolError):
            s.locate(o)
        with pytest.raises(ProtocolError):
            s.append(o)


class TestIntegrityChecks:
    def test_append_away_from_cur(self):
        # An op generated at the root is appended after cur moved on.
        s = CssSpace(1, OidIndex())
        s.append(op(s.index, ins("x", 0, 1, 1), Oid(1, 1)))
        stale = op(s.index, ins("y", 0, 1, 2), Oid(1, 2))
        with pytest.raises(ProtocolError, match="appended op 1:2 not generated at cur"):
            s.append(stale)
        assert len(s.vertices) == 2


class TestFirstEdgeAndPath:
    def test_walk_follows_the_single_edge(self):
        s = CssSpace(1, OidIndex())
        o = op(s.index, ins("x", 0, 1, 1), Oid(1, 1))
        s.append(o)
        incoming = op(s.index, ins("y", 0, 2, 1), Oid(2, 1))
        assert s.xform(incoming)[1] == (Oid(1, 1),)

    def test_final_vertex_has_no_first_edge(self):
        # {2:1} is a vertex but not cur and has no edges, so the walk of an
        # op located there cannot leave it.
        s = CssSpace(1, OidIndex())
        s.append(op(s.index, ins("x", 0, 1, 1), Oid(1, 1)))
        s._new_vertex(mask(s.index, [Oid(2, 1)]))
        with pytest.raises(ProtocolError, match="final vertex"):
            s.xform(op(s.index, ins("y", 0, 3, 1), Oid(3, 1), ctx={Oid(2, 1)}))

    def test_server_first_paths_follow_arrival_order(self):
        server, _, _ = replay_podc16()
        snap = server.space.snapshot()
        assert [e.oid for e in snap.first_path(mask(snap.index, [O1]))] == [O2, O3, O4]
        assert [e.oid for e in snap.first_path(mask(snap.index, [O1, O3]))] == [O2, O4]

    def test_path_from_cur_is_empty(self):
        server, _, _ = replay_podc16()
        snap = server.space.snapshot()
        assert snap.first_path(snap.cur) == []


class TestXform:
    def test_remote_del_against_local_ins(self):
        # Client 3 holding local o4 transforms the incoming deletion into
        # Del(x,0) with context {o1,o4}, materializing the square vertex.
        c3 = CJClient(3, OidIndex())
        ix = c3.space.index
        c3.receive(op(ix, ins("x", 0, 1, 1), O1))
        c3.do(c3.make_ins("b", 1))
        incoming = op(
            ix, ListOp.del_(0, element=Element("x", 1, 1)), O2, ctx={O1}, sctx={O1}
        )
        result = c3.receive(incoming)
        assert result.applied.o.sig() == "Del(x,0)"
        assert result.applied.ctx == mask(ix, [O1, O4])
        assert to_text(c3.state) == "b"
        assert mask(ix, [O1, O2, O4]) in c3.space.vertices

    def test_op_at_cur_passes_through_unchanged(self):
        c1 = CJClient(1, OidIndex())
        incoming = op(c1.space.index, ins("x", 0, 2, 1), Oid(2, 1))
        result = c1.receive(incoming)
        assert result.applied.o == incoming.o
        assert result.ot_seq == ()
        assert len(c1.space.vertices) == 2

    def test_server_transforms_o4_across_two_steps(self):
        server, _, _ = replay_podc16()
        snap = server.space.snapshot()
        v123 = mask(snap.index, [O1, O2, O3])
        final_edges = snap.vertices[v123]
        assert [ (e.oid, e.o.sig()) for e in final_edges ] == [(O4, "Ins(b,0)")]
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
                    assert e.ctx == src
                    assert src | e.bit in snap.vertices
                    assert not e.bit & src

    def test_materialized_lists_match_figure(self, podc16_cj):
        snap = podc16_cj.css_final[0]
        states = {k: to_text(v) for k, v in materialize(snap).items()}
        ix = snap.index
        assert states[0] == ""
        assert states[mask(ix, [O1])] == "x"
        assert states[mask(ix, [O1, O2])] == ""
        assert states[mask(ix, [O1, O3])] == "ax"
        assert states[mask(ix, [O1, O4])] == "xb"
        assert states[mask(ix, [O1, O2, O3])] == "a"
        assert states[mask(ix, [O1, O2, O4])] == "b"
        assert states[mask(ix, [O1, O2, O3, O4])] == "ba"

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_cur_has_no_edge_after_every_step(self, protocol):
        # The premise of append and of xform's last edge: a replay adds an
        # edge at cur only as cur's one edge, and moves cur along it.
        corpus = (random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s) for s in range(100))
        for schedule in (podc16_schedule(), *corpus):
            sim = Simulation(protocol, schedule.n_clients)
            spaces = [c.space for c in sim.clients.values()]
            if protocol == "cjupiter":
                spaces.append(sim.hub.space)
            elif protocol == "jupiter":
                spaces += sim.hub.spaces.values()
            for i, step in enumerate(schedule.steps):
                sim.step(step, i)
                assert all(not s.vertices[s.cur] for s in spaces), (schedule.prng, i)

    def test_self_context_rejected(self):
        ix = OidIndex()
        with pytest.raises(ProtocolError):
            ProtoOp(ins("x", 0, 1, 1), Oid(1, 1), ix.bit(Oid(1, 1)), mask(ix, [Oid(1, 1)]))

    @pytest.mark.parametrize("bit", [0, -1, 0b11])
    def test_op_bit_must_be_one_bit(self, bit):
        with pytest.raises(ProtocolError, match="exactly one oid bit"):
            ProtoOp(ins("x", 0, 1, 1), Oid(1, 1), bit)

    def test_replace_validates(self):
        ix = OidIndex()
        a = op(ix, ins("x", 0, 2, 1), O3, ctx=[O1])
        with pytest.raises(ProtocolError, match="exactly one oid bit"):
            a._replace(bit=3)
        with pytest.raises(ProtocolError, match="lists itself"):
            a._replace(ctx=a.ctx | a.bit)
        moved = a._replace(ctx=mask(ix, [O1, O2]))
        assert type(moved) is ProtoOp and moved.ctx == mask(ix, [O1, O2])


class TestOidIndex:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_masks_format_and_order_as_oid_sets(self, data):
        # Oids generated in a shuffled order, so bit order is not oid order.
        pool = data.draw(st.lists(st.builds(Oid, st.integers(1, 4), st.integers(1, 5)), unique=True))
        ix = OidIndex()
        for o in data.draw(st.permutations(pool)):
            ix.bit(o)
        sets = data.draw(st.lists(st.frozensets(st.sampled_from(pool)), unique=True, max_size=12)
                         if pool else st.just([frozenset()]))
        masks = [mask(ix, s) for s in sets]
        for s, m in zip(sets, masks):
            assert frozenset(ix.decode(m)) == s
            assert ix.fmt_oids(m) == [o.token() for o in sorted(s)]
            assert ix.vertex_order(m) == (len(s), sorted(s))
        by_sets = sorted(range(len(sets)), key=lambda i: (len(sets[i]), sorted(sets[i])))
        assert [masks[i] for i in by_sets] == sorted(masks, key=ix.vertex_order)

    def test_bits_follow_generation_order_and_repeat(self):
        ix = OidIndex()
        assert [ix.bit(Oid(2, 1)), ix.bit(Oid(1, 1)), ix.bit(Oid(2, 1))] == [1, 2, 1]
        assert ix.oids == [Oid(2, 1), Oid(1, 1)]

    def test_bit_beyond_the_index_rejected(self):
        ix = OidIndex()
        ix.bit(Oid(1, 1))
        with pytest.raises(ProtocolError, match="no generated oid"):
            ix.fmt_oids(0b10)


class TestProtoOpIdentity:
    """Equality and hash are the structural edge identity: the server's
    stamp sctx is not part of it."""

    @staticmethod
    def base(ix):
        return op(ix, ins("x", 0, 2, 1), O3, ctx=[O1], sctx=[O1])

    def test_copies_differing_only_in_sctx_are_equal(self):
        ix = OidIndex()
        a = self.base(ix)
        b = op(ix, a.o, O3, ctx=[O1], sctx=[O1, O2])
        c = op(ix, a.o, O3, ctx=[O1])
        assert a == b == c
        # A plain tuple's != would compare sctx too.
        assert not a != b and not b != c and not a != c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1

    def test_copies_differing_in_o_ctx_or_oid_differ(self):
        ix = OidIndex()
        a = self.base(ix)
        others = [
            op(ix, ins("x", 1, 2, 1), O3, ctx=[O1], sctx=[O1]),
            op(ix, a.o, O3, ctx=[O1, O2], sctx=[O1]),
            op(ix, a.o, O4, ctx=[O1], sctx=[O1]),
        ]
        for other in others:
            assert a != other
        assert len({a, *others}) == 4


class TestReplayIntegrityErrors:
    """Every ProtocolError the replay can raise, driven through xform or
    append on a hand-corrupted space, with its exact message."""

    @staticmethod
    def raised(call, *args):
        with pytest.raises(ProtocolError) as exc:
            call(*args)
        return str(exc.value)

    def test_vertex_already_exists(self):
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        s._new_vertex(mask(ix, [Oid(1, 1), Oid(2, 1)]))
        incoming = op(ix, ins("y", 0, 2, 1), Oid(2, 1))
        # The fresh vertex of the walk's first square is there already.
        assert self.raised(s.xform, incoming) == "vertex ['1:1', '2:1'] already exists"
        # The failed walk left the op's own vertex behind.
        assert self.raised(s.xform, incoming) == "vertex ['2:1'] already exists"
        s.cur = 0
        assert self.raised(s.append, op(ix, ins("z", 0, 1, 1), Oid(1, 1))) == "vertex ['1:1'] already exists"

    def test_final_vertex_has_no_first_edge(self):
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        s._new_vertex(mask(ix, [Oid(2, 1)]))
        incoming = op(ix, ins("y", 0, 3, 1), Oid(3, 1), ctx={Oid(2, 1)})
        assert self.raised(s.xform, incoming) == "xform: final vertex ['2:1'] has no first edge"

    def test_no_walk_edge_on_either_side(self):
        # The root holds only an op of client 3, and a second op of its
        # side arrives: under owner 1 both are remote, under owner 3 both
        # are own. The walk takes the root edge, and compare_ops cannot
        # order the two ops where the incoming one is placed.
        for owner, oid in ((1, Oid(2, 1)), (3, Oid(3, 2))):
            s = CssSpace(owner, OidIndex())
            ix = s.index
            s.append(op(ix, ins("x", 0, 3, 1), Oid(3, 1)))
            assert self.raised(s.xform, op(ix, ins("y", 0, *oid), oid)) == (
                f"cannot order {oid.token()} and 3:1 at replica {owner}: "
                "neither context decides and the pair is not one local, one remote"
            )

    def test_cur_already_has_an_edge(self):
        # A hand-built edge leaves cur: in a 2D space on either side, and
        # in an n-ary one. Neither xform nor append can then add an op's
        # edge as cur's only one.
        for owner, other in ((2, Oid(2, 9)), (1, Oid(3, 9)), (0, Oid(3, 9))):
            s = CssSpace(owner, OidIndex())
            ix = s.index
            s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1)))
            w = op(ix, ins("w", 0, *other), other, ctx={Oid(1, 1)})
            oracle_link(s, s.cur, s._new_vertex(w.ctx | w.bit), w)
            message = f"cur ['1:1'] of replica {owner} already has an edge"
            for add, oid in ((s.xform, Oid(2, 1)), (s.append, Oid(4, 1))):
                assert self.raised(add, op(ix, ins("y", 0, *oid), oid, ctx={Oid(1, 1)})) == message

    def test_link_ctx_does_not_match_source_vertex(self):
        # The walk edge's op names a context that is not its source, so
        # its transformed copy does not leave the square's fresh vertex.
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        s.vertices[0][0] = op(ix, ins("x", 0, 1, 1), Oid(1, 1), ctx={Oid(3, 3)})
        incoming = op(ix, ins("y", 0, 2, 1), Oid(2, 1))
        assert self.raised(s.xform, incoming) == "link: ctx of 1:1 does not match source vertex"

    def test_walk_edge_with_the_ops_own_bit(self):
        # The root's edge carries the bit of the incoming op under another
        # oid, and dangles until the incoming op makes the vertex it leads
        # to; cur is another vertex.
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.vertices[0].append(op(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        s.cur = s._new_vertex(mask(ix, [Oid(1, 2)]))
        incoming = ProtoOp(ins("y", 0, 2, 1), Oid(2, 1), ix.bit(Oid(1, 1)))
        assert self.raised(s.xform, incoming) == "operation 2:1 lists itself in its context"

    def test_walk_edge_leads_to_a_mask_that_is_not_a_vertex(self):
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        s.append(op(ix, ins("z", 0, 1, 2), Oid(1, 2), ctx={Oid(1, 1)}))
        del s.vertices[mask(ix, [Oid(1, 1)])]
        incoming = op(ix, ins("y", 0, 2, 1), Oid(2, 1))
        assert self.raised(s.xform, incoming) == "xform: walk from [] reaches ['1:1'], which is not a vertex"

    def test_edge_order_breaks_a_strict_total_order(self):
        # Both server contexts name the other op, so each orders first.
        s = CssSpace(0, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1), sctx={Oid(2, 1)}))
        incoming = op(ix, ins("y", 0, 2, 1), Oid(2, 1), sctx={Oid(1, 1)})
        assert self.raised(s.xform, incoming) == "edge order at replica 0: 2:1 and 1:1 break a strict total order"
        # The op orders before the first edge and after the second.
        s = CssSpace(0, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1), sctx={Oid(2, 1)}))
        oracle_link(s, 0, s._new_vertex(mask(ix, [Oid(3, 1)])), op(ix, ins("w", 0, 3, 1), Oid(3, 1), sctx={Oid(1, 1)}))
        incoming = op(ix, ins("y", 0, 2, 1), Oid(2, 1), sctx={Oid(3, 1)})
        assert self.raised(s.xform, incoming) == "edge order at replica 0: 2:1 and 3:1 break a strict total order"

    def test_server_cannot_order(self):
        s = CssSpace(0, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        incoming = op(ix, ins("y", 0, 2, 1), Oid(2, 1))
        assert self.raised(s.xform, incoming) == (
            "server cannot order 2:1 and 1:1: both server contexts are silent"
        )

    def test_neither_context_decides(self):
        # Two remote ops at client 1, neither stamped with the other.
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.append(op(ix, ins("x", 0, 2, 1), Oid(2, 1)))
        incoming = op(ix, ins("y", 0, 3, 1), Oid(3, 1))
        assert self.raised(s.xform, incoming) == (
            "cannot order 3:1 and 2:1 at replica 1: neither context decides "
            "and the pair is not one local, one remote"
        )
