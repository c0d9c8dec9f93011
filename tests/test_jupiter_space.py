"""Tests for the 2D state space: the ordered space as jupiter grows it."""

import pytest

from conftest import O1, O2, O3, O4, mask, oracle_link
from otwb.css_space import CssSpace, Oid, OidIndex, ProtoOp, ProtocolError, materialize
from otwb.ot_core import Element, ListOp, to_text
from otwb.protocols import CJClient, JServer
from otwb.simnet import random_schedule, run


def ins(glyph, pos, cid, seq):
    return ListOp.ins(Element(glyph, cid, seq), pos)


def op2d(index, o, oid, ctx=()):
    """A ProtoOp whose oid and context are a bit and a mask of index."""
    return ProtoOp(o, oid, index.bit(oid), mask(index, ctx))



def replay_podc16_jupiter():
    index = OidIndex()
    server = JServer(3, index)
    c = {i: CJClient(i, index) for i in (1, 2, 3)}
    op1 = c[1].do(c[1].make_ins("x", 0))
    r1 = server.receive(op1)
    for i in (2, 3):
        c[i].receive(r1.fanout[0][1])
    op2 = c[1].do(ListOp.del_(0))
    op3 = c[2].do(c[2].make_ins("a", 0))
    op4 = c[3].do(c[3].make_ins("b", 1))
    r2 = server.receive(op2)
    r3 = server.receive(op3)
    r4 = server.receive(op4)
    fwd = {2: r2.fanout[0][1], 3: r3.fanout[0][1], 4: r4.fanout[0][1]}
    c[2].receive(fwd[2])
    c[3].receive(fwd[2])
    c[1].receive(fwd[3])
    c[2].receive(fwd[4])
    c[3].receive(fwd[3])
    c[1].receive(fwd[4])
    return server, c, fwd


def all_snapshots(server, clients):
    return [s.snapshot() for s in server.spaces.values()] + [
        c.space.snapshot() for c in clients.values()
    ]


class TestAdd:
    def test_add_to_root_along_local(self):
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.append(op2d(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        assert len(s.vertices) == 2
        assert [(e.oid, e.bit) for e in s.vertices[0]] == [(Oid(1, 1), s.cur)]
        # An edge of another client's op goes before the owner's own.
        s.xform(op2d(ix, ins("y", 0, 2, 1), Oid(2, 1)))
        assert [e.oid for e in s.vertices[0]] == [Oid(2, 1), Oid(1, 1)]

    def test_mismatched_context_rejected(self):
        s = CssSpace(1, OidIndex())
        ix = s.index
        bad = op2d(ix, ins("x", 0, 1, 2), Oid(1, 2), ctx={Oid(1, 1)})
        with pytest.raises(ProtocolError):
            s.append(bad)

    def test_occupied_dimension_rejected(self):
        # Two ops of client 1 (local to owner 1) or of clients 1 and 2
        # (both global to owner 3) compete for one slot at the root, next
        # to a hand-built edge of the other side. No jupiter op carries a
        # server stamp, so compare_ops cannot order two ops of one side.
        for owner, second, walked in ((1, Oid(1, 2), Oid(2, 1)), (3, Oid(2, 1), Oid(3, 1))):
            s = CssSpace(owner, OidIndex())
            ix = s.index
            s.append(op2d(ix, ins("x", 0, 1, 1), Oid(1, 1)))
            oracle_link(s, 0, s._new_vertex(mask(ix, [walked])), op2d(ix, ins("w", 0, *walked), walked))
            message = f"cannot order {second.token()} and 1:1 at replica {owner}: .* not one local, one remote"
            with pytest.raises(ProtocolError, match=message):
                s.xform(op2d(ix, ins("y", 0, *second), second))

    def test_server_saves_transformed_op_along_global(self):
        server, _, fwd = replay_podc16_jupiter()
        ix = server.spaces[1].index
        # The forwarded o3 carries the server-transformed context {o1,o2}.
        assert fwd[3].ctx == mask(ix, [O1, O2])
        snap3 = server.spaces[3].snapshot()
        # o3 is global to c3's space, so its edge comes before c3's own o4.
        assert [e.oid for e in snap3.vertices[mask(ix, [O1, O2])]] == [O3, O4]
        assert snap3.rid == 3


class TestXform2D:
    def test_op_at_cur_passes_through(self):
        c1 = CJClient(1, OidIndex())
        incoming = op2d(c1.space.index, ins("x", 0, 2, 1), Oid(2, 1))
        result = c1.receive(incoming)
        assert result.applied.o == incoming.o
        assert result.ot_seq == ()

    def test_client_single_ot_against_local_op(self):
        # Client 3 transforms the forwarded insert against its own pending
        # one, ends at the four-op vertex with list "ba".
        _, clients, _ = replay_podc16_jupiter()
        c3 = clients[3]
        assert to_text(c3.state) == "ba"
        assert c3.space.cur == mask(c3.space.index, [O1, O2, O3, O4])

    def test_server_global_walk_transforms_o3(self):
        server, _, fwd = replay_podc16_jupiter()
        # o3 arrived with ctx {o1}; the server transformed it against o2
        # along the global dimension of c2's space.
        assert fwd[3].o.sig() == "Ins(a,0)"
        assert fwd[3].ctx == mask(server.spaces[2].index, [O1, O2])

    def test_missing_dimension_edge_is_integrity_error(self):
        s = CssSpace(1, OidIndex())
        s.append(op2d(s.index, ins("x", 0, 1, 1), Oid(1, 1)))
        # An own op located at the root walks the local edge there, and
        # compare_ops cannot order two local ops.
        incoming = op2d(s.index, ins("y", 0, 1, 2), Oid(1, 2))
        with pytest.raises(ProtocolError, match="cannot order 1:2 and 1:1 at replica 1: .* not one local, one remote"):
            s.xform(incoming)

    def test_cur_with_an_edge_is_integrity_error(self):
        # cur already holds a hand-built global edge, so the walk of a
        # remote op ends at a cur it cannot grow from.
        s = CssSpace(1, OidIndex())
        ix = s.index
        s.append(op2d(ix, ins("x", 0, 1, 1), Oid(1, 1)))
        g = op2d(ix, ins("y", 0, 2, 1), Oid(2, 1), ctx={Oid(1, 1)})
        oracle_link(s, s.cur, s._new_vertex(mask(ix, [Oid(1, 1), Oid(2, 1)])), g)
        with pytest.raises(ProtocolError, match=r"cur \['1:1'\] of replica 1 already has an edge"):
            s.xform(op2d(ix, ins("z", 0, 3, 1), Oid(3, 1)))


def jupiter_spaces():
    """Every final client and server space of jupiter runs: podc16 by hand,
    and the schedules of corpus seeds 0-99 and wide seeds 0-9."""
    server, clients, _ = replay_podc16_jupiter()
    yield "podc16", all_snapshots(server, clients)
    shapes = [(1 + s % 4, 1 + (s * 7) % 8, s) for s in range(100)] + [(4, 16, s) for s in range(10)]
    for n, k, s in shapes:
        res = run("jupiter", random_schedule(n, k, seed=s))
        yield f"({n},{k}) seed {s}", [*res.cscw_client_final.values(), *res.cscw_server_final.values()]


class TestStructure:
    def test_at_most_one_edge_per_dimension(self):
        # At most one global edge, first, and one own (local) edge.
        for name, snaps in jupiter_spaces():
            for snap in snaps:
                for edges in snap.vertices.values():
                    sides = [e.oid.cid == snap.rid for e in edges]
                    assert sides in ([], [True], [False], [False, True]), name

    def test_square_closure(self):
        # Wherever both dimensions leave a vertex, the transformed square
        # must be materialized.
        server, clients, _ = replay_podc16_jupiter()
        for snap in all_snapshots(server, clients):
            for src, edges in snap.vertices.items():
                if len(edges) < 2:
                    continue
                global_, local = edges
                corner = src | local.bit | global_.bit
                assert corner in snap.vertices
                via_local = snap.vertices[src | local.bit]
                via_global = snap.vertices[src | global_.bit]
                assert any(e.oid == global_.oid and e.bit == global_.bit for e in via_local)
                assert any(e.oid == local.oid and e.bit == local.bit for e in via_global)

    def test_materialized_lists_match_figure(self):
        _, clients, _ = replay_podc16_jupiter()
        snap = clients[3].space.snapshot()
        states = {k: to_text(v) for k, v in materialize(snap).items()}
        ix = snap.index
        assert states[mask(ix, [O1, O4])] == "xb"
        assert states[mask(ix, [O1, O2, O4])] == "b"
        assert states[mask(ix, [O1, O2, O3, O4])] == "ba"
        # c3 never materializes the {o1,o3} vertex in 2D form
        assert mask(ix, [O1, O3]) not in states
