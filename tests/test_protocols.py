"""Tests for the replica state machines."""

import pytest

from conftest import O1, O2, O3, O4, mask, plain, text_of
from otwb.css_space import Oid, OidIndex, ProtoOp, ProtocolError
from otwb.checkers import build_abstract_execution, check_strong_spec
from otwb.ot_core import Element, ListOp, to_text
from otwb.protocols import CJClient, CJServer, DJReplica, JServer
from otwb.simnet import (
    PROTOCOLS,
    BufferJupiter,
    DeliverStep,
    GenerateStep,
    OpSpec,
    Schedule,
    ScheduleError,
    podc16_schedule,
    random_schedule,
    run,
)


def remote_ins(replica, glyph, pos, cid, seq, ctx=(), sctx=()):
    """An insert addressed to replica, with its oid and contexts as a bit
    and masks of the replica's oid index."""
    index = replica.space.index
    oid = Oid(cid, seq)
    return ProtoOp(
        ListOp.ins(Element(glyph, cid, seq), pos),
        oid,
        index.bit(oid),
        mask(index, ctx),
        mask(index, sctx),
    )



class TestCJClientDo:
    def test_first_insert_from_empty(self):
        c1 = CJClient(1, OidIndex())
        msg = c1.do(c1.make_ins("x", 0))
        assert to_text(c1.state) == "x"
        assert msg.oid == Oid(1, 1)
        assert msg.bit == mask(c1.space.index, [Oid(1, 1)])
        assert msg.ctx == 0
        assert msg.sctx == 0

    def test_insert_after_remote_context(self):
        c3 = CJClient(3, OidIndex())
        c3.receive(remote_ins(c3, "x", 0, 1, 1))
        msg = c3.do(c3.make_ins("b", 1))
        assert to_text(c3.state) == "xb"
        assert msg.ctx == mask(c3.space.index, [O1])

    def test_delete_records_the_victim(self):
        c1 = CJClient(1, OidIndex())
        c1.do(c1.make_ins("x", 0))
        msg = c1.do(ListOp.del_(0))
        assert msg.o.element == Element("x", 1, 1)

    def test_delete_past_the_end_rejected(self):
        # A delete must name an element of the client's list, an empty
        # list included: do sends no Nop in its place, and leaves the
        # client as it was.
        c1 = CJClient(1, OidIndex())
        for length in range(3):
            for pos in (length, length + 2):
                before = (c1.state, c1.seq, c1.space.cur)
                with pytest.raises(ProtocolError, match=rf"^Del\(_,{pos}\) is out of range for a list of length {length}$"):
                    c1.do(ListOp.del_(pos))
                assert (c1.state, c1.seq, c1.space.cur) == before
            c1.do(c1.make_ins("x", 0))

    def test_foreign_element_identity_rejected(self):
        c1 = CJClient(1, OidIndex())
        alien = ListOp.ins(Element("x", 2, 1), 0)
        with pytest.raises(ProtocolError):
            c1.do(alien)


class TestCJServerReceive:
    def test_golden_sequence_of_lists(self, podc16_cj):
        server_lists = [
            text_of(e.value)
            for e in podc16_cj.trace.events
            if e.kind == "receive" and e.replica == 0
        ]
        assert server_lists == ["x", "", "a", "ba"]

    def test_first_op_stamped_empty(self):
        s = CJServer(2, OidIndex())
        r = s.receive(remote_ins(s, "x", 0, 1, 1))
        assert r.applied.sctx == 0

    def test_stamps_and_fans_out_original(self):
        s = CJServer(3, OidIndex())
        s.receive(remote_ins(s, "x", 0, 1, 1))
        r = s.receive(
            ProtoOp(
                ListOp.del_(0, element=Element("x", 1, 1)),
                O2,
                mask(s.space.index, [O2]),
                mask(s.space.index, [O1]),
            )
        )
        assert to_text(s.state) == ""
        assert [dst for dst, _ in r.fanout] == [2, 3]
        for _, forwarded in r.fanout:
            assert forwarded.oid == O2
            assert forwarded.sctx == mask(s.space.index, [O1])
            assert forwarded.o.position == 0  # the original, not a transform

    def test_locate_failure_propagates(self):
        s = CJServer(1, OidIndex())
        bad = remote_ins(s, "x", 0, 1, 2, ctx={Oid(9, 9)})
        with pytest.raises(ProtocolError):
            s.receive(bad)


class TestCJClientReceive:
    def test_transforms_against_pending_local(self):
        c3 = CJClient(3, OidIndex())
        c3.receive(remote_ins(c3, "x", 0, 1, 1))
        c3.do(c3.make_ins("b", 1))
        r = c3.receive(
            ProtoOp(
                ListOp.del_(0, element=Element("x", 1, 1)),
                O2,
                mask(c3.space.index, [O2]),
                mask(c3.space.index, [O1]),
                mask(c3.space.index, [O1]),
            )
        )
        assert to_text(c3.state) == "b"
        assert r.applied.o.sig() == "Del(x,0)"

    def test_c2_converges_to_ba(self, podc16_cj):
        c2_lists = [
            text_of(e.value)
            for e in podc16_cj.trace.events
            if e.replica == 2 and e.kind in ("do", "receive")
        ]
        assert c2_lists == ["x", "ax", "a", "ba", "ba"]  # final read included

    def test_op_at_cur_appends_without_ot(self):
        c1 = CJClient(1, OidIndex())
        r = c1.receive(remote_ins(c1, "x", 0, 2, 1))
        assert r.ot_seq == ()
        assert to_text(c1.state) == "x"


class TestRead:
    def test_empty_replica_reads_empty(self):
        assert CJClient(1, OidIndex()).state == ()
        assert CJServer(1, OidIndex()).state == ()

    def test_c2_intermediate_read(self):
        c2 = CJClient(2, OidIndex())
        c2.receive(remote_ins(c2, "x", 0, 1, 1))
        c2.do(c2.make_ins("a", 0))
        assert to_text(c2.state) == "ax"

    def test_server_reads_final_list(self, podc16_cj):
        # The server's state after its last receive is the converged list.
        assert text_of(podc16_cj.final_values[0]) == "ba"


class TestJupiter:
    def test_server_fans_out_transformed(self):
        index = OidIndex()
        s = JServer(3, index)
        c2 = CJClient(2, index)
        c1 = CJClient(1, index)
        op1 = c1.do(c1.make_ins("x", 0))
        r1 = s.receive(op1)
        c2.receive(r1.fanout[0][1])
        op2 = c1.do(ListOp.del_(0))
        s.receive(op2)
        op3 = c2.do(c2.make_ins("a", 0))
        r3 = s.receive(op3)
        # the forwarded operation carries the transformed context {o1,o2}
        for _, fwd in r3.fanout:
            assert fwd.ctx == mask(c1.space.index, [O1, O2])

    def test_client_receive_with_ctx_at_cur_needs_no_ot(self):
        c1 = CJClient(1, OidIndex())
        r = c1.receive(remote_ins(c1, "x", 0, 2, 1))
        assert r.ot_seq == ()

    def test_golden_run_matches_cjupiter(self, podc16_cj, podc16_j):
        def seqs(res):
            out = {}
            for e in res.trace.events:
                if e.kind in ("do", "receive"):
                    out.setdefault(e.replica, []).append(
                        (e.kind, e.op.oid if e.op else None, e.value)
                    )
            return out

        assert seqs(podc16_cj) == seqs(podc16_j)


class TestDJupiter:
    def test_generate_mirrors_client_do(self):
        r1 = DJReplica(1, OidIndex())
        msg = r1.do(r1.make_ins("x", 0))
        assert to_text(r1.state) == "x"
        assert msg.ctx == 0

    def test_own_operations_never_delivered(self):
        r1 = DJReplica(1, OidIndex())
        msg = r1.do(r1.make_ins("x", 0))
        with pytest.raises(ProtocolError):
            r1.receive(msg)

    def test_out_of_order_delivery_rejected(self):
        r3 = DJReplica(3, OidIndex())
        later = remote_ins(r3, "y", 0, 2, 1, sctx={O1})
        earlier = remote_ins(r3, "x", 0, 1, 1)
        r3.receive(later)
        with pytest.raises(ProtocolError):
            r3.receive(earlier)

    def test_own_operation_delivered_back_names_the_check(self):
        r1 = DJReplica(1, OidIndex())
        msg = r1.do(r1.make_ins("x", 0))
        with pytest.raises(ProtocolError, match="own operations are never delivered back"):
            r1.receive(msg)
        assert to_text(r1.state) == "x"

    def test_delivery_behind_broadcast_order_names_the_check(self):
        # 1:1 was committed before 3:1; then 4:1 arrives stamped as if 1:1
        # had never been committed, though its context is a vertex here.
        r2 = DJReplica(2, OidIndex())
        r2.receive(remote_ins(r2, "x", 0, 1, 1))
        r2.receive(remote_ins(r2, "y", 0, 3, 1, ctx={O1}, sctx={O1}))
        stale = remote_ins(r2, "z", 0, 4, 1, ctx={O1}, sctx={Oid(3, 1)})
        with pytest.raises(ProtocolError, match="delivery of 4:1 at replica 2 is behind the broadcast order"):
            r2.receive(stale)

    def test_single_replica_is_plain_sequential(self):
        sched = random_schedule(1, 6, seed=11)
        res = run("djupiter", sched)
        assert len(res.final_values) == 1

    def test_broadcast_in_server_order_reaches_ba(self, podc16_dj):
        assert {text_of(v) for v in podc16_dj.final_values.values()} == {"ba"}

    def test_simulation_matches_cjupiter_do_projection(self, podc16_cj, podc16_dj):
        def dos(res):
            return {
                r: [
                    (e.op.oid if e.op else None, e.value)
                    for e in res.trace.events
                    if e.kind == "do" and e.replica == r
                ]
                for r in (1, 2, 3)
            }

        assert dos(podc16_cj) == dos(podc16_dj)

    def test_simulation_on_random_schedules(self):
        for seed in (3, 17, 40):
            sched = random_schedule(3, 6, seed)
            cj = run("cjupiter", sched)
            dj = run("djupiter", sched)
            for r in range(1, 4):
                cj_dos = [
                    (e.op.oid, e.value)
                    for e in cj.trace.events
                    if e.kind == "do" and e.replica == r
                ]
                dj_dos = [
                    (e.op.oid, e.value)
                    for e in dj.trace.events
                    if e.kind == "do" and e.replica == r
                ]
                assert cj_dos == dj_dos


def client_events(result):
    """Per client, its (event kind, oid, list) sequence of do and receive
    events."""
    out = {}
    for e in result.trace.events:
        if e.replica and e.kind in ("do", "receive"):
            out.setdefault(e.replica, []).append((e.kind, e.op.oid, e.value))
    return out


class TestDJupiterMatchesCJupiter:
    def test_client_sequences_and_final_spaces(self):
        # DJReplica is a CJClient, so this pins the Sequencer's stamps and
        # order against CJServer's: each client sees the same events and
        # lists, and ends with the same space, edge order and sctx included.
        schedules = [podc16_schedule()]
        schedules += [random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s) for s in range(300)]
        schedules += [random_schedule(4, 16, seed=s) for s in range(20)]
        schedules += [random_schedule(3, 12, seed=s, read_probability=1.0) for s in range(20)]
        for sched in schedules:
            cj, dj = (run(p, sched, record_snapshots=False) for p in ("cjupiter", "djupiter"))
            assert client_events(dj) == client_events(cj)
            for c in range(1, sched.n_clients + 1):
                assert plain(dj.css_final[c].vertices) == plain(cj.css_final[c].vertices)


def mirrored(schedule):
    """The schedule with each client c renamed n + 1 - c; the server keeps
    its id 0."""
    n = schedule.n_clients

    def flip(rid):
        return rid and n + 1 - rid

    steps = tuple(
        GenerateStep(flip(s.cid), s.op) if isinstance(s, GenerateStep) else DeliverStep(flip(s.to), flip(s.frm))
        for s in schedule.steps
    )
    return Schedule(n, steps)


def buffer_events(schedule):
    """Per replica, server included, the (event kind, list) sequence of a
    BufferJupiter run of the schedule."""
    sim = BufferJupiter(schedule.n_clients)
    out = {}
    for step in schedule.steps:
        if isinstance(step, GenerateStep):
            rid, kind = step.cid, "do"
            if step.op.kind != "read":
                sim.generate(rid, step.op)
        else:
            rid, kind = step.to, "receive"
            sim.deliver(step)
        out.setdefault(rid, []).append((kind, sim.lists[rid]))
    return out


def replica_events(trace):
    """Per replica, the (event kind, list) sequence of a trace's do and
    receive events."""
    out = {}
    for e in trace.events:
        if e.kind in ("do", "receive"):
            out.setdefault(e.replica, []).append((e.kind, e.value or ()))
    return out


class TestBufferJupiterMatchesJupiter:
    # The 1D-buffer Jupiter shares only ot_core with the jupiter replay, so
    # this pins every replica's lists, the server's included, against an
    # independent implementation.
    def test_replica_sequences(self):
        schedules = [podc16_schedule(), mirrored(podc16_schedule())]
        schedules += [random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s) for s in range(300)]
        schedules += [random_schedule(4, 16, seed=s) for s in range(20)]
        schedules += [random_schedule(3, 12, seed=s, read_probability=1.0) for s in range(20)]
        for sched in schedules:
            assert buffer_events(sched) == replica_events(run("jupiter", sched, record_snapshots=False).trace)

    def test_concurrent_deletes_of_one_element_become_nop(self):
        steps = (
            GenerateStep(1, OpSpec("ins", "x", 0)),
            DeliverStep(0, 1),
            DeliverStep(2, 0),
            GenerateStep(1, OpSpec("del", pos=0)),
            GenerateStep(2, OpSpec("del", pos=0)),
            DeliverStep(0, 1),
            DeliverStep(0, 2),
            DeliverStep(2, 0),
            DeliverStep(1, 0),
        )
        sched = Schedule(2, steps)
        trace = run("jupiter", sched, record_snapshots=False).trace
        assert [e.op.kind for e in trace.events if e.kind == "receive"][-3:] == ["nop", "nop", "nop"]
        events = buffer_events(sched)
        assert events == replica_events(trace)
        assert [events[rid][-1][1] for rid in (0, 1, 2)] == [(), (), ()]


class TestMirroredClients:
    def test_mirrored_podc16_converges_to_ab(self):
        # Client ids only break insert ties, so mirroring them (c1 <-> c3)
        # flips the golden tie: every protocol converges to "ab" instead of
        # "ba", and the element order stays globally acyclic.
        sched = mirrored(podc16_schedule())
        for protocol in PROTOCOLS:
            res = run(protocol, sched)
            assert {text_of(v) for v in res.final_values.values()} == {"ab"}, protocol
            assert check_strong_spec(build_abstract_execution(res.trace)).satisfied, protocol

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mirrored_positions_past_the_end_are_a_schedule_error(self, protocol):
        # Positions are drawn for the unmirrored run's lists. Mirrored, the
        # ties break the other way, and at step 43 c2's list is shorter than
        # the delete's position; clamping it made the weak spec fail.
        with pytest.raises(ScheduleError, match="step 43: del at position 2 is out of range for c2's list of length 2"):
            run(protocol, mirrored(random_schedule(4, 16, seed=14)))


class TestCompactness:
    def test_all_spaces_identical_after_quiescence(self, podc16_cj):
        def shape(snap):
            return {
                key: tuple((e.oid, e.o.sig()) for e in edges)
                for key, edges in snap.vertices.items()
            }

        shapes = [shape(s) for _, s in sorted(podc16_cj.css_final.items())]
        assert all(s == shapes[0] for s in shapes[1:])

    def test_vertex_family_matches_figure(self, podc16_cj):
        expected = {
            frozenset(),
            frozenset({O1}),
            frozenset({O1, O2}),
            frozenset({O1, O3}),
            frozenset({O1, O4}),
            frozenset({O1, O2, O3}),
            frozenset({O1, O2, O4}),
            frozenset({O1, O2, O3, O4}),
        }
        for snap in podc16_cj.css_final.values():
            assert {frozenset(snap.index.decode(k)) for k in snap.vertices} == expected


class TestFanoutDiscipline:
    def _drive(self, server, clients, make_do):
        """Replay a fixed concurrent scenario, returning every
        (incoming op, server result) pair in arrival order."""
        pairs = []
        op1 = make_do(clients[1], "ins", "x", 0)
        r = server.receive(op1)
        pairs.append((op1, r))
        for i in (2, 3):
            clients[i].receive(r.fanout[0][1])
        op2 = make_do(clients[1], "del", None, 0)
        op3 = make_do(clients[2], "ins", "a", 0)
        op4 = make_do(clients[3], "ins", "b", 1)
        for op in (op2, op3, op4):
            pairs.append((op, server.receive(op)))
        return pairs

    @staticmethod
    def _do(client, kind, glyph, pos):
        o = client.make_ins(glyph, pos) if kind == "ins" else ListOp.del_(pos)
        return client.do(o)

    def test_cjupiter_forwards_the_stamped_original(self):
        index = OidIndex()
        pairs = self._drive(CJServer(3, index), {i: CJClient(i, index) for i in (1, 2, 3)}, self._do)
        for incoming, result in pairs:
            for _, payload in result.fanout:
                assert payload.oid == incoming.oid
                assert payload.o == incoming.o  # untransformed signature
                assert payload.ctx == incoming.ctx

    def test_jupiter_forwards_the_transform(self):
        index = OidIndex()
        pairs = self._drive(JServer(3, index), {i: CJClient(i, index) for i in (1, 2, 3)}, self._do)
        transformed = 0
        for incoming, result in pairs:
            for _, payload in result.fanout:
                assert payload is result.applied
                if payload.ctx != incoming.ctx:
                    transformed += 1
        assert transformed > 0  # concurrency forced at least one real OT
