"""Tests for the discrete-event harness: schedules, traces, causality."""

import dataclasses
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    empty_schedule,
    enabled_deliveries,
    happens_before,
    oracle_random_schedule,
    oracle_trace_to_json,
    text_of,
    validate_schedule,
    vc_less,
)
from otwb import simnet
from otwb.css_space import ProtocolError
from otwb.ot_core import Element
from otwb.simnet import (
    BROADCAST,
    DeliverStep,
    GenerateStep,
    OpRecord,
    OpSpec,
    PRNG_NAME,
    Schedule,
    ScheduleError,
    Simulation,
    Trace,
    TraceEvent,
    check_fifo,
    podc16_schedule,
    random_schedule,
    run,
    schedule_from_json,
    schedule_to_json,
    trace_to_json,
)

PROTOCOLS = ("cjupiter", "jupiter", "djupiter")


class TestRun:
    def test_golden_schedule_converges_everywhere(self, podc16_cj):
        assert {text_of(v) for v in podc16_cj.final_values.values()} == {"ba"}
        assert podc16_cj.quiescent

    def test_empty_schedule_empty_trace(self):
        res = run("cjupiter", empty_schedule())
        assert res.trace.events == ()
        assert all(v == () for v in res.final_values.values())

    def test_jupiter_replays_identically(self, podc16_cj, podc16_j):
        cj_lists = [
            (e.replica, text_of(e.value))
            for e in podc16_cj.trace.events
            if e.kind in ("do", "receive")
        ]
        j_lists = [
            (e.replica, text_of(e.value))
            for e in podc16_j.trace.events
            if e.kind in ("do", "receive")
        ]
        assert cj_lists == j_lists

    def test_identical_inputs_identical_traces(self):
        sched = random_schedule(3, 5, seed=42)
        a = trace_to_json(run("cjupiter", sched).trace)
        b = trace_to_json(run("cjupiter", sched).trace)
        assert a == b

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ScheduleError):
            run("rga", empty_schedule())


class TestScheduleValidation:
    def test_dangling_delivery_rejected(self):
        sched = Schedule(2, (DeliverStep(0, 1),))
        with pytest.raises(ScheduleError):
            validate_schedule(sched, "cjupiter")

    def test_overdrawn_channel_rejected(self):
        steps = (
            GenerateStep(1, OpSpec("ins", "x", 0)),
            DeliverStep(0, 1),
            DeliverStep(2, 0),
            DeliverStep(2, 0),  # only one message went to c2
        )
        with pytest.raises(ScheduleError):
            validate_schedule(Schedule(2, steps), "cjupiter")

    def test_unknown_client_rejected(self):
        sched = Schedule(2, (GenerateStep(5, OpSpec("ins", "x", 0)),))
        with pytest.raises(ScheduleError):
            validate_schedule(sched, "cjupiter")

    def test_read_needs_no_position(self):
        sched = Schedule(1, (GenerateStep(1, OpSpec("read")),))
        validate_schedule(sched, "cjupiter")

    def test_djupiter_delivery_skips_own_commits(self):
        steps = (
            GenerateStep(1, OpSpec("ins", "x", 0)),
            DeliverStep(0, 1),  # commit
            DeliverStep(1, 0),  # nothing foreign for c1
        )
        with pytest.raises(ScheduleError):
            validate_schedule(Schedule(2, steps), "djupiter")

    def test_valid_podc16_for_all_protocols(self):
        sched = podc16_schedule()
        for protocol in ("cjupiter", "jupiter", "djupiter"):
            validate_schedule(sched, protocol)


GENERATED_DIGEST = "1ce9f774dd1d70e950a10af680d00e63eaa9276225ccc379bbec507e6a3fd8c7"


def generated_digest():
    h = hashlib.sha256()
    for s in range(50):
        h.update(schedule_to_json(random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s)).encode() + b"\n")
    for s in range(5):
        h.update(schedule_to_json(random_schedule(4, 16, seed=s)).encode() + b"\n")
        h.update(schedule_to_json(random_schedule(3, 12, seed=s, read_probability=1.0)).encode() + b"\n")
    return h.hexdigest()


class TestRandomSchedule:
    def test_reproducible_across_calls(self):
        a = schedule_to_json(random_schedule(3, 4, seed=9))
        b = schedule_to_json(random_schedule(3, 4, seed=9))
        assert a == b

    def test_different_seeds_differ(self):
        a = schedule_to_json(random_schedule(3, 4, seed=1))
        b = schedule_to_json(random_schedule(3, 4, seed=2))
        assert a != b

    def test_single_client_is_plain_sequential(self):
        # Direct oracle: replay the generated updates on a plain list.
        sched = random_schedule(1, 8, seed=13)
        res = run("cjupiter", sched)
        naive = []
        for step in sched.steps:
            if isinstance(step, GenerateStep) and step.op.kind == "ins":
                naive.insert(min(step.op.pos, len(naive)), step.op.glyph)
            elif isinstance(step, GenerateStep) and step.op.kind == "del":
                if naive:
                    naive.pop(min(step.op.pos, len(naive) - 1))
        assert text_of(res.final_values[1]) == "".join(naive)

    def test_generated_elements_unique(self):
        sched = random_schedule(4, 8, seed=3)
        res = run("cjupiter", sched)
        seen = set()
        for e in res.trace.events:
            if e.kind == "do" and e.op.kind == "ins":
                assert e.op.element not in seen
                seen.add(e.op.element)

    def test_ends_quiescent_with_final_reads(self):
        sched = random_schedule(3, 5, seed=21)
        res = run("cjupiter", sched)
        assert res.quiescent
        reads = [e for e in res.trace.events if e.kind == "do" and e.op.kind == "read"]
        assert len(reads) >= 3

    def test_generated_bytes_match_recorded_digest(self):
        # One sha256 over the schedule JSON of the benchmark's corpus shapes
        # for seeds 0-49 and of its `wide` and `observe` shapes for seeds
        # 0-4. The generator draws over a BufferJupiter's lists, so a change
        # to it, or to the ot_core functions it calls, that alters any
        # generated schedule fails here.
        assert generated_digest() == GENERATED_DIGEST

    def test_generated_bytes_need_no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random_schedule replayed a Simulation")

        monkeypatch.setattr(simnet, "Simulation", refuse)
        assert generated_digest() == GENERATED_DIGEST

    # Any shape, seed and share of reads draws what the old draw loop over
    # a Simulation("jupiter") replay drew, and so does the ladder's top rung.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @example(n=16, u=128, seed=7, read_probability=0.15)
    @example(n=1, u=9, seed=3, read_probability=0.15)
    @example(n=3, u=0, seed=5, read_probability=1.0)
    @given(
        n=st.integers(1, 6),
        u=st.integers(0, 30),
        seed=st.integers(min_value=0),
        read_probability=st.sampled_from([0.0, 0.15, 1.0]),
    )
    def test_matches_the_oracle(self, n, u, seed, read_probability):
        assert random_schedule(n, u, seed, read_probability) == oracle_random_schedule(n, u, seed, read_probability)

    def test_draws_need_no_randint_choice_or_randrange(self, monkeypatch):
        # Only random() and getrandbits() draw, so the schedule bytes
        # depend on MT19937's output alone, not on how random.Random
        # writes its integer draws.
        shapes = [(1 + s % 4, 1 + (s * 7) % 8, s, 0.15) for s in range(100)]
        shapes += [(4, 16, s, 0.15) for s in range(10)]
        shapes += [(3, 12, s, 1.0) for s in range(10)]
        shapes += [(16, 128, 7, 0.15)]
        want = [oracle_random_schedule(*shape) for shape in shapes]

        def refuse(*args, **kwargs):
            raise AssertionError("random_schedule called a random.Random integer draw")

        for name in ("randint", "choice", "randrange"):
            monkeypatch.setattr(random.Random, name, refuse)
        assert [random_schedule(*shape) for shape in shapes] == want

    def test_bad_arguments_rejected(self):
        # Each would otherwise draw a schedule that schedule_from_json
        # rejects, draw another count than asked, or end in a TypeError.
        for args in ((0, 4, 1), (2, -1, 1), (True, 3, 1), (2.0, 3, 1), (2, 2.5, 1), (2, False, 1)):
            with pytest.raises(ScheduleError, match="^n_clients|^n_updates"):
                random_schedule(*args)
        for p in ("x", float("nan"), -0.1, 1.5, True, None):
            with pytest.raises(ScheduleError, match="^read_probability must be a number in"):
                random_schedule(2, 3, 1, read_probability=p)

    def test_negative_seed_rejected(self):
        # random.Random(-5) draws what Random(5) draws: -5 would be seed 5
        # under another prng tag and schedule digest.
        with pytest.raises(ScheduleError, match="seed must be an integer >= 0, got -5"):
            random_schedule(3, 6, seed=-5)


class TestScheduleJson:
    def test_round_trip(self):
        sched = random_schedule(3, 5, seed=77)
        text = schedule_to_json(sched)
        back = schedule_from_json(text)
        assert back == sched
        assert schedule_to_json(back) == text
        assert back.sha256 == sched.sha256

    def test_digest_computed_once_per_schedule(self):
        sched = random_schedule(3, 5, seed=77)
        want = hashlib.sha256(schedule_to_json(sched).encode()).hexdigest()
        assert "sha256" not in vars(sched)
        assert run("cjupiter", sched).trace.schedule_sha256 == want
        # Cached on the object: later runs of it reuse the first digest.
        assert vars(sched)["sha256"] == want
        assert run("jupiter", sched).trace.schedule_sha256 == sched.sha256 == want

    def test_format_field_checked(self):
        doc = json.loads(schedule_to_json(podc16_schedule()))
        doc["format"] = 99
        with pytest.raises(ScheduleError):
            schedule_from_json(json.dumps(doc))

    def test_priority_rule_is_smaller_wins_or_absent(self):
        doc = json.loads(schedule_to_json(podc16_schedule()))
        assert doc["priority_rule"] == "smaller_wins"
        del doc["priority_rule"]
        assert schedule_from_json(json.dumps(doc)) == podc16_schedule()

    @pytest.mark.parametrize("rule", ["larger_wins", 1, None, ["smaller_wins"]])
    def test_other_priority_rules_rejected(self, rule):
        doc = json.loads(schedule_to_json(podc16_schedule()))
        doc["priority_rule"] = rule
        with pytest.raises(ScheduleError, match="priority_rule must be 'smaller_wins'"):
            schedule_from_json(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_json("{nope")

    @pytest.mark.parametrize(
        "prng", ["ab", ["py-mt19937/v1"], ["py-mt19937/v1", {}], [1, 2], ["py-mt19937/v1", -1], ["x", True], None]
    )
    def test_prng_must_be_a_name_and_a_seed(self, prng):
        doc = json.loads(schedule_to_json(random_schedule(2, 2, seed=3)))
        doc["prng"] = prng
        with pytest.raises(ScheduleError, match="prng"):
            schedule_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            '{"format":1,"n_clients":2,"steps":[{"type":"generate","cid":"1","op":{"kind":"read"}}]}',
            '{"format":1,"n_clients":"2","steps":[]}',
            '{"format":1,"n_clients":1,"steps":[{"type":"generate","cid":1,'
            '"op":{"kind":"ins","glyph":"x","pos":"0"}}]}',
            '{"format":1,"n_clients":1,"steps":[{"type":"generate","cid":1,'
            '"op":{"kind":"ins","glyph":"x","pos":-3}}]}',
            "[1, 2]",
            '{"format":1,"n_clients":1,"steps":[7]}',
            '{"format":1,"n_clients":1,"steps":[{"type":"deliver","to":5,"from":"c1"}]}',
        ],
        ids=["str-cid", "str-n_clients", "str-pos", "negative-pos", "array", "bare-step", "int-replica"],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ScheduleError):
            schedule_from_json(doc)

    @pytest.mark.parametrize("end", ["to", "from"])
    @pytest.mark.parametrize("name", ["c0", "c01", "c\uff11"], ids=["c0", "c01", "fullwidth-c1"])
    def test_replica_names_that_alias_are_rejected(self, name, end):
        # c0 would read as the server and c01 or c１ as c1, so the schedule
        # written back, and its sha256, would not be the file's.
        doc = json.loads(schedule_to_json(podc16_schedule()))
        doc["steps"][1][end] = name
        with pytest.raises(ScheduleError, match="unknown replica name"):
            schedule_from_json(json.dumps(doc))


def shared_steps(schedule):
    """The schedule's deliveries and plain reads, after asserting that
    equal ones are one object."""
    one = {}
    repeated = [s for s in schedule.steps if isinstance(s, DeliverStep) or s.op == OpSpec("read")]
    for s in repeated:
        assert one.setdefault(s, s) is s, f"two objects for {s}"
    return repeated


class TestCompactSteps:
    STEPS = (OpSpec("ins", "x", 0), GenerateStep(1, OpSpec("read")), DeliverStep(0, 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_and_parsed_schedules_share_equal_steps(self, seed):
        sched = random_schedule(4, 16, seed=seed)
        repeated = shared_steps(sched)
        assert len(set(map(id, repeated))) < len(repeated)  # something repeats
        assert len(set(map(id, repeated))) <= 2 * 4 + 4
        text = schedule_to_json(sched)
        back = schedule_from_json(text)
        assert back == sched
        assert schedule_to_json(back) == text
        assert len(set(map(id, shared_steps(back)))) == len(set(repeated))

    def test_podc16_shares_equal_steps(self):
        sched = podc16_schedule()
        for s in (sched, schedule_from_json(schedule_to_json(sched))):
            repeated = shared_steps(s)
            assert (len(repeated), len(set(map(id, repeated)))) == (15, 9)

    @pytest.mark.parametrize("step", STEPS, ids=lambda s: type(s).__name__)
    def test_steps_are_slotted_and_frozen(self, step):
        assert not hasattr(step, "__dict__")
        with pytest.raises(TypeError):
            vars(step)
        field = dataclasses.fields(step)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(step, field, 2)

    def test_equality_hash_and_repr_unchanged(self):
        assert DeliverStep(0, 1) == DeliverStep(0, 1) != DeliverStep(1, 0)
        assert hash(GenerateStep(1, OpSpec("read"))) == hash(GenerateStep(1, OpSpec("read")))
        assert repr(self.STEPS[1]) == "GenerateStep(cid=1, op=OpSpec(kind='read', glyph=None, pos=None))"
        assert repr(self.STEPS[2]) == "DeliverStep(to=0, frm=1)"

    def test_replace_still_works(self):
        assert dataclasses.replace(self.STEPS[1], cid=2) == GenerateStep(2, OpSpec("read"))
        sched = podc16_schedule()
        digest = sched.sha256
        other = dataclasses.replace(sched, prng=(PRNG_NAME, 7))
        assert other.steps is sched.steps
        assert other.sha256 != digest == sched.sha256

    def test_corpus_schedules_retain_little(self):
        # tracemalloc bytes that the acceptance corpus's 1,001 schedules
        # retain, on CPython 3.11: 1.25 MB with slotted, shared steps, and
        # 3.17 MB when every step was its own dict-backed object.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            corpus = [podc16_schedule()] + [random_schedule(1 + s % 4, 1 + s * 7 % 8, seed=s) for s in range(1000)]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(corpus) == 1001
        assert retained < 1_560_000, f"the corpus schedules retain {retained} bytes"


class TestHappensBefore:
    def test_same_replica_events_ordered(self, podc16_cj):
        hb = happens_before(podc16_cj.trace)
        per_replica = {}
        for e in podc16_cj.trace.events:
            per_replica.setdefault(e.replica, []).append(e.index)
        for indices in per_replica.values():
            for i, a in enumerate(indices):
                for b in indices[i + 1 :]:
                    assert (a, b) in hb

    def test_o1_causally_precedes_o3(self, podc16_cj):
        hb = happens_before(podc16_cj.trace)
        do_of = {
            e.op.oid: e.index
            for e in podc16_cj.trace.events
            if e.kind == "do" and e.op and e.op.oid
        }
        assert (do_of["1:1"], do_of["2:1"]) in hb

    def test_o3_concurrent_with_o4(self, podc16_cj):
        hb = happens_before(podc16_cj.trace)
        do_of = {
            e.op.oid: e.index
            for e in podc16_cj.trace.events
            if e.kind == "do" and e.op and e.op.oid
        }
        assert (do_of["2:1"], do_of["3:1"]) not in hb
        assert (do_of["3:1"], do_of["2:1"]) not in hb

    def test_matches_brute_force_closure(self, podc16_cj):
        # Oracle: transitive closure of program order plus send->receive.
        for trace in (podc16_cj.trace, run("cjupiter", random_schedule(3, 6, 5)).trace,
                      run("djupiter", random_schedule(3, 6, 5)).trace):
            events = trace.events
            edges = set()
            last_at = {}
            for e in events:
                if e.replica in last_at:
                    edges.add((last_at[e.replica], e.index))
                last_at[e.replica] = e.index
            sends = {}
            for e in events:
                if e.kind == "send":
                    sends[e.msg_id] = e.index
            for e in events:
                if e.kind == "receive":
                    edges.add((sends[e.msg_id], e.index))
            closure = set(edges)
            changed = True
            while changed:
                changed = False
                for a, b in list(closure):
                    for c, d in list(closure):
                        if b == c and (a, d) not in closure:
                            closure.add((a, d))
                            changed = True
            assert happens_before(trace) == frozenset(closure)


class TestBroadcastOrder:
    def test_commit_order_extends_causal_order(self):
        # Linear-extension invariant: if one update causally precedes
        # another, it commits first.
        for seed in (4, 16, 37, 58):
            res = run("djupiter", random_schedule(3, 7, seed))
            hb = happens_before(res.trace)
            do_of = {
                e.op.oid: e.index
                for e in res.trace.events
                if e.kind == "do" and e.op and e.op.oid
            }
            order = {oid.token(): i for i, oid in enumerate(res.arrival_log)}
            for a, ia in order.items():
                for b, ib in order.items():
                    if (do_of[a], do_of[b]) in hb:
                        assert ia < ib


class TestTraceProperties:
    def test_fifo_on_every_protocol(self):
        for protocol in ("cjupiter", "jupiter", "djupiter"):
            for seed in (1, 8, 23):
                res = run(protocol, random_schedule(3, 6, seed))
                check_fifo(res.trace)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_receive_clock_below_its_send_rejected(self, protocol):
        # Forge each receive in turn with its own replica's component only,
        # or with a message name that nothing sent; djupiter's receives name
        # the relayed message's own send.
        events = run(protocol, podc16_schedule()).trace.events
        receives = [e for e in events if e.kind == "receive"]
        assert receives
        for e in receives:
            for forged, match in ((e._replace(vclock=tuple(t if k == e.replica else 0 for k, t in enumerate(e.vclock))),
                                   "not at least its send's"),
                                  (e._replace(msg_id="m0"), "which no earlier event sent")):
                trace = Trace(protocol, 3, "", tuple(forged if x is e else x for x in events))
                with pytest.raises(ProtocolError, match=match):
                    check_fifo(trace)

    def test_vector_clocks_strictly_increase_per_replica(self, podc16_cj):
        per_replica = {}
        for e in podc16_cj.trace.events:
            prev = per_replica.get(e.replica)
            if prev is not None:
                assert vc_less(prev, e.vclock)
            per_replica[e.replica] = e.vclock

    def test_trace_json_is_canonical(self, podc16_cj):
        text = trace_to_json(podc16_cj.trace)
        doc = json.loads(text)
        assert doc["format"] == 1
        assert doc["protocol"] == "cjupiter"
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == text


def escaping_schedule():
    """Two clients insert glyphs that JSON must escape: a quote, a
    backslash, a non-ASCII letter and a control character."""
    G, D = GenerateStep, DeliverStep
    steps = (
        G(1, OpSpec("ins", glyph='"', pos=0)),
        G(2, OpSpec("ins", glyph="\\", pos=0)),
        D(0, 1), D(0, 2), D(2, 0), D(1, 0),
        G(1, OpSpec("ins", glyph="\u00e9", pos=1)),
        G(2, OpSpec("ins", glyph="\x01", pos=0)),
        G(1, OpSpec("del", pos=0)),
        D(0, 2), D(0, 1), D(0, 1), D(1, 0), D(2, 0), D(2, 0),
        G(1, OpSpec("read")), G(2, OpSpec("read")),
    )
    return Schedule(2, steps)


class TestTraceBytesMatchOracle:
    """trace_to_json writes each object's keys in sorted order itself; the
    bytes equal those of the encoder sorting them."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_podc16(self, protocol):
        trace = run(protocol, podc16_schedule()).trace
        assert trace_to_json(trace) == oracle_trace_to_json(trace)

    def test_corpus_seeds(self):
        for s in range(50):
            schedule = random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s)
            for protocol in PROTOCOLS:
                trace = run(protocol, schedule).trace
                assert trace_to_json(trace) == oracle_trace_to_json(trace), (s, protocol)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize(
        "make",
        [lambda s: random_schedule(3, 12, seed=s, read_probability=1.0), lambda s: random_schedule(4, 16, seed=s)],
        ids=["observe", "wide"],
    )
    def test_observe_and_wide_seeds(self, make, protocol):
        # Reads and replicas that did not change share list objects, which
        # the encoder writes once.
        for s in range(20):
            trace = run(protocol, make(s), record_snapshots=False).trace
            assert trace_to_json(trace) == oracle_trace_to_json(trace), s

    def test_hand_built_lists_and_glyphs(self):
        glyphs = '"', "\\", "\u00e9", "\x01", "\U0001f600"
        elements = [Element(g, k + 1, 1) for k, g in enumerate(glyphs)]
        shared = tuple(elements)
        copy = tuple(list(shared))  # equal to shared, another object
        assert copy == shared and copy is not shared
        insert = OpRecord("ins", "5:1", elements[4], 4)
        events = (
            TraceEvent(0, 1, "do", (1, 0), insert, shared),
            TraceEvent(1, 1, "do", (2, 0), OpRecord("read"), shared),
            TraceEvent(2, 1, "send", (3, 0), None, None, "m1", 1, 0),
            TraceEvent(3, 0, "receive", (3, 1), insert, copy, "m1", 1, 0, ("5:1",)),
            TraceEvent(4, 0, "do", (3, 2), OpRecord("del", "1:2", elements[0], 0), shared[1:]),
        )
        trace = Trace("cjupiter", 1, "0" * 64, events, ("py-mt19937/v1", 7))
        text = trace_to_json(trace)
        assert text == oracle_trace_to_json(trace)
        assert text.count('"text":"\\"\\\\\\u00e9\\u0001\\ud83d\\ude00"') == 3

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_glyphs_that_need_escaping(self, protocol, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(schedule_to_json(escaping_schedule()))
        result = run(protocol, schedule_from_json(path.read_text()))
        assert {text_of(v) for v in result.final_values.values()} == {'\x01\u00e9"'}
        text = trace_to_json(result.trace)
        assert text == oracle_trace_to_json(result.trace)
        for escaped in ('"\\""', '"\\\\"', '"\\u00e9"', '"\\u0001"'):
            assert escaped in text

    # Small random schedules with any share of reads.
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        n=st.integers(1, 4),
        u=st.integers(0, 10),
        seed=st.integers(min_value=0),
        read_probability=st.floats(0, 1),
    )
    def test_random_schedules_match_the_oracle(self, protocol, n, u, seed, read_probability):
        trace = run(protocol, random_schedule(n, u, seed, read_probability), record_snapshots=False).trace
        assert trace_to_json(trace) == oracle_trace_to_json(trace)


def replayed_traces():
    """podc16, the corpus shapes of seeds 0-49 and the wide and observe
    shapes of seeds 0-19, each under every protocol."""
    schedules = [("podc16", podc16_schedule())]
    schedules += [(f"corpus {s}", random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s)) for s in range(50)]
    for s in range(20):
        schedules.append((f"wide {s}", random_schedule(4, 16, seed=s)))
        schedules.append((f"observe {s}", random_schedule(3, 12, seed=s, read_probability=1.0)))
    for name, schedule in schedules:
        for protocol in PROTOCOLS:
            yield f"{name} {protocol}", run(protocol, schedule, record_snapshots=False).trace


def is_element(x):
    return type(x) is Element and [type(m) for m in x] == [str, int, int]


def either(x, kind):
    return x is None or type(x) is kind


class TestTraceMemberTypes:
    """trace_to_json writes the member types its docstring names, and only
    those. Every event run() makes holds exactly them, so a change to what
    Simulation.step records fails here rather than as other JSON."""

    def test_run_makes_only_the_encoded_types(self):
        for name, trace in replayed_traces():
            peers = set(range(BROADCAST, trace.n_clients + 1))
            for e in trace.events:
                where = (name, e.index)
                assert type(e) is TraceEvent, where
                assert type(e.index) is int and type(e.replica) is int, where
                assert type(e.kind) is str and e.kind in ("do", "send", "receive"), where
                assert type(e.vclock) is tuple and {type(t) for t in e.vclock} == {int}, where
                if e.op is not None:
                    kind, oid, element, pos = e.op
                    assert type(e.op) is OpRecord and type(kind) is str, where
                    assert either(oid, str) and either(pos, int), where
                    assert element is None or is_element(element), where
                assert e.value is None or type(e.value) is tuple and all(map(is_element, e.value)), where
                assert either(e.msg_id, str), where
                for rid in (e.src, e.dst):
                    assert rid is None or type(rid) is int and rid in peers, where
                if e.ot_seq is not None:
                    assert type(e.ot_seq) is tuple and all(type(t) is str for t in e.ot_seq), where


class TestSimulation:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_rejects_overdrawn_channel(self, protocol):
        steps = (
            GenerateStep(1, OpSpec("ins", "x", 0)),
            DeliverStep(0, 1),
            DeliverStep(2, 0),
            DeliverStep(2, 0),  # only one message went to c2
        )
        with pytest.raises(ScheduleError):
            run(protocol, Schedule(2, steps))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_rejects_dangling_delivery(self, protocol):
        with pytest.raises(ScheduleError):
            run(protocol, Schedule(2, (DeliverStep(0, 1),)))

    @pytest.mark.parametrize(
        "step",
        [
            GenerateStep(1, OpSpec("ins", "x", -3)),
            GenerateStep(1, OpSpec("del")),
            GenerateStep(1, OpSpec("move", pos=0)),
            GenerateStep(0, OpSpec("read")),
            DeliverStep(1, 2),
        ],
    )
    def test_run_rejects_malformed_step(self, step):
        with pytest.raises(ScheduleError):
            run("cjupiter", Schedule(2, (step,)))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize(
        "spec, length",
        [
            (OpSpec("ins", "y", 2), 1),
            (OpSpec("del", pos=1), 1),
            (OpSpec("ins", "y", 1), 0),
            (OpSpec("del", pos=0), 0),
        ],
        ids=["ins past the end", "del at the end", "ins past an empty list", "del on an empty list"],
    )
    def test_position_out_of_range_is_rejected(self, protocol, spec, length):
        # An ins may go at the end of the list, and a del must name an
        # element; neither is clamped into the list.
        steps = (GenerateStep(1, OpSpec("ins", "x", 0)),) * length + (GenerateStep(1, spec),)
        message = f"step {length}: {spec.kind} at position {spec.pos} is out of range for c1's list of length {length}"
        with pytest.raises(ScheduleError, match=message):
            run(protocol, Schedule(1, steps))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_positions_at_the_boundaries_run(self, protocol):
        # An ins at the list's length and a del at its last element.
        steps = (
            GenerateStep(1, OpSpec("ins", "x", 0)),
            GenerateStep(1, OpSpec("ins", "y", 1)),
            GenerateStep(1, OpSpec("del", pos=1)),
        )
        assert run(protocol, Schedule(1, steps)).final_values[1] == (("x", 1, 1),)

    @pytest.mark.parametrize("protocol, kept", [("cjupiter", 20_131), ("jupiter", 6_772), ("djupiter", 17_637)])
    def test_run_result_keeps_no_object_per_edge(self, protocol, kept):
        # The GC-tracked objects that a run of random_schedule(8, 48, seed=7)
        # keeps, on CPython 3.11, where a space's edge is its operation. With
        # one (op, target) record per edge they were 29,473, 9,520 and
        # 25,941, each above 1.25x.
        sched = random_schedule(8, 48, seed=7)
        gc.collect()
        before = len(gc.get_objects())
        result = run(protocol, sched)
        gc.collect()
        tracked = len(gc.get_objects()) - before
        assert result.quiescent
        assert tracked < 1.25 * kept, f"a {protocol} run keeps {tracked} tracked objects"

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_insert_without_a_glyph_is_rejected(self, protocol):
        # No glyph is made up: BufferJupiter would insert the element (None, 1, 1).
        with pytest.raises(ScheduleError, match="step 0: ins needs a glyph"):
            run(protocol, Schedule(1, (GenerateStep(1, OpSpec("ins", pos=0)),)))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_generated_deliveries_are_enabled(self, protocol):
        for seed in (2, 11, 29):
            sched = random_schedule(3, 8, seed)
            sim = Simulation(protocol, sched.n_clients)
            for i, step in enumerate(sched.steps):
                if isinstance(step, DeliverStep):
                    assert step in enabled_deliveries(sim)
                sim.step(step, i)
            assert sim.quiescent()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_events_are_written_as_steps_run(self, protocol):
        # Each step appends its own events, with their final clocks, so
        # after every step the events are a prefix of run's trace.
        schedules = [podc16_schedule()] + [random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s) for s in range(40)]
        for sched in schedules:
            trace = run(protocol, sched).trace
            sim = Simulation(protocol, sched.n_clients)
            for i, step in enumerate(sched.steps):
                sim.step(step, i)
                assert tuple(sim.events) == trace.events[: len(sim.events)], (sched.prng, i)
            stepped = dataclasses.replace(trace, events=tuple(sim.events))
            assert trace_to_json(stepped) == trace_to_json(trace)


class TestReimport:
    def test_reimport_frees_every_earlier_copy(self):
        # Five fresh imports of otwb, each of which verifies podc16, then a
        # sixth: no class of the first five may stay alive. A class put into
        # typing's process-wide subscription cache (Sequence[CssSnapshot],
        # Union[GenerateStep, DeliverStep]) would keep its whole copy alive.
        script = (
            "import gc, inspect, sys, weakref\n"
            "def load():\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'otwb']:\n"
            "        del sys.modules[name]\n"
            "    import otwb\n"
            "    otwb.verify(otwb.podc16_schedule())\n"
            "    return [(f'{name}.{cls.__name__}', weakref.ref(cls))\n"
            "            for name, mod in sys.modules.items() if name.split('.')[0] == 'otwb'\n"
            "            for cls in vars(mod).values() if inspect.isclass(cls) and cls.__module__ == name]\n"
            "refs = [ref for _ in range(5) for ref in load()]\n"
            "load()\n"
            "gc.collect()\n"
            "print(len(refs), sorted({name for name, ref in refs if ref() is not None}))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        count, alive = proc.stdout.split(" ", 1)
        assert int(count) >= 5 * 30  # every copy's classes were watched
        assert alive.strip() == "[]"
