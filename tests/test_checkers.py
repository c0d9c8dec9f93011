"""Tests for the specification and structural checkers."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import empty_schedule, seen_masks, swapped_receives
from otwb import checkers, css_space, simnet
from otwb.checkers import (
    CHECKS,
    AbstractExecution,
    DoEvent,
    build_abstract_execution,
    build_list_order,
    check_convergence,
    check_equivalence,
    check_pairwise_compatibility,
    check_strong_spec,
    check_structural,
    check_weak_spec,
)
from otwb.cli import main
from otwb.css_space import Ord, ProtocolError
from otwb.simnet import PROTOCOLS, OpRecord, podc16_schedule, random_schedule, run


def elems(*tokens):
    """Tokens like 'a2' -> element ('a', 2, 1)."""
    return tuple((t[0], int(t[1:]), 1) for t in tokens)


def hand_execution(rows):
    """rows: (replica, kind, element_or_None, pos, value_tokens, visible_row_ids).

    Builds an AbstractExecution directly, without a trace.
    """
    H = []
    vis = set()
    for idx, (replica, kind, element, pos, value, visible) in enumerate(rows):
        op = OpRecord(kind, f"{replica}:{idx + 1}" if kind != "read" else None, element, pos)
        H.append(DoEvent(idx, replica, op, value, vclock=(0,) * 4))
        for v in visible:
            vis.add((v, idx))
    # close transitively
    changed = True
    while changed:
        changed = False
        for a, b in list(vis):
            for c, d in list(vis):
                if b == c and (a, d) not in vis:
                    vis.add((a, d))
                    changed = True
    return AbstractExecution(tuple(H), seen_masks(len(H), vis))


class TestBuildAbstractExecution:
    def test_empty_trace(self):
        A = build_abstract_execution(run("cjupiter", empty_schedule()).trace)
        assert A.H == ()
        assert A.vis == frozenset()

    def test_golden_visibility(self, podc16_cj):
        A = build_abstract_execution(podc16_cj.trace)
        by_oid = {e.op.oid: e.index for e in A.H if e.op.oid}
        assert (by_oid["1:1"], by_oid["2:1"]) in A.vis  # o1 visible to o3
        assert (by_oid["2:1"], by_oid["3:1"]) not in A.vis  # o3 || o4

    def test_single_replica_vis_is_total(self):
        A = build_abstract_execution(run("cjupiter", random_schedule(1, 5, 2)).trace)
        for a in A.H:
            for b in A.H:
                if a.index < b.index:
                    assert (a.index, b.index) in A.vis

    @pytest.mark.parametrize(
        "schedule",
        [podc16_schedule(), random_schedule(3, 12, seed=0, read_probability=1.0)],
        ids=["podc16", "observe-seed-0"],
    )
    def test_visibility_validated_once_per_execution(self, schedule, monkeypatch):
        validated = []
        validate = checkers._validate_visibility
        monkeypatch.setattr(checkers, "_validate_visibility", lambda A: validated.append(A) or validate(A))
        for k, protocol in enumerate(PROTOCOLS, 1):
            A = build_abstract_execution(run(protocol, schedule).trace)
            assert check_weak_spec(A).satisfied
            check_strong_spec(A)
            check_convergence(A)
            assert len(validated) == k and validated[-1] is A

    def test_hand_built_execution_validated_on_first_use(self):
        # Event 1 does not see event 0 of its own replica, which inserts a:
        # the builder's check refuses the execution, and the weak spec,
        # which needs no visibility axiom, blames the read for listing a.
        a = ("a", 1, 1)
        H = (DoEvent(0, 1, OpRecord("ins", "1:1", a, 0), (a,), ()), DoEvent(1, 1, OpRecord("read"), (a,), ()))
        A = AbstractExecution(H, (0, 0))
        with pytest.raises(ProtocolError, match="per-replica order must be visible"):
            checkers._validate_visibility(A)
        assert check_weak_spec(A).witness == {
            "condition": "1a", "event": 1, "replica": 1, "list": "a", "missing": [], "extra": [str(a)]}


class TestConvergence:
    def test_golden_reads_converge(self, podc16_cj):
        A = build_abstract_execution(podc16_cj.trace)
        assert check_convergence(A).satisfied

    def test_single_read_vacuous(self):
        A = hand_execution(
            [
                (1, "ins", ("x", 1, 1), 0, elems("x1"), []),
                (1, "read", None, None, elems("x1"), [0]),
            ]
        )
        assert check_convergence(A).satisfied

    def test_corrupted_trace_detected(self, podc16_cj):
        # Flip one read's returned list; the equal-visible-set pair breaks.
        trace = podc16_cj.trace
        events = list(trace.events)
        for i, e in enumerate(events):
            if e.kind == "do" and e.op.kind == "read":
                events[i] = e._replace(value=e.value[::-1])
                break
        corrupted = dataclasses.replace(trace, events=tuple(events))
        A = build_abstract_execution(corrupted)
        verdict = check_convergence(A)
        assert not verdict.satisfied
        assert set(verdict.witness["lists"]) == {"ba", "ab"}


class TestListOrder:
    def test_three_list_cycle_pairs(self):
        A = hand_execution(
            [
                (1, "read", None, None, elems("b3", "a2"), []),
                (2, "read", None, None, elems("a2", "x1"), []),
                (3, "read", None, None, elems("x1", "b3"), []),
            ]
        )
        lo = build_list_order(A)
        assert (("b", 3, 1), ("a", 2, 1)) in lo.pairs
        assert (("a", 2, 1), ("x", 1, 1)) in lo.pairs
        assert (("x", 1, 1), ("b", 3, 1)) in lo.pairs

    def test_single_list(self):
        A = hand_execution([(1, "read", None, None, elems("a1", "b1"), [])])
        assert build_list_order(A).pairs == {(("a", 1, 1), ("b", 1, 1))}

    def test_matches_pair_scan_oracle(self, podc16_cj):
        A = build_abstract_execution(podc16_cj.trace)
        lo = build_list_order(A)
        expected = set()
        for e in A.H:
            w = e.value
            for i in range(len(w)):
                for j in range(i + 1, len(w)):
                    expected.add((w[i], w[j]))
        assert lo.pairs == frozenset(expected)


class TestWeakSpec:
    def test_golden_run_satisfies(self, podc16_cj):
        A = build_abstract_execution(podc16_cj.trace)
        assert check_weak_spec(A).satisfied

    def test_all_protocols_satisfy_on_samples(self):
        for protocol in ("cjupiter", "jupiter", "djupiter"):
            for seed in (2, 9, 31):
                res = run(protocol, random_schedule(3, 6, seed))
                A = build_abstract_execution(res.trace)
                assert check_weak_spec(A).satisfied, (protocol, seed)

    def test_opposite_orders_violate(self):
        # Both 'ab' and 'ba' returned: condition 2 breaks inside one list.
        ins_a = ("a", 1, 1)
        ins_b = ("b", 2, 1)
        A = hand_execution(
            [
                (1, "ins", ins_a, 0, (ins_a,), []),
                (2, "ins", ins_b, 0, (ins_b,), []),
                (1, "read", None, None, (ins_a, ins_b), [0, 1]),
                (2, "read", None, None, (ins_b, ins_a), [0, 1]),
            ]
        )
        verdict = check_weak_spec(A)
        assert not verdict.satisfied
        assert verdict.witness["condition"] == "2"

    def test_missing_visible_insert_violates_1a(self):
        ins_a = ("a", 1, 1)
        A = hand_execution(
            [
                (1, "ins", ins_a, 0, (ins_a,), []),
                (1, "read", None, None, (), [0]),  # should contain a
            ]
        )
        verdict = check_weak_spec(A)
        assert not verdict.satisfied
        assert verdict.witness["condition"] == "1a"

    def test_wrong_insert_position_violates_1c(self):
        ins_a = ("a", 1, 1)
        ins_b = ("b", 1, 2)
        A = hand_execution(
            [
                (1, "ins", ins_a, 0, (ins_a,), []),
                # claims insertion at 0 but lands at index 1
                (1, "ins", ins_b, 0, (ins_a, ins_b), [0]),
            ]
        )
        verdict = check_weak_spec(A)
        assert not verdict.satisfied
        assert verdict.witness["condition"] == "1c"

    def test_repeated_element_is_a_duplicate_not_a_conflict(self):
        # The repeat in the read's list (a, b, a) puts (b, a) into the list
        # order, which event 1's list (a, b) contradicts. The repeat is
        # what is wrong, so it is reported at the event that returned it.
        a, b = ("a", 1, 1), ("b", 1, 2)
        A = hand_execution(
            [
                (1, "ins", a, 0, (a,), []),
                (1, "ins", b, 1, (a, b), [0]),
                (1, "read", None, None, (a, b, a), [0, 1]),
            ]
        )
        assert check_weak_spec(A).to_json_dict() == {"check": "weak_spec", "satisfied": False, "witness": {
            "condition": "2", "event": 2, "duplicate": "('a', 1, 1)"}}


class TestWeakSpecWitnessText:
    """Element text in weak-spec witnesses, pinned on a corrupted podc16
    cjupiter replay whose lists hold the replay's own elements. In its H,
    event 2 is c2's insert of a, returning "ax", and event 4 is c1's final
    read, returning "ba"."""

    @staticmethod
    def weak_with_read_value(podc16_cj, value_of):
        A = build_abstract_execution(podc16_cj.trace)
        H = list(A.H)
        e = H[4]
        H[4] = DoEvent(e.index, e.replica, e.op, value_of(A.H), e.vclock)
        return check_weak_spec(AbstractExecution(tuple(H), A.seen)).to_json_dict()

    def test_missing_and_extra(self, podc16_cj):
        # b kept, a dropped, the deleted x put back.
        verdict = self.weak_with_read_value(podc16_cj, lambda H: (H[4].value[0], H[2].value[1]))
        assert verdict == {"check": "weak_spec", "satisfied": False, "witness": {
            "condition": "1a", "event": 4, "replica": 1, "list": "bx",
            "missing": ["('a', 2, 1)"], "extra": ["('x', 1, 1)"]}}

    def test_duplicate(self, podc16_cj):
        verdict = self.weak_with_read_value(podc16_cj, lambda H: (*H[4].value, H[4].value[1]))
        assert verdict == {"check": "weak_spec", "satisfied": False, "witness": {
            "condition": "2", "event": 4, "duplicate": "('a', 2, 1)"}}


class TestStrongSpec:
    def test_golden_counterexample(self, podc16_cj):
        A = build_abstract_execution(podc16_cj.trace)
        verdict = check_strong_spec(A)
        assert not verdict.satisfied
        assert set(verdict.witness["elements"]) == {"a", "x", "b"}
        assert verdict.witness["cycle"] == ["a@2:1", "x@1:1", "b@3:1"]

    def test_cycle_without_a_witness_is_a_protocol_error(self, podc16_cj, monkeypatch):
        # Kahn's pass finds podc16's cycle; a search that then finds none
        # must not turn into a satisfied verdict.
        monkeypatch.setattr(checkers, "_shortest_cycle", lambda pairs: None)
        with pytest.raises(ProtocolError, match="no shortest cycle"):
            check_strong_spec(build_abstract_execution(podc16_cj.trace))

    def test_single_replica_satisfies(self):
        A = build_abstract_execution(run("cjupiter", random_schedule(1, 6, 4)).trace)
        assert check_strong_spec(A).satisfied

    def test_sequential_schedule_satisfies(self):
        # All deliveries complete before each next generate: one shared
        # total order, no cycles.
        from otwb.simnet import DeliverStep, GenerateStep, OpSpec, Schedule

        steps = []
        glyphs = "pqrs"
        for k, cid in enumerate((1, 2, 1, 2)):
            steps.append(GenerateStep(cid, OpSpec("ins", glyphs[k], k)))
            steps.append(DeliverStep(0, cid))
            steps.append(DeliverStep(2 if cid == 1 else 1, 0))
        steps += [GenerateStep(1, OpSpec("read")), GenerateStep(2, OpSpec("read"))]
        res = run("cjupiter", Schedule(2, tuple(steps)))
        A = build_abstract_execution(res.trace)
        assert check_strong_spec(A).satisfied
        assert check_weak_spec(A).satisfied

    def test_weak_implies_convergence_consistency(self, podc16_cj):
        # Checker consistency: wherever weak holds, convergence holds.
        for seed in (1, 5, 12):
            res = run("cjupiter", random_schedule(4, 7, seed))
            A = build_abstract_execution(res.trace)
            if check_weak_spec(A).satisfied:
                assert check_convergence(A).satisfied

    def test_strong_failure_decomposition(self, podc16_cj):
        # When the strong spec fails, either two states are incompatible
        # or the witness cycle spans three or more states.
        A = build_abstract_execution(podc16_cj.trace)
        strong = check_strong_spec(A)
        assert not strong.satisfied
        compat = check_pairwise_compatibility([e.value for e in A.H])
        assert (not compat.satisfied) or len(strong.witness["cycle"]) >= 3


class TestPairwiseCompatibility:
    def test_golden_states_compatible(self):
        assert check_pairwise_compatibility(
            [elems("b3", "a2"), elems("a2", "x1"), elems("x1", "b3")]
        ).satisfied

    def test_opposite_orders_incompatible(self):
        verdict = check_pairwise_compatibility([elems("a1", "b2"), elems("b2", "a1")])
        assert not verdict.satisfied
        assert verdict.witness["lists"] == ["ab", "ba"]

    def test_fuzzed_vertex_states_compatible(self):
        from otwb.css_space import materialize

        for seed in (6, 18):
            res = run("cjupiter", random_schedule(4, 8, seed))
            snap = res.css_final[0]
            states = materialize(snap)
            values = [
                tuple((e.glyph, e.origin_cid, e.origin_seq) for e in st)
                for st in states.values()
            ]
            assert check_pairwise_compatibility(values).satisfied


class TestEquivalence:
    def test_golden_equal(self, podc16_cj, podc16_j):
        assert check_equivalence(podc16_cj.trace, podc16_j.trace).satisfied

    def test_empty_equal(self):
        sched = empty_schedule()
        assert check_equivalence(
            run("cjupiter", sched).trace, run("jupiter", sched).trace
        ).satisfied

    def test_schedule_mismatch_rejected(self, podc16_cj):
        other = run("jupiter", random_schedule(3, 4, 1))
        with pytest.raises(ValueError):
            check_equivalence(podc16_cj.trace, other.trace)

    def test_divergence_reported_with_witness(self, podc16_cj, podc16_j):
        trace = podc16_j.trace
        events = list(trace.events)
        for i, e in enumerate(events):
            if e.kind == "receive" and e.replica == 2 and len(e.value) >= 2:
                events[i] = e._replace(value=e.value[::-1])
                break
        corrupted = dataclasses.replace(trace, events=tuple(events))
        verdict = check_equivalence(podc16_cj.trace, corrupted)
        assert not verdict.satisfied
        assert verdict.witness["replica"] == 2


class TestStructural:
    def test_schedule_mismatch_rejected(self, podc16_cj, podc16_j):
        # Vertex masks name oids by generation order, which only the same
        # schedule fixes, so two schedules' masks are not comparable.
        other = run("jupiter", random_schedule(3, 4, 1))
        with pytest.raises(ValueError, match="same schedule"):
            check_structural(podc16_cj, other)
        with pytest.raises(ValueError, match="same schedule"):
            check_structural(run("cjupiter", random_schedule(3, 4, 1)), podc16_j)

    def test_protocol_mismatch_rejected(self, podc16_cj, podc16_j, podc16_dj):
        # A jupiter run keeps no n-ary space, so as `result` every lemma
        # would hold with nothing checked; as jupiter_result, another run
        # has no per-client server spaces to take the union of.
        for jresult in (None, podc16_j):
            with pytest.raises(ValueError, match="a jupiter run goes in jupiter_result"):
                check_structural(podc16_j, jresult)
        for result in (podc16_cj, podc16_dj):
            for other in (podc16_cj, podc16_dj):
                with pytest.raises(ValueError, match=f"jupiter_result must be a jupiter run, got a {other.protocol} run"):
                    check_structural(result, other)

    def test_golden_bundle_all_pass(self, podc16_cj, podc16_j):
        verdicts = check_structural(podc16_cj, podc16_j)
        assert {v.check for v in verdicts} == {
            "nary_out_degree",
            "simple_path",
            "css_closure",
            "first_rule",
            "ot_sequence",
            "unique_lca",
            "disjoint_lca_paths",
            "vertex_compatibility",
            "space_isomorphism",
            "server_union",
            "client_subgraph",
        }
        for v in verdicts:
            assert v.satisfied, (v.check, v.witness)

    def test_single_client_linear_chain(self):
        sched = random_schedule(1, 5, seed=8)
        cj = run("cjupiter", sched)
        j = run("jupiter", sched)
        for v in check_structural(cj, j):
            assert v.satisfied

    def test_corrupted_snapshot_caught(self, podc16_cj, podc16_j):
        # Splice client 2's history in place of the server's: client 2
        # generates o3 where the server receives o2, and the per-step
        # first-edge characterization must notice.
        import copy

        broken = copy.copy(podc16_cj)
        broken.css_server_steps = podc16_cj.css_client_steps[2]
        verdicts = {v.check: v for v in check_structural(broken, podc16_j)}
        assert verdicts["first_rule"].witness == {
            "step": 2, "vertex": [], "path": ["1:1", "2:1"], "expected": ["1:1", "1:2"]}

    def test_step_lemmas_vacuous_without_snapshots(self, podc16_cj, podc16_j):
        # Without step snapshots no step was checked, and the verdicts say so.
        sched = podc16_cj.schedule
        cj = run("cjupiter", sched, record_snapshots=False)
        j = run("jupiter", sched, record_snapshots=False)
        verdicts = {v.check: v for v in check_structural(cj, j)}
        vacuous = {"vacuous": "no step snapshots recorded"}
        for name in ("first_rule", "client_subgraph"):
            assert verdicts[name].satisfied
            assert verdicts[name].witness == vacuous
        # Recorded runs keep no marker.
        recorded = {v.check: v for v in check_structural(podc16_cj, podc16_j)}
        for verdict in (recorded["first_rule"], recorded["client_subgraph"]):
            assert verdict.satisfied and verdict.witness is None
        # djupiter has no server space and no server receive, recorded or not.
        for dj in (run("djupiter", sched, record_snapshots=False), run("djupiter", sched)):
            verdicts = {v.check: v for v in check_structural(dj)}
            assert verdicts["first_rule"].witness == {"vacuous": "no server space"}
            assert verdicts["ot_sequence"].witness == {"vacuous": "no server receive"}
            assert verdicts["first_rule"].satisfied and verdicts["ot_sequence"].satisfied

    def test_djupiter_bundle_passes_without_server_checks(self, podc16_dj):
        verdicts = check_structural(podc16_dj)
        for v in verdicts:
            assert v.satisfied, (v.check, v.witness)
        names = {v.check for v in verdicts}
        assert "server_union" not in names
        assert "client_subgraph" not in names


def compat(A):
    return check_pairwise_compatibility([e.value for e in A.H])


SPEC = {"convergence": check_convergence, "weak": check_weak_spec, "strong": check_strong_spec, "compat": compat}
SCHEDULES = {
    "corpus": [podc16_schedule(), *(random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s) for s in range(50))],
    "wide": [random_schedule(4, 16, seed=s) for s in range(10)],
    "observe": [random_schedule(3, 12, seed=s, read_probability=1.0) for s in range(10)],
}


@pytest.fixture
def replays(monkeypatch):
    """The protocol of every simnet.run call; a call that passes
    record_snapshots is a TypeError, since every replay keeps its history."""
    real, seen = simnet.run, []

    def spy(protocol, schedule):
        seen.append(protocol)
        return real(protocol, schedule)

    monkeypatch.setattr(simnet, "run", spy)
    return seen


class TestVerify:
    @pytest.mark.parametrize("shape", sorted(SCHEDULES))
    @pytest.mark.parametrize("protocols", [(p,) for p in PROTOCOLS] + [PROTOCOLS])
    def test_verdicts_equal_the_direct_calls(self, shape, protocols):
        for sched in SCHEDULES[shape]:
            cj, j, dj = runs = [run(p, sched) for p in PROTOCOLS]
            As = {r.protocol: build_abstract_execution(r.trace) for r in runs if r.protocol in protocols}
            want = [(c, p, f(As[p])) for c, f in SPEC.items() for p in protocols]
            if "cjupiter" in protocols or "jupiter" in protocols:
                want += [("structural", "cjupiter", v) for v in check_structural(cj, j)]
            if "djupiter" in protocols:
                want += [("structural", "djupiter", v) for v in check_structural(dj)]
            want.append(("equivalence", None, check_equivalence(cj.trace, j.trace)))
            assert list(checkers.verify(sched, protocols=protocols).verdicts) == want

    def test_unknown_check_is_a_value_error(self, replays):
        with pytest.raises(ValueError, match="unknown check 'weak_spec'"):
            checkers.verify(podc16_schedule(), ("weak", "weak_spec"))
        assert replays == []

    @pytest.mark.parametrize("protocols", [(p,) for p in PROTOCOLS] + [PROTOCOLS])
    @pytest.mark.parametrize(
        "checks", [CHECKS, ("weak",), ("structural",), ("equivalence", "strong"), ("equivalence",)]
    )
    def test_each_replay_once(self, replays, checks, protocols):
        report = checkers.verify(podc16_schedule(), checks, protocols)
        structural = "structural" in checks and ("cjupiter" in protocols or "jupiter" in protocols)
        pair = ("cjupiter", "jupiter") if structural or "equivalence" in checks else ()
        # Equivalence alone reads no selected djupiter.
        read = tuple(p for p in protocols if checks != ("equivalence",) or p != "djupiter")
        assert replays == list(report.results) == list(dict.fromkeys(read + pair))

    def test_fuzz_default_replays_cjupiter_and_jupiter_per_seed(self, replays, capsys):
        assert main(["fuzz", "--seeds", "3"]) == 0
        assert replays == ["cjupiter", "jupiter"] * 3

    def test_fuzz_replays_no_protocol_that_no_check_reads(self, replays, capsys):
        # Equivalence reads cjupiter and jupiter only, so djupiter is not replayed.
        assert main(["fuzz", "--protocol", "djupiter", "--seeds", "2"]) == 0
        assert replays == ["cjupiter", "jupiter"] * 2

    def test_replay_that_breaks_fifo_is_a_protocol_error(self, monkeypatch):
        monkeypatch.setattr(simnet, "run", swapped_receives(simnet.run))
        with pytest.raises(ProtocolError, match=r"FIFO violation on channel \(0, 1\)"):
            checkers.verify(podc16_schedule(), ("weak",), ("cjupiter",))


class TestOptimizedInterpreter:
    def test_verdicts_unchanged_under_dash_O(self):
        # No verdict may rest on an assert, which python -O strips.
        script = (
            "import json\n"
            "from otwb import checkers, simnet\n"
            "scheds = [simnet.podc16_schedule()]\n"
            "scheds += [simnet.random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s) for s in range(30)]\n"
            "out = [[(c, p, v.to_json_dict()) for c, p, v in checkers.verify(s).verdicts]\n"
            "       for s in scheds]\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-c", script],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads(proc.stdout))
        assert outs[0] == outs[1]
        strong = [(p, v["satisfied"]) for c, p, v in outs[1][0] if c == "strong"]
        assert strong == [("cjupiter", False), ("jupiter", False), ("djupiter", False)]

    def test_broken_replay_invariants_caught_under_dash_O(self):
        # An edge order with a cycle (client 2's ops before 1's, 3's
        # before 2's, 1's before 3's), and a server whose per-client spaces
        # stop agreeing (it drops the ops it appends to a 2D space they
        # are global to), end in ProtocolError without asserts.
        script = (
            "from otwb import css_space, simnet\n"
            "from otwb.css_space import Ord, ProtocolError\n"
            "def attempt(protocol):\n"
            "    try:\n"
            "        simnet.run(protocol, simnet.podc16_schedule())\n"
            "    except ProtocolError as exc:\n"
            "        return str(exc)\n"
            "    return 'no error'\n"
            "css_space.compare_ops = lambda op, op2, rid: (\n"
            "    Ord.LEFT if (op.oid.cid - op2.oid.cid) % 3 == 1 else Ord.RIGHT)\n"
            "print(attempt('cjupiter'))\n"
            "append = css_space.CssSpace.append\n"
            "def skip_global(self, op):\n"
            "    if op.oid.cid == self.rid:\n"
            "        append(self, op)\n"
            "css_space.CssSpace.append = skip_global\n"
            "print(attempt('jupiter'))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        edge_order, spaces = proc.stdout.splitlines()
        assert edge_order == "edge order at replica 0: 3:1 and 1:2 break a strict total order"
        assert spaces == "per-client server spaces diverged"

    def test_always_left_edge_order_fails_the_verdicts(self, monkeypatch):
        # An edge order that puts every new edge first raises nothing in a
        # replay; the verdicts on podc16 catch it instead.
        watched = {("convergence", "cjupiter"), ("equivalence", None),
                   ("first_rule", "cjupiter"), ("space_isomorphism", "cjupiter")}

        def violated():
            verdicts = checkers.verify(podc16_schedule()).verdicts
            return {(v.check, p) for _, p, v in verdicts if not v.satisfied} & watched

        assert violated() == set()
        monkeypatch.setattr(css_space, "compare_ops", lambda op, op2, rid: Ord.LEFT)
        assert violated() == watched
