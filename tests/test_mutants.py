"""Deliberately broken replays, each a test-only monkeypatch: a mutant must
be caught by some verdict, or be shown equivalent (ROADMAP item 6)."""

from collections import Counter

import pytest

from otwb import checkers, cli, css_space, ot_core, protocols, simnet
from otwb.css_space import ProtocolError
from otwb.ot_core import OpKind
from otwb.simnet import (
    PROTOCOLS, SERVER_ID, DeliverStep, GenerateStep, Schedule, Simulation, podc16_schedule, random_schedule, run,
)


def corpus():
    """podc16 and the corpus shapes of seeds 0-99, by name. Generation
    reads ot_core.transform, so a transform mutant is patched only after
    this has run."""
    schedules = {"podc16": podc16_schedule()}
    schedules.update((f"corpus {s}", random_schedule(1 + s % 4, 1 + (s * 7) % 8, seed=s)) for s in range(100))
    return schedules


def corpus_and_wide():
    """corpus() and the `wide` shapes of seeds 0-99: 201 schedules."""
    return {**corpus(), **{f"wide {s}": random_schedule(4, 16, seed=s) for s in range(100)}}


@pytest.fixture(scope="module")
def baseline():
    """corpus_and_wide(), and each schedule's verdicts."""
    schedules = corpus_and_wide()
    return schedules, {name: verdicts(s) for name, s in schedules.items()}


def verdicts(schedule):
    """Every verdict of verify, in its order, as (check, protocol, lemma,
    satisfied, witness)."""
    return [(c.check, c.protocol, c.verdict.check, c.verdict.satisfied, c.verdict.witness)
            for c in checkers.verify(schedule).verdicts]


def first_changes(schedules, before):
    """Per schedule whose verdicts differ from `before`, the (check,
    protocol) of the first verdict that differs, or the error that verify
    raises instead, as "ErrorClass: message"."""
    changed = {}
    for name, schedule in schedules.items():
        try:
            after = verdicts(schedule)
        except (ProtocolError, simnet.ScheduleError) as exc:
            changed[name] = f"{type(exc).__name__}: {exc}"
            continue
        diff = [a[:2] for a, b in zip(after, before[name]) if a != b]
        if diff:
            changed[name] = diff[0]
    return changed


def tally(changes):
    """How many schedules first_changes names each (check, protocol), or
    each error class, for."""
    return Counter(c if isinstance(c, tuple) else c.split(":")[0] for c in changes.values())


def patch_transform(monkeypatch, mutant, modules=(ot_core, css_space, simnet)):
    # Every module that imported transform holds its own name for it.
    for module in modules:
        monkeypatch.setattr(module, "transform", mutant)


def mutant(applies, moved=lambda o1: o1):
    """transform, but o1 becomes moved(o1) wherever applies(o1, o2)."""
    transform = ot_core.transform
    return lambda o1, o2: moved(o1) if applies(o1, o2) else transform(o1, o2)


INS, DEL = OpKind.INS, OpKind.DEL
# Two deletions, o1 past o2: o1 forgets to shift left, so it can aim past its list's end.
DEL_DEL_UNSHIFTED = mutant(lambda o1, o2: o1.kind is o2.kind is DEL and o1.position > o2.position)
# An insert past a deletion: the same forgotten shift.
INS_DEL_UNSHIFTED = mutant(lambda o1, o2: o1.kind is INS and o2.kind is DEL and o1.position > o2.position)


@pytest.fixture
def receive_without_merge(monkeypatch):
    """A receive that ticks its replica's clock but does not merge the
    clock its message carries, so the receiver does not see the op."""
    event = Simulation._event

    def unmerged(self, rid, kind, *members):
        return event(self, rid, kind, *members[:6])  # all but `carried`, the last

    return lambda: monkeypatch.setattr(Simulation, "_event", unmerged)


def unchecked_verdicts(schedule):
    """What verify decides of weak and structural, from replays that
    check_fifo does not see: each protocol's weak verdict, then the
    cjupiter/jupiter structural verdicts, as (check, protocol, lemma,
    satisfied, witness)."""
    results = {p: run(p, schedule) for p in PROTOCOLS}
    out = [("weak", p, *weak_outcome(r.trace)) for p, r in results.items()]
    return out + [("structural", "cjupiter", v.check, v.satisfied, v.witness)
                  for v in checkers.check_structural(results["cjupiter"], results["jupiter"])]


def weak_outcome(trace):
    v = checkers.check_weak_spec(checkers.build_abstract_execution(trace))
    return v.check, v.satisfied, v.witness


def client_receives(schedule, protocol):
    return any(e.kind == "receive" and e.replica != SERVER_ID for e in run(protocol, schedule).trace.events)


class TestReceiveWithoutClockMerge:
    def test_podc16_weak_spec_fails_under_every_protocol(self, receive_without_merge):
        before = unchecked_verdicts(podc16_schedule())
        receive_without_merge()
        after = unchecked_verdicts(podc16_schedule())
        # c2 lists x, which it received, but x's insert is not visible to it.
        witness = {"condition": "1a", "event": 2, "replica": 2, "list": "ax",
                   "missing": [], "extra": ["('x', 1, 1)"]}
        assert [a for a, b in zip(after, before) if a != b] == [
            *(("weak", p, "weak_spec", False, witness) for p in PROTOCOLS),
            # c2's o3 does not see o1, so the server should have transformed it against o1 too.
            ("structural", "cjupiter", "ot_sequence", False,
             {"arrival": 2, "oid": "2:1", "transformed_against": ["1:2"], "expected": ["1:1", "1:2"]}),
        ]

    def test_caught_wherever_a_client_receives_an_operation(self, receive_without_merge):
        schedules = corpus()
        receiving = {p: {name for name, s in schedules.items() if client_receives(s, p)} for p in PROTOCOLS}
        assert all(len(names) == 76 and {"corpus 21", "corpus 77", "corpus 79"} <= names
                   for names in receiving.values())
        receive_without_merge()
        for p, names in receiving.items():
            for name in names:
                with pytest.raises(ProtocolError, match="not at least its send's"):
                    checkers.verify(schedules[name], protocols=(p,))

    def test_weak_spec_misses_three_receiving_schedules(self, receive_without_merge):
        schedules = corpus()
        before = {name: [weak_outcome(run(p, s).trace) for p in PROTOCOLS] for name, s in schedules.items()}
        receiving = {name for name, s in schedules.items() if client_receives(s, "cjupiter")}
        receive_without_merge()
        caught = {name for name, s in schedules.items()
                  if [weak_outcome(run(p, s).trace) for p in PROTOCOLS] != before[name]}
        assert len(receiving) == 76
        # In the three it misses, every insert a client receives is deleted
        # by an op it receives before its next do event, so each do event's
        # list is the same under the smaller visibility.
        assert caught == receiving - {"corpus 21", "corpus 77", "corpus 79"}


class TestTransformMutants:
    def test_del_del_at_one_position_kept(self, monkeypatch):
        # Two deletions of one position: o1 stays a Del instead of becoming
        # Nop, so it deletes a second element.
        schedules = corpus()
        before = {name: verdicts(s) for name, s in schedules.items()}
        patch_transform(monkeypatch, mutant(lambda o1, o2: o1.kind is o2.kind is DEL and o1.position == o2.position))
        # The second deletion aims past the end of a shorter list, which
        # apply rejects, wherever a replay reaches one.
        weak = ("weak", "cjupiter")
        assert first_changes(schedules, before) == {
            "corpus 9": weak, "corpus 42": weak,
            "corpus 17": "ProtocolError: Del(d,1) is out of range for a list of length 1",
            "corpus 35": "ProtocolError: Del(b,1) is out of range for a list of length 1",
            "corpus 43": "ProtocolError: Del(b,3) is out of range for a list of length 3",
            "corpus 65": "ProtocolError: Del(a,1) is out of range for a list of length 1",
            "corpus 90": "ProtocolError: Del(b,0) is out of range for a list of length 0",
        }

    def test_flipped_insert_tie_break_is_the_run_with_clients_renamed(self, monkeypatch):
        # An equivalent mutant: the larger client id winning a tie is the
        # smaller one winning with client c renamed n + 1 - c. Each verdict
        # is the same as on the renamed schedule, so no correctness verdict
        # can fail; only which schedules violate the strong spec moves.
        def renamed(schedule):
            n = schedule.n_clients
            name = lambda rid: rid if rid == SERVER_ID else n + 1 - rid
            return Schedule(n, tuple(
                GenerateStep(name(s.cid), s.op) if isinstance(s, GenerateStep) else DeliverStep(name(s.to), name(s.frm))
                for s in schedule.steps))

        def outcomes(schedule):
            return [v[:4] for v in verdicts(schedule)]

        schedules = corpus()
        want = {name: outcomes(renamed(s)) for name, s in schedules.items()}
        transform = ot_core.transform

        def larger_wins(o1, o2):
            if o1.kind is o2.kind is OpKind.INS and o1.position == o2.position and o1.element[1] != o2.element[1]:
                return o1 if o1.element[1] < o2.element[1] else o1._replace(position=o1.position + 1)
            return transform(o1, o2)

        patch_transform(monkeypatch, larger_wins)
        got = {name: outcomes(s) for name, s in schedules.items()}
        assert got == want
        failed = {(name, v[0]) for name, vs in got.items() for v in vs if not v[3]}
        assert {check for _, check in failed} == {"strong"}
        assert ("podc16", "strong") not in failed  # podc16 renamed meets the strong spec


def record_misfits(monkeypatch):
    """Patch apply where the replays and materialize read it, so that it
    first records each operation that does not fit its list; returns the
    list it records them in."""
    misfits = []
    apply = ot_core.apply

    def recording(state, o):
        if o.kind is INS and o.position > len(state) or o.kind is DEL and o.position >= len(state):
            misfits.append(o)
        return apply(state, o)

    for module in (css_space, protocols, simnet):
        monkeypatch.setattr(module, "apply", recording)
    return misfits


CONVERGENCE, WEAK, STRUCTURAL = ("convergence", "cjupiter"), ("weak", "cjupiter"), ("structural", "cjupiter")


class TestOvershootMutants:
    # A transform that forgets a left shift sends apply a position past
    # its list's end. apply rejects it, so verify raises ProtocolError on
    # exactly the schedules where some apply gets one; on the rest, a
    # verdict changes or none does.
    @pytest.mark.parametrize("mutant, rejected, other", [
        (DEL_DEL_UNSHIFTED, 77, {CONVERGENCE: 26, WEAK: 1}),
        (INS_DEL_UNSHIFTED, 126, {CONVERGENCE: 1}),
    ], ids=["del-del", "ins-del"])
    def test_verify_rejects_every_schedule_that_overshoots(self, baseline, monkeypatch, mutant, rejected, other):
        schedules, before = baseline
        patch_transform(monkeypatch, mutant)
        misfits = record_misfits(monkeypatch)
        changes, overshooting = {}, set()
        for name, schedule in schedules.items():
            misfits.clear()
            changes.update(first_changes({name: schedule}, before))
            if misfits:
                overshooting.add(name)
        raised = {name for name, change in changes.items() if isinstance(change, str)}
        assert raised == overshooting
        assert tally(changes) == {"ProtocolError": rejected, **other}
        assert all(" is out of range for a list of length " in changes[name] for name in raised)

    @pytest.mark.parametrize("argv, line", [
        (["run", "--schedule", "builtin:podc16"], "Ins(b,2) is out of range for a list of length 1"),
        (["fuzz", "--seeds", "4"], "seed 3: Ins(d,2) is out of range for a list of length 1"),
    ], ids=["run", "fuzz"])
    def test_cli_exits_3_with_one_line(self, monkeypatch, capsys, argv, line):
        # fuzz draws its schedules after the patch, so the mutant goes only
        # where the replays read transform.
        patch_transform(monkeypatch, INS_DEL_UNSHIFTED, (css_space,))
        assert cli.main(argv) == 3
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"protocol error: {line}\n")


class TestNeighbourMutants:
    # Three off-by-ones next to a real rule. None sends apply a position
    # past its list's end. A replica's list can still fall short of the
    # position that a schedule step was drawn for, which Simulation.step
    # reports as a ScheduleError.
    @pytest.mark.parametrize("mutant, first", [
        # An insert at a deleted position shifted left; at 0 it cannot be.
        (mutant(lambda o1, o2: o1.kind is INS and o2.kind is DEL and o1.position == o2.position > 0,
                lambda o1: o1._replace(position=o1.position - 1)),
         {CONVERGENCE: 90, WEAK: 3, STRUCTURAL: 2}),
        # A deletion at an inserted position, not shifted right.
        (mutant(lambda o1, o2: o1.kind is DEL and o2.kind is INS and o1.position == o2.position),
         {CONVERGENCE: 110, WEAK: 4, STRUCTURAL: 1, "ScheduleError": 4}),
        # An insert one past a concurrent insert, not shifted right.
        (mutant(lambda o1, o2: o1.kind is o2.kind is INS and o1.position == o2.position + 1),
         {CONVERGENCE: 131, WEAK: 3, "ScheduleError": 2}),
    ], ids=["ins-del-shifted-left", "del-ins-unshifted", "ins-ins-next-unshifted"])
    def test_caught_without_overshooting(self, baseline, monkeypatch, mutant, first):
        schedules, before = baseline
        patch_transform(monkeypatch, mutant)
        misfits = record_misfits(monkeypatch)
        assert tally(first_changes(schedules, before)) == first
        assert misfits == []
