"""Deliberately broken replays, each a test-only monkeypatch: a mutant must
be caught by some verdict, or be shown equivalent (ROADMAP item 6)."""

import pytest

from otwb import checkers, css_space, ot_core, simnet
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


def verdicts(schedule):
    """Every verdict of verify, in its order, as (check, protocol, lemma,
    satisfied, witness)."""
    return [(c.check, c.protocol, c.verdict.check, c.verdict.satisfied, c.verdict.witness)
            for c in checkers.verify(schedule).verdicts]


def first_changes(schedules, before):
    """Per schedule whose verdicts differ from `before`, the (check,
    protocol) of the first verdict that differs."""
    changed = {}
    for name, schedule in schedules.items():
        after = verdicts(schedule)
        diff = [a[:2] for a, b in zip(after, before[name]) if a != b]
        if diff:
            changed[name] = diff[0]
    return changed


def patch_transform(monkeypatch, mutant):
    # Every module that imported transform holds its own name for it.
    for module in (ot_core, css_space, simnet):
        monkeypatch.setattr(module, "transform", mutant)


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
        transform = ot_core.transform

        def del_del_kept(o1, o2):
            if o1.kind is o2.kind is OpKind.DEL and o1.position == o2.position:
                return o1
            return transform(o1, o2)

        patch_transform(monkeypatch, del_del_kept)
        weak, convergence = ("weak", "cjupiter"), ("convergence", "cjupiter")
        assert first_changes(schedules, before) == {
            "corpus 9": weak, "corpus 17": weak, "corpus 35": weak, "corpus 42": weak,
            "corpus 43": weak, "corpus 65": weak, "corpus 90": convergence,
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
