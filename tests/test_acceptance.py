"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The fuzz corpus (the golden scenario plus 1,000 seeded schedules with up
to 4 clients and 8 updates) is verified once, by `checkers.verify`, in a
session fixture; each criterion asserts on the aggregated outcomes, and
criteria 3 and 9 also on the time of the whole pipeline.
"""

import itertools
import time
from dataclasses import dataclass
from typing import List

import pytest

from conftest import O1, O2, O3, O4, applicable, check_cp1, text_of
from otwb import checkers
from otwb.ot_core import Element, ListOp, OpKind
from otwb.simnet import podc16_schedule, random_schedule, run, trace_to_json

N_SEEDS = 1000


def corpus_shape(seed):
    return 1 + seed % 4, 1 + (seed * 7) % 8


@dataclass
class CorpusOutcome:
    seeds: int
    failures: List  # (schedule, requested check, protocol, verdict) of each violated verdict
    elapsed: float  # the whole pipeline's time, which criteria 3 and 9 bound

    def failed(self, name):
        """The failures of a requested check, or of one structural lemma."""
        return [f for f in self.failures if name in (f[1], f[3].check)]


@pytest.fixture(scope="session")
def corpus():
    schedules = [("podc16", podc16_schedule())]
    schedules += [
        (f"seed {s}", random_schedule(*corpus_shape(s), seed=s)) for s in range(N_SEEDS)
    ]
    failures = []
    t0 = time.perf_counter()
    for name, sched in schedules:
        report = checkers.verify(sched, ("equivalence", "structural", "weak", "convergence"))
        failures += [(name, *c) for c in report.verdicts if not c.verdict.satisfied]
    return CorpusOutcome(len(schedules), failures, time.perf_counter() - t0)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


class TestCriterion1GoldenRun:
    def test_podc16_intermediate_and_final_lists(self):
        t0 = time.perf_counter()
        res = run("cjupiter", podc16_schedule())
        elapsed = time.perf_counter() - t0
        server_lists = [
            text_of(e.value)
            for e in res.trace.events
            if e.kind == "receive" and e.replica == 0
        ]
        do_lists = {
            e.op.oid: text_of(e.value)
            for e in res.trace.events
            if e.kind == "do" and e.op.oid
        }
        finals = {r: text_of(v) for r, v in res.final_values.items()}
        ok = (
            server_lists == ["x", "", "a", "ba"]
            and do_lists["2:1"] == "ax"
            and do_lists["3:1"] == "xb"
            and finals == {0: "ba", 1: "ba", 2: "ba", 3: "ba"}
            and elapsed < 1.0
        )
        report(
            1,
            ok,
            f"server {server_lists}, c2 '{do_lists['2:1']}', c3 '{do_lists['3:1']}', "
            f"finals {sorted(finals.values())}, {elapsed:.3f}s < 1s",
        )


class TestCriterion2Compactness:
    def test_all_spaces_isomorphic_with_exact_vertex_family(self, podc16_cj):
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
        families_ok = all(
            {frozenset(snap.index.decode(k)) for k in snap.vertices} == expected
            for snap in podc16_cj.css_final.values()
        )

        def shape(snap):
            return {
                key: tuple((e.oid, e.o.sig()) for e in edges)
                for key, edges in snap.vertices.items()
            }

        shapes = [shape(s) for _, s in sorted(podc16_cj.css_final.items())]
        iso_ok = all(s == shapes[0] for s in shapes[1:])
        report(2, families_ok and iso_ok, "4 spaces isomorphic, 8 exact vertex oid-sets")


class TestCriterion3Equivalence:
    def test_jupiter_equals_cjupiter_on_corpus(self, corpus):
        mismatches = corpus.failed("equivalence")
        ok = not mismatches and corpus.elapsed < 60.0
        report(
            3,
            ok,
            f"{corpus.seeds} schedules, {len(mismatches)} mismatches, "
            f"{corpus.elapsed:.1f}s < 60s",
        )


class TestCriterion4ServerUnion:
    def test_server_union_on_corpus(self, corpus):
        failed = corpus.failed("server_union")
        report(4, not failed, f"{corpus.seeds} schedules, {len(failed)} union mismatches")


class TestCriterion5ClientSubgraph:
    def test_client_subgraph_on_corpus(self, corpus):
        failed = corpus.failed("client_subgraph")
        report(
            5, not failed, f"{corpus.seeds} schedules, {len(failed)} subgraph violations"
        )


class TestCriterion6Cp1Exhaustive:
    def test_exhaustive_cp1(self):
        t0 = time.perf_counter()

        def ops(tag):
            # Each insert's element originates at the client whose
            # priority breaks its ties.
            yield ListOp.nop()
            for pos in range(6):
                for cid in (1, 2, 3):
                    yield ListOp.ins(Element(tag, cid, pos + 1), pos)
                yield ListOp.del_(pos)

        checked = 0
        failures = 0
        bases = [
            tuple(Element(g, 9, i + 1) for i, g in enumerate("wxyz"[:length]))
            for length in range(5)
        ]
        for o1, o2 in itertools.product(list(ops("u")), list(ops("v"))):
            if o1.kind is o2.kind is OpKind.INS and o1.element.origin_cid == o2.element.origin_cid:
                continue  # concurrent inserts always originate at distinct clients
            for base in bases:
                if not (applicable(o1, base) and applicable(o2, base)):
                    continue
                checked += 1
                if not check_cp1(o1, o2, base):
                    failures += 1
        elapsed = time.perf_counter() - t0
        ok = failures == 0 and checked > 0 and elapsed < 30.0
        report(6, ok, f"{checked} applicable pairs, {failures} failures, {elapsed:.1f}s < 30s")


class TestCriterion7WeakSpecAndConvergence:
    def test_specs_hold_under_all_three_protocols(self, corpus):
        failed = corpus.failed("weak") + corpus.failed("convergence")
        detail = f"{corpus.seeds} schedules x 3 protocols, {len(failed)} failures"
        if failed:
            detail += f"; first: {failed[0]}"
        report(7, not failed, detail)


class TestCriterion8StrongSpecCounterexample:
    def test_golden_trace_violates_with_exact_cycle(self, podc16_cj):
        A = checkers.build_abstract_execution(podc16_cj.trace)
        verdict = checkers.check_strong_spec(A)
        ok = (not verdict.satisfied) and set(verdict.witness["elements"]) == {"a", "x", "b"}
        report(8, ok, f"violated={not verdict.satisfied}, witness elements {sorted(verdict.witness['elements'])}")


class TestCriterion9StructuralLemmas:
    def test_structural_lemmas_on_corpus(self, corpus):
        others = ("server_union", "client_subgraph")  # criteria 4 and 5
        lemmas = [f for f in corpus.failed("structural") if f[3].check not in others]
        ok = not lemmas and corpus.elapsed < 120.0
        detail = (
            f"{corpus.seeds} schedules, {len(lemmas)} lemma failures, "
            f"{corpus.elapsed:.1f}s < 120s"
        )
        if lemmas:
            detail += f"; first: {lemmas[0][:3]}, {lemmas[0][3].check}"
        report(9, ok, detail)


class TestCriterion10Determinism:
    def test_byte_identical_traces_across_reruns(self):
        ok = True
        for seed in (0, 137, 499, 999):
            sched = random_schedule(*corpus_shape(seed), seed=seed)
            for protocol in ("cjupiter", "jupiter", "djupiter"):
                a = trace_to_json(run(protocol, sched).trace)
                b = trace_to_json(run(protocol, sched).trace)
                ok = ok and a == b
        report(10, ok, "4 seeds x 3 protocols, byte-identical trace JSON")
