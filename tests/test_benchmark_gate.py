"""The benchmark's correctness gate on every workload at offset 0, run by
the test suite: every verdict right, and the trace JSON bytes and verdict
flags of all its schedules equal to the recorded digest. `corpus` (podc16
and 1,000 small schedules) weighs on the trace bytes, `wide` on the
structural lemmas, `observe` on the spec checkers and the ot_sequence
lemma. `wide` and `observe` are also checked on their held-out blocks at
offset 1; `observe` is read-heavy, and its reads share the list objects
that the trace encoder writes once. perfbench's own copy of the verify
pipeline is compared with `checkers.verify`, verdict by verdict, on
`corpus` and `wide`.
perfbench/ is only imported, never changed, and the digests are never
re-recorded here."""

import json
import sys
from pathlib import Path

import pytest

from otwb import checkers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def verify(monkeypatch):
    # perfbench's modules import each other as top-level modules. No
    # bytecode is written, so that the tests leave perfbench/ as it was.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import verify

    return verify


def assert_matches_recorded_digest(verify, workload, offset):
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    result = verify.run_pass(verify.generate(verify.WORKLOADS[workload], offset, seed=0))
    assert result.failures == {}
    assert result.digest == expected[workload][str(offset)]


@pytest.mark.parametrize("workload", ["corpus", "wide", "observe"])
def test_offset_0_matches_recorded_digest(verify, workload):
    assert_matches_recorded_digest(verify, workload, 0)


def test_held_out_wide_matches_recorded_digest(verify):
    # Offset 1 is a disjoint block of generator seeds of the same shape,
    # so the digest checks what offset 0 was not tuned on.
    assert_matches_recorded_digest(verify, "wide", 1)


def test_held_out_observe_matches_recorded_digest(verify):
    assert_matches_recorded_digest(verify, "observe", 1)


@pytest.mark.parametrize("workload", ["corpus", "wide"])
def test_perfbench_pipeline_agrees_with_checkers_verify(verify, workload):
    # perfbench keeps its own copy of the pipeline; check by check, it must
    # reach the verdicts and witnesses of checkers.verify. It runs no
    # djupiter structural bundle, so that one is left out.
    for _, schedule in verify.generate(verify.WORKLOADS[workload], 0, seed=0):
        out = verify.verify(schedule, verify.no_span)
        theirs = [("equivalence", None, out.equivalence)]
        theirs += [("structural", "cjupiter", v) for v in out.structural]
        for t in out.per_trace:
            spec = ("convergence", "weak", "strong", "compat")
            theirs += zip(spec, [t.protocol] * 4, (t.convergence, t.weak, t.strong, t.pairwise))
        ours = checkers.verify(schedule).verdicts
        assert {(c, p, v.check): v for c, p, v in ours if (c, p) != ("structural", "djupiter")} == {
            (c, p, v.check): v for c, p, v in theirs
        }
