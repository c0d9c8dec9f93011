"""The benchmark's correctness gate on every workload at offset 0, run by
the test suite: every verdict right, and the trace JSON bytes and verdict
flags of all its schedules equal to the recorded digest. `corpus` (podc16
and 1,000 small schedules) weighs on the trace bytes, `wide` on the
structural lemmas, `observe` on the spec checkers and the ot_sequence
lemma. `wide` is also checked on its held-out block at offset 1.
perfbench/ is only imported, never changed, and the digests are never
re-recorded here."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def verify(monkeypatch):
    # perfbench's modules import each other as top-level modules. No
    # bytecode is written, so that the tests leave perfbench/ as it was.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import verify

    return verify


@pytest.mark.parametrize("workload", ["corpus", "wide", "observe"])
def test_offset_0_matches_recorded_digest(verify, workload):
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    result = verify.run_pass(verify.generate(verify.WORKLOADS[workload], 0, seed=0))
    assert result.failures == {}
    assert result.digest == expected[workload]["0"]


def test_held_out_wide_matches_recorded_digest(verify):
    # Offset 1 is a disjoint block of generator seeds of the same shape,
    # so the digest checks what offset 0 was not tuned on.
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    result = verify.run_pass(verify.generate(verify.WORKLOADS["wide"], 1, seed=0))
    assert result.failures == {}
    assert result.digest == expected["wide"]["1"]
