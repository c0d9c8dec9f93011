"""The verify pipeline the benchmark times, its workloads and its
correctness gate.

One unit of work is one schedule: the acceptance-suite pipeline plus the
checks that `otwb run --check all` adds. Only the public library is
called here; `spans.py` decides whether a call is recorded.
"""

from __future__ import annotations

import gc
import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from otwb import checkers
from otwb.simnet import RunResult, Schedule, podc16_schedule, random_schedule, run, trace_to_json
from hostspeed import Clock
from spans import Tracer, no_span, traced_lemmas

PROTOCOLS = ("cjupiter", "jupiter", "djupiter")
PODC16 = "podc16"


# --------------------------------------------------------------------------
# Workloads. Their schedules stay fixed across commits, so that a run
# measures the program and not the luck of the draw: at offset 0 `corpus`
# is exactly the acceptance corpus. The seed only decides the order in
# which the schedules are verified. A non-zero offset selects a disjoint,
# held-out block of generator seeds of the same shapes.


def _corpus_shape(s: int) -> Tuple[int, int]:
    return 1 + s % 4, 1 + (s * 7) % 8


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # generator seeds per block
    make: Callable[[int], Schedule]
    with_podc16: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", 1000, lambda s: random_schedule(*_corpus_shape(s), seed=s), True),
        Workload("wide", 100, lambda s: random_schedule(4, 16, seed=s)),
        Workload("observe", 100, lambda s: random_schedule(3, 12, seed=s, read_probability=1.0)),
    )
}

# The ROADMAP's fixed single-schedule scale ladder; (8, 48) is left out
# because its structural bundle alone takes about 115 s.
LADDER = ((4, 8), (4, 16), (6, 32))
LADDER_SEED = 7


def generate(workload: Workload, offset: int, seed: int, limit: Optional[int] = None,
             span=no_span) -> List[Tuple[str, Schedule]]:
    """The workload's schedules as (id, schedule), in the seed's order.
    `limit` keeps only the first generator seeds of the block."""
    first = offset * workload.size
    count = workload.size if limit is None else min(limit, workload.size)
    out = [(PODC16, podc16_schedule())] if workload.with_podc16 else []
    for s in range(first, first + count):
        with span("simnet.random_schedule"):
            out.append((f"seed{s}", workload.make(s)))
    random.Random(seed).shuffle(out)
    return out


# --------------------------------------------------------------------------
# The pipeline


@dataclass
class TraceChecks:
    protocol: str
    A: checkers.AbstractExecution
    convergence: checkers.Verdict
    weak: checkers.Verdict
    strong: checkers.Verdict
    pairwise: checkers.Verdict


@dataclass
class Outcome:
    results: Tuple[RunResult, ...]
    texts: Tuple[str, ...]
    equivalence: checkers.Verdict
    structural: List[checkers.Verdict]
    per_trace: List[TraceChecks] = field(default_factory=list)


def verify(schedule: Schedule, span) -> Outcome:
    """Replay, serialize and check one schedule. `span(name)` is a context
    manager wrapped around every library call."""
    results = []
    for protocol in PROTOCOLS:
        with span(f"simnet.run.{protocol}"):
            results.append(run(protocol, schedule, record_snapshots=protocol != "djupiter"))
    texts = []
    for r in results:
        with span("simnet.trace_to_json"):
            texts.append(trace_to_json(r.trace))
    cj, j, _ = results
    with span("checkers.check_equivalence"):
        equivalence = checkers.check_equivalence(cj.trace, j.trace)
    with span("checkers.check_structural"):
        structural = checkers.check_structural(cj, j)
    out = Outcome(tuple(results), tuple(texts), equivalence, structural)
    for r in results:
        with span("checkers.build_abstract_execution"):
            A = checkers.build_abstract_execution(r.trace)
        with span("checkers.check_convergence"):
            convergence = checkers.check_convergence(A)
        with span("checkers.check_weak_spec"):
            weak = checkers.check_weak_spec(A)
        with span("checkers.check_strong_spec"):
            strong = checkers.check_strong_spec(A)
        with span("checkers.check_pairwise_compatibility"):
            pairwise = checkers.check_pairwise_compatibility([e.value for e in A.H])
        out.per_trace.append(TraceChecks(r.protocol, A, convergence, weak, strong, pairwise))
    return out


# --------------------------------------------------------------------------
# Correctness gate


def failures(sid: str, out: Outcome) -> List[str]:
    """Names of the checks that make this schedule's outcome wrong.

    A strong-spec violation is a finding, not a failure, except that the
    golden scenario must violate it under cjupiter with elements a, x, b.
    """
    bad = [v.check for v in (out.equivalence, *out.structural) if not v.satisfied]
    for t in out.per_trace:
        bad += [f"{t.protocol}.{v.check}" for v in (t.convergence, t.weak, t.pairwise)
                if not v.satisfied]
    if sid == PODC16:
        strong = out.per_trace[0].strong
        if strong.satisfied or set(strong.witness["elements"]) != {"a", "x", "b"}:
            bad.append("cjupiter.strong_spec counterexample")
    return bad


def schedule_digest(out: Outcome) -> str:
    """Hash of one schedule's trace JSON bytes and each public check's
    satisfied flag. Witness text and structural lemma names are left out
    on purpose: they may change while the verdicts stay the same."""
    h = hashlib.sha256()
    for text in out.texts:
        h.update(text.encode())
        h.update(b"\n")
    flags = [out.equivalence.satisfied, all(v.satisfied for v in out.structural)]
    for t in out.per_trace:
        flags += [t.convergence.satisfied, t.weak.satisfied, t.strong.satisfied,
                  t.pairwise.satisfied]
    h.update(bytes(int(f) for f in flags))
    return h.hexdigest()


def workload_digest(per_schedule: Dict[str, str]) -> str:
    """Independent of the order the schedules were verified in."""
    lines = "".join(f"{sid} {digest}\n" for sid, digest in sorted(per_schedule.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def outcome_counts(out: Outcome) -> dict:
    """Work counts read off the pipeline's outputs; they repeat exactly."""
    cj, j, _ = out.results
    server = cj.css_final[0]
    counts = {
        "css_space.vertices.sum": len(server.vertices),
        "css_space.vertices.max": len(server.vertices),
        "css_space.edges": sum(len(e) for e in server.vertices.values()),
        "css_space.snapshot_vertices": sum(
            len(s.vertices)
            for s in (*cj.css_server_steps, *(x for v in cj.css_client_steps.values() for x in v))
        ),
        "jupiter_space.vertices": sum(len(s.vertices) for s in j.cscw_server_final.values()),
        "jupiter_space.snapshot_vertices": sum(
            len(s.vertices) for v in j.cscw_client_steps.values() for s in v
        ),
        "simnet.trace_events": sum(len(r.trace.events) for r in out.results),
        "checkers.H": sum(len(t.A.H) for t in out.per_trace),
        "checkers.vis_pairs": sum(len(t.A.vis) for t in out.per_trace),
        "checkers.list_order_pairs": sum(
            len(checkers.build_list_order(t.A).pairs) for t in out.per_trace
        ),
    }
    for r in out.results:
        lens = [len(e.ot_seq) for e in r.trace.events if e.ot_seq is not None]
        counts[f"css_space.ot_seq_len.sum.{r.protocol}"] = sum(lens)
        counts[f"css_space.ot_seq_len.max.{r.protocol}"] = max(lens, default=0)
    return counts


def add_counts(total: dict, counts: dict) -> None:
    """Sum the counts over schedules; `max` counts keep the largest."""
    for k, v in counts.items():
        total[k] = max(total.get(k, 0), v) if ".max" in k else total.get(k, 0) + v


@dataclass
class PassResult:
    clock: Clock = field(default_factory=Clock)  # times every schedule's pipeline
    scaled: List[float] = field(default_factory=list)  # the same, at nominal host speed
    failures: Dict[str, List[str]] = field(default_factory=dict)
    strong_violations: int = 0
    digest: str = ""
    counts: dict = field(default_factory=dict)  # traced passes only
    vertices: Dict[str, int] = field(default_factory=dict)  # traced passes only

    @property
    def latencies(self) -> List[float]:  # wall time
        return self.clock.times

    @property
    def reference(self) -> List[float]:  # reference_work() times
        return self.clock.reference

    @property
    def verify_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_verify_s(self) -> float:
        return sum(self.scaled)


def run_pass(schedules: Sequence[Tuple[str, Schedule]], tracer: Optional[Tracer] = None) -> PassResult:
    """Verify every schedule once, one at a time, timing each pipeline.
    Between pipelines, untimed, the clock times the reference loop; each
    latency is also rescaled to the nominal host speed by the reference
    samples taken around it (see hostspeed.py).

    With a tracer, every library call and structural lemma gets a span
    whose trace id is the schedule id, and after each timed pipeline the
    snapshot-free replays and the work counts are taken untimed."""
    span = no_span if tracer is None else tracer.span
    res = PassResult()
    digests = {}
    gc.collect()
    with traced_lemmas(tracer) if tracer is not None else nullcontext():
        for sid, schedule in schedules:
            if tracer is not None:
                tracer.trace_id = sid
            with res.clock.item():
                out = verify(schedule, span)
            if tracer is not None:
                for protocol in ("cjupiter", "jupiter"):
                    with span(f"simnet.run_without_snapshots.{protocol}"):
                        run(protocol, schedule, record_snapshots=False)
                counts = outcome_counts(out)
                add_counts(res.counts, counts)
                res.vertices[sid] = counts["css_space.vertices.sum"]
            bad = failures(sid, out)
            if bad:
                res.failures[sid] = bad
            res.strong_violations += sum(not t.strong.satisfied for t in out.per_trace)
            digests[sid] = schedule_digest(out)
    res.digest = workload_digest(digests)
    res.scaled = res.clock.scaled()
    return res
