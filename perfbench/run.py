"""otwb benchmark: end-to-end time to verify a workload of schedules.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src`
directory and from nowhere else. One process, one thread, a closed loop
that verifies one schedule at a time.

--trace 0 repeats whole untraced passes over the workload for about
--seconds and prints the end-to-end metrics, with the timings rescaled to
a nominal host speed by a reference loop timed all through the run.
--trace 1 makes one untraced and one traced pass, then times the fixed
scale ladder, prints the per-layer metrics and writes the spans to
perfbench/out/. The last
line of standard output is the result object; the line before it is the
full report, with units, the environment and the correctness details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Optional

from hostspeed import Clock, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_REFERENCE_EVERY_S = 0.02
WORKLOADS = ("corpus", "wide", "observe")


def import_library(clock: Optional[Clock] = None, repeats: int = 1) -> None:
    """Import otwb from this checkout only. Each of the `repeats` imports
    executes every otwb module afresh and is one item of `clock`."""
    for path in (SRC, HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    for _ in range(repeats):
        for name in [m for m in sys.modules if m.split(".")[0] == "otwb"]:
            del sys.modules[name]
        try:
            with clock.item() if clock is not None else nullcontext():
                import otwb
        except ImportError as exc:
            raise SystemExit(f"perfbench: cannot import otwb from {SRC}: {exc}")
        if not Path(otwb.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: otwb came from {otwb.__file__}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; "unknown" when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "debug": __debug__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload_name: str, seed: int, seconds: float, trace: bool, offset: int = 0,
            limit=None, ladder=None) -> dict:
    """Run the benchmark in this process and return its report.

    `limit` caps the generated schedules per workload, for the smoke test;
    the recorded digest is then not checked. `ladder` replaces the scale
    ladder of the traced run."""
    imports = Clock(every=0)
    import_library(imports, repeats=1 if trace else SETUP_REPEATS)
    import verify as V
    from spans import Tracer

    workload = V.WORKLOADS[workload_name]
    metrics = {}
    report = {"workload": workload_name, "seed": seed, "offset": offset, "trace": int(trace),
              "environment": environment()}

    if trace:
        setup_tracer = Tracer()
        schedules = V.generate(workload, offset, seed, limit, setup_tracer.span)
        untraced = V.run_pass(schedules)
        tracer = Tracer()
        t_traced = perf_counter()
        traced = V.run_pass(schedules, tracer)
        passes = [untraced, traced]
        reference_s, scale = speed_scale(untraced.reference + traced.reference)
        report.update(reference_ms=reference_s * 1e3, speed_scale=scale)
        metrics.update(layer_metrics(setup_tracer, tracer, traced, untraced))
        report["scaling"] = scale_ladder(ladder or V.LADDER, metrics)
        spans_path = HERE / "out" / f"spans-{workload_name}-offset{offset}-seed{seed}.jsonl"
        tracer.write(spans_path, t_traced)
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        # Set-up is import plus generation. Both are repeated, with the
        # reference loop timed between the items of each repetition, and
        # the median of the rescaled repetitions is kept.
        gens, gens_scaled = [], []
        schedules = None
        for _ in range(SETUP_REPEATS):
            clock = Clock(every=SETUP_REFERENCE_EVERY_S)
            again = V.generate(workload, offset, seed, limit, clock.item)
            gens.append(sum(clock.times))
            gens_scaled.append(sum(clock.scaled()))
            if schedules is not None and again != schedules:
                raise SystemExit("perfbench: schedule generation is not deterministic")
            schedules = again
        # Whole passes until --seconds would be overrun; always at least one.
        passes = []
        t0 = perf_counter()
        while not passes or perf_counter() - t0 + passes[-1].verify_s <= seconds:
            passes.append(V.run_pass(schedules))
        # Timings at nominal host speed (see hostspeed.py), and as wall
        # time in the report.
        reference_s, scale = speed_scale([x for p in passes for x in p.reference])
        lat = sorted(x for p in passes for x in p.scaled)
        wall_lat = sorted(x for p in passes for x in p.latencies)
        metrics["verify_s"] = statistics.median(p.scaled_verify_s for p in passes)
        metrics["verify_ms_p50"] = statistics.median(lat) * 1e3
        metrics["verify_ms_p90"] = p90(lat) * 1e3
        metrics["setup_s"] = statistics.median(imports.scaled()) + statistics.median(gens_scaled)
        wall = {
            "verify_s": statistics.median(p.verify_s for p in passes),
            "verify_ms_p50": statistics.median(wall_lat) * 1e3,
            "verify_ms_p90": p90(wall_lat) * 1e3,
            "setup_s": statistics.median(imports.times) + statistics.median(gens),
        }
        report.update(import_s=imports.times, generate_s=gens, samples=len(lat),
                      pass_verify_s=[p.verify_s for p in passes], wall=wall,
                      reference_ms=reference_s * 1e3, speed_scale=scale,
                      reference_samples=sum(len(p.reference) for p in passes))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Correctness gate: no pass and no ladder rung may fail a schedule,
    # every pass must give the same digest, and the digest must match the
    # one recorded for this offset.
    rungs = report.get("scaling", [])
    attempted = len(schedules) * len(passes) + len(rungs)
    failed = sum(len(p.failures) for p in passes) + sum(bool(r["failures"]) for r in rungs)
    digest = passes[0].digest
    expected = None
    if limit is not None:
        status = "not checked"
    else:
        recorded = json.loads((HERE / "expected.json").read_text())
        expected = recorded.get(workload_name, {}).get(str(offset))
        status = "not recorded" if expected is None else "match" if digest == expected else "mismatch"
    if any(p.digest != digest for p in passes):
        status = "differs between passes"
    if status in ("mismatch", "differs between passes"):
        failed = attempted
    metrics["failed_share"] = failed / attempted
    metrics["checkers.strong_violations"] = passes[0].strong_violations
    report.update(
        schedules=len(schedules), attempted=attempted, failed=failed,
        correct=failed == 0, digest=digest, expected_digest=expected, digest_status=status,
        failures=dict(list(passes[0].failures.items())[:10]), metrics=metrics,
    )
    return report


def layer_metrics(setup_tracer, tracer, traced, untraced) -> dict:
    m = {f"{name}.s": total for name, (total, _) in setup_tracer.totals().items()}
    totals = tracer.totals()
    m.update({f"{name}.s": total for name, (total, _) in totals.items()})
    m["checkers.check_structural.self_s"] = totals["checkers.check_structural"][1]
    # Snapshot cost: the snapshot-recording replays minus the traced-only
    # replays of the same schedules without snapshots.
    m["simnet.snapshot.s"] = sum(
        totals[f"simnet.run.{p}"][0] - totals[f"simnet.run_without_snapshots.{p}"][0]
        for p in ("cjupiter", "jupiter")
    )
    m.update(traced.counts)
    # How structural time grows with server-space vertices, over this
    # workload's schedules: the slope of log time against log V.
    points = [
        (math.log(traced.vertices[sid]), math.log(t))
        for sid, t in tracer.per_trace("checkers.check_structural").items()
        if traced.vertices[sid] > 1
    ]
    xs, ys = zip(*points) if points else ((), ())
    m["checkers.check_structural.growth_exponent"] = (
        statistics.linear_regression(xs, ys).slope if len(set(xs)) > 1 else 0.0
    )
    m["bench.untraced.verify_s"] = untraced.verify_s
    m["bench.traced.verify_s"] = traced.verify_s
    m["bench.tracing_overhead_s"] = traced.verify_s - untraced.verify_s
    return m


def scale_ladder(rungs, metrics) -> list:
    """V, H (of the cjupiter trace) and the time of every call and lemma
    of the pipeline on each rung of the fixed ladder."""
    import verify as V
    from spans import Tracer, traced_lemmas

    table = []
    for n, u in rungs:
        rung = f"{n}x{u}"
        tracer = Tracer()
        tracer.trace_id = f"ladder.{rung}"
        with traced_lemmas(tracer):
            out = V.verify(V.random_schedule(n, u, seed=V.LADDER_SEED), tracer.span)
        row = {"V": len(out.results[0].css_final[0].vertices), "H": len(out.per_trace[0].A.H)}
        row.update({f"{name}.s": total for name, (total, _) in tracer.totals().items()})
        metrics.update({f"ladder.{rung}.{k}": v for k, v in row.items()})
        table.append({"rung": rung, **row, "failures": V.failures(rung, out)})
    return table


def unit_of(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    if name.endswith((".s", "_s")):
        return "s"
    return "1" if name in ("failed_share", "checkers.check_structural.growth_exponent") else "count"


def result(report: dict, spec: dict) -> dict:
    """The result object: the end-to-end metrics of BENCHMARK.json, or its
    per-layer metrics for a traced run. Also gives every metric of the
    report its unit and lists the wanted ones the run did not produce: a
    layer that no longer exists, such as a deleted or merged lemma, reads
    0 there."""
    wanted = spec["per_layer" if report["trace"] else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = report["metrics"]
    report["absent"] = [m["name"] for m in wanted if m["name"] not in metrics]
    report["metrics"] = {k: {"value": v, "unit": unit_of(k, units)} for k, v in metrics.items()}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="order in which the schedules are verified")
    p.add_argument("--offset", type=int, default=0,
                   help="block of generator seeds; 0 is the fixed workload, others are held out")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.offset < 0:
        p.error("--offset must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.offset)
    final = result(report, spec)
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
