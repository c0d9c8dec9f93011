"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size on the held-out offset 1, untraced and
traced, and checks that the correctness gate passes and that every metric
of BENCHMARK.json, and every metric the report promises besides, appears
with its unit. The full scale ladder runs on one workload only, to keep
the test short. Exits non-zero on the first failure. It is kept out of
the pytest suite on purpose: it times real work (about 15 s on a 2-vCPU VM).
"""

from __future__ import annotations

import json
import sys

import run

# Metrics the report carries beyond BENCHMARK.json, with their units.
REPORT_ONLY = {
    False: {"failed_share": "1"},
    True: {
        "simnet.run_without_snapshots.cjupiter.s": "s",
        "simnet.run_without_snapshots.jupiter.s": "s",
        "ladder.6x32.checkers.lemma.first_rule.s": "s",
    },
}


def expect(ok: bool, *what) -> None:
    """Like assert, but also under `python -O`."""
    if not ok:
        raise SystemExit(f"smoke test failed: {what}")


def check(workload: str, trace: bool, full_ladder: bool, spec: dict) -> None:
    ladder = None if full_ladder else ((4, 8),)
    report = run.measure(workload, seed=3, seconds=0, trace=trace, offset=1, limit=2, ladder=ladder)
    final = run.result(report, spec)
    where = f"{workload} trace={int(trace)}"
    expect(set(final) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(final["correct"] and final["failed"] == 0 and final["attempted"] >= 1, (where, report["failures"]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = final["metrics"].get(m["name"])
        expect(got is not None and got["unit"] == m["unit"], (where, m["name"], got))
        expect(isinstance(got["value"], (int, float)), (where, m["name"], got))
    absent = report["absent"]
    if not full_ladder:
        absent = [n for n in absent if not n.startswith(("ladder.4x16.", "ladder.6x32."))]
    expect(not absent, (where, absent))
    for name, unit in REPORT_ONLY[trace].items():
        if full_ladder or not name.startswith("ladder.6x32."):
            expect(report["metrics"][name]["unit"] == unit, (where, name))
    if not trace:
        expect(all(final["metrics"][m["name"]]["value"] > 0 for m in wanted), (where, final))
    json.dumps(report)  # the report must serialize as it is printed
    print(f"ok {where}: {final['attempted']} attempted, {len(final['metrics'])} metrics", flush=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace in (False, True):
            check(workload, trace, full_ladder=workload == "observe", spec=spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
