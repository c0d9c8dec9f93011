"""Record the workload digests that the benchmark's correctness gate
compares against.

    python3 perfbench/record.py

Verifies every workload once at offset 0 and at the held-out offset 1,
and writes perfbench/expected.json. A digest covers every trace's JSON bytes and each
public check's satisfied flag, so re-record only for a change that is
meant to alter one of them, and say so in that change.
"""

from __future__ import annotations

import json

from run import HERE, import_library


def main() -> int:
    import_library()
    import verify as V

    path = HERE / "expected.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name, workload in V.WORKLOADS.items():
        for offset in (0, 1):
            res = V.run_pass(V.generate(workload, offset, seed=0))
            if res.failures:
                raise SystemExit(f"{name} offset {offset}: failing schedules {sorted(res.failures)[:5]}")
            recorded.setdefault(name, {})[str(offset)] = res.digest
            print(name, offset, res.digest, flush=True)
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
