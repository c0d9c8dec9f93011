"""Command-line front door: replay canned or random scenarios, fuzz over
seed sweeps, run the specification checkers, and export DOT drawings.

Exit status is 0 only when every requested check lands as expected; an
--expect-violation flag inverts the expectation for a named check, which
is how the golden counterexample scenario is asserted in CI. A check that
does not land exits 1, a usage or schedule error 2, and a replay that
breaks a protocol invariant (ProtocolError) 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from . import checkers, dot, simnet
from .css_space import CssSnapshot, ProtocolError
from .simnet import Schedule


class UsageError(Exception):
    """Input the command cannot act on; main exits 2 with one line."""


def _checks(args: argparse.Namespace) -> Tuple[str, ...]:
    """The --check list, and each --expect-violation among it."""
    names = (s.strip() for s in args.check.split(","))
    checks = checkers.CHECKS if args.check == "all" else tuple(filter(None, names))
    if not checks:
        raise UsageError(f"--check {args.check!r} names no check")
    for c in checks:
        if c not in checkers.CHECKS:
            raise UsageError(f"unknown check {c!r}; pick from {', '.join(checkers.CHECKS)} or 'all'")
    for c in args.expect_violation:
        if c not in checks:
            raise UsageError(f"--expect-violation {c!r} is not a requested check ({','.join(checks)})")
    return checks


def _load_schedule(args: argparse.Namespace) -> Schedule:
    src = args.schedule
    if src == "random":
        if args.seed is None:
            raise UsageError("--schedule random needs --seed")
        clients = 3 if args.clients is None else args.clients
        ops = 6 if args.ops is None else args.ops
        return simnet.random_schedule(clients, ops, args.seed)
    flags = [f for f, v in (("--seed", args.seed), ("--clients", args.clients), ("--ops", args.ops)) if v is not None]
    if flags:
        raise UsageError(f"--schedule {src} takes no {', '.join(flags)}; only random does")
    if src == "builtin:podc16":
        return simnet.podc16_schedule()
    try:
        text = Path(src).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read schedule file {src}: {exc}") from None
    return simnet.schedule_from_json(text)


def _evaluate(report: checkers.Report, expect_violation: List[str]) -> bool:
    return all(c.verdict.satisfied != (c.check in expect_violation) for c in report.verdicts)


def _print_verdicts(report: checkers.Report, expect_violation: List[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps([c.verdict.to_json_dict() for c in report.verdicts], sort_keys=True, indent=2))
        return
    for check, _, v in report.verdicts:
        expected_violation = check in expect_violation
        if v.satisfied:
            mark = "OK" if not expected_violation else "SATISFIED (violation expected!)"
        else:
            mark = "VIOLATED (expected)" if expected_violation else "VIOLATED"
        line = f"{v.check}: {mark}"
        if v.witness and not v.satisfied:
            line += f"  witness: {json.dumps(v.witness, sort_keys=True)}"
        print(line)


def _out_dir(path: str) -> Path:
    """The directory at path, made if missing; UsageError unless a file can
    be written in it. Called before any replay."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"cannot write to {out_dir}: {exc}") from None
    return out_dir


def _write_outputs(out_dir: Path, report: checkers.Report, schedule: Schedule, protocol: str) -> None:
    """The verdicts and every replay's trace, the selected protocol's too when no check read it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = report.results
    if protocol not in results:
        results = {protocol: simnet.run(protocol, schedule), **results}
    for p, res in results.items():
        (out_dir / f"trace_{p}.json").write_text(simnet.trace_to_json(res.trace))
    doc = {"format": 1, "verdicts": [c.verdict.to_json_dict() for c in report.verdicts]}
    (out_dir / "verdicts.json").write_text(json.dumps(doc, sort_keys=True, indent=2))


def _write_schedule(out_dir: Path, schedule: Schedule) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "schedule.json").write_text(simnet.schedule_to_json(schedule))


def cmd_run(args: argparse.Namespace) -> int:
    checks = _checks(args)
    schedule = _load_schedule(args)
    out = _out_dir(args.out) if args.out else None
    report = checkers.verify(schedule, checks, (args.protocol,))
    if out:
        _write_outputs(out, report, schedule, args.protocol)
    _print_verdicts(report, args.expect_violation, args.format == "json")
    return 0 if _evaluate(report, args.expect_violation) else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    checks = _checks(args)
    for flag, value in (("--seeds", args.seeds), ("--clients", args.clients), ("--ops", args.ops)):
        if value < 1:
            raise simnet.ScheduleError(f"fuzz {flag} must be at least 1, got {value}")
    out_root = _out_dir(args.out) if args.out else None
    for i in range(args.seeds):
        seed = args.seed_start + i
        n_clients = 1 + seed % args.clients
        n_updates = 1 + (seed * 7) % args.ops
        schedule = simnet.random_schedule(n_clients, n_updates, seed)
        out = out_root / f"seed_{seed}" if out_root else None
        try:
            report = checkers.verify(schedule, checks, (args.protocol,))
        except ProtocolError as exc:
            if out:  # the schedule that broke the invariant is all there is to keep
                _write_schedule(out, schedule)
            raise ProtocolError(f"seed {seed}: {exc}") from None
        if not _evaluate(report, args.expect_violation):
            print(f"seed {seed} (clients={n_clients}, updates={n_updates}): FAILED")
            _print_verdicts(report, args.expect_violation, False)
            if out:
                _write_schedule(out, schedule)
                _write_outputs(out, report, schedule, args.protocol)
                print(f"  wrote failing artifacts under {out}")
            return 1
    print(f"fuzz: {args.seeds} seeds, checks [{', '.join(checks)}]: all passed")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    schedule = _load_schedule(args)
    out_dir = _out_dir(args.out)
    res = simnet.run(args.protocol, schedule)
    two_d = args.protocol == "jupiter"

    written: List[Path] = []

    def emit(name: str, snap: CssSnapshot, title: str) -> None:
        path = out_dir / f"{name}.dot"
        path.write_text(dot.css_to_dot(snap, title, two_d))
        written.append(path)

    # Each protocol fills only its own RunResult fields.
    finals = [("server" if rid == 0 else f"c{rid}", snap) for rid, snap in sorted(res.css_final.items())]
    finals += [(f"c{cid}", snap) for cid, snap in sorted(res.cscw_client_final.items())]
    for name, snap in finals:
        emit(name, snap, f"{args.protocol} {name}")
    for cid, snap in sorted(res.cscw_server_final.items()):
        emit(f"server_c{cid}", snap, f"jupiter server space for c{cid}")
    if args.steps:
        for rid, snaps in sorted({**res.css_client_steps, **res.cscw_client_steps}.items()):
            for k, snap in enumerate(snaps):
                emit(f"c{rid}_step{k}", snap, f"c{rid} step {k}")
        for k, snap in enumerate(res.css_server_steps):
            emit(f"server_step{k}", snap, f"server step {k}")
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otwb", description="replicated-list OT protocol workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option group is declared once, for every subcommand that takes it.
    def replay(p: argparse.ArgumentParser) -> None:
        p.add_argument("--protocol", choices=simnet.PROTOCOLS, default="cjupiter")

    def checking(p: argparse.ArgumentParser, default_check: str) -> None:
        p.add_argument("--check", default=default_check, help="comma list or 'all'")
        p.add_argument(
            "--expect-violation",
            action="append",
            default=[],
            metavar="CHECK",
            help="exit 0 only if this check reports a violation",
        )
        p.add_argument("--out", help="directory for traces, verdicts, artifacts")

    def schedule(p: argparse.ArgumentParser) -> None:
        p.add_argument("--schedule", required=True, help="file | builtin:podc16 | random")
        p.add_argument("--seed", type=int, help="random: seed (>= 0)")
        p.add_argument("--clients", type=int, help="random: clients (default 3)")
        p.add_argument("--ops", type=int, help="random: updates (default 6)")

    run_p = sub.add_parser("run", help="replay one schedule and check it")
    replay(run_p)
    checking(run_p, "all")
    run_p.add_argument("--format", choices=["text", "json"], default="text")
    schedule(run_p)
    run_p.set_defaults(func=cmd_run)

    fuzz_p = sub.add_parser("fuzz", help="sweep seeded random schedules")
    replay(fuzz_p)
    checking(fuzz_p, "equivalence")
    fuzz_p.add_argument("--seeds", type=int, required=True)
    fuzz_p.add_argument("--seed-start", type=int, default=0)
    fuzz_p.add_argument("--clients", type=int, default=4, help="max clients per seed")
    fuzz_p.add_argument("--ops", type=int, default=8, help="max updates per seed")
    fuzz_p.set_defaults(func=cmd_fuzz)

    dot_p = sub.add_parser("export-dot", help="render state spaces to DOT files")
    replay(dot_p)
    schedule(dot_p)
    dot_p.add_argument("--out", required=True)
    dot_p.add_argument("--steps", action="store_true", help="also one file per construction step")
    dot_p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except simnet.ScheduleError as exc:
        print(f"schedule error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
