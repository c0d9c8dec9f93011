"""Tests for the command-line interface."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import empty_schedule, swapped_receives
from otwb import simnet
from otwb.checkers import CHECKS
from otwb.cli import build_parser, main
from otwb.simnet import podc16_schedule, schedule_to_json


def invoke(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_golden_run_with_expected_violation(self, capsys):
        code, out, _ = invoke(
            [
                "run",
                "--protocol",
                "cjupiter",
                "--schedule",
                "builtin:podc16",
                "--check",
                "all",
                "--expect-violation",
                "strong",
            ],
            capsys,
        )
        assert code == 0
        assert "strong_spec: VIOLATED (expected)" in out
        assert "weak_spec: OK" in out
        assert "convergence: OK" in out

    def test_golden_run_without_expectation_fails(self, capsys):
        code, _, _ = invoke(
            ["run", "--schedule", "builtin:podc16", "--check", "strong"], capsys
        )
        assert code == 1

    def test_empty_schedule_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(schedule_to_json(empty_schedule()))
        code, _, _ = invoke(["run", "--schedule", str(path), "--check", "all"], capsys)
        assert code == 0

    def test_bad_schedule_file_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format":1,"n_clients":1,"steps":[{"type":"deliver","to":"server","from":"c1"}]}')
        code, _, err = invoke(["run", "--schedule", str(path), "--check", "all"], capsys)
        assert code == 2
        assert "schedule error" in err

    def test_delete_past_the_end_is_a_schedule_error(self, tmp_path, capsys):
        path = tmp_path / "past.json"
        path.write_text('{"format":1,"n_clients":1,"steps":[{"type":"generate","cid":1,"op":{"kind":"del","pos":0}}]}')
        assert invoke(["run", "--schedule", str(path)], capsys) == (
            2, "", "schedule error: step 0: del at position 0 is out of range for c1's list of length 0\n")

    def test_json_output_and_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = invoke(
            [
                "run",
                "--schedule",
                "builtin:podc16",
                "--check",
                "weak,strong",
                "--expect-violation",
                "strong",
                "--format",
                "json",
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert {v["check"] for v in doc} == {"weak_spec", "strong_spec"}
        verdicts = json.loads((out_dir / "verdicts.json").read_text())
        assert verdicts["format"] == 1
        assert (out_dir / "trace_cjupiter.json").exists()

    def test_other_priority_rule_is_a_schedule_error(self, tmp_path, capsys):
        # The smaller client id always wins an insert tie; a file naming
        # another rule would replay under a rule it does not ask for.
        doc = json.loads(schedule_to_json(podc16_schedule()))
        path = tmp_path / "s.json"
        for rule in ("larger_wins", 1):
            doc["priority_rule"] = rule
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = invoke(["run", "--schedule", str(path)], capsys)
            assert (code, out) == (2, "")
            assert err == f"schedule error: priority_rule must be 'smaller_wins', got {rule!r}\n"

    def test_random_schedule_via_seed_flag(self, capsys):
        code, _, _ = invoke(
            ["run", "--schedule", "random", "--seed", "19", "--clients", "3", "--ops", "5", "--check", "weak"],
            capsys,
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["run", "export-dot"])
    @pytest.mark.parametrize(
        "flags, named",
        [(["--seed", "3", "--clients", "9"], "--seed, --clients"), (["--ops", "6"], "--ops")],
        ids=["seed-clients", "ops"],
    )
    def test_random_only_flags_on_another_schedule_are_a_usage_error(self, command, flags, named, tmp_path, capsys):
        path = tmp_path / "podc16.json"
        path.write_text(schedule_to_json(podc16_schedule()))
        for src in ("builtin:podc16", str(path)):
            argv = [command, "--schedule", src, *flags]
            if command == "export-dot":
                argv += ["--out", str(tmp_path / "dots")]
            err = f"usage error: --schedule {src} takes no {named}; only random does\n"
            assert invoke(argv, capsys) == (2, "", err)

    @pytest.mark.parametrize(
        "argv",
        [["run", "--schedule", "random", "--seed", "-5"], ["fuzz", "--seeds", "2", "--seed-start", "-5"]],
        ids=["run", "fuzz"],
    )
    def test_negative_seed_is_a_schedule_error(self, argv, capsys):
        assert invoke(argv, capsys) == (2, "", "schedule error: seed must be an integer >= 0, got -5\n")

    def test_random_schedule_without_seed_is_a_usage_error(self, capsys):
        code, out, err = invoke(["run", "--schedule", "random"], capsys)
        assert code == 2
        assert out == ""
        assert err == "usage error: --schedule random needs --seed\n"

    def test_unreadable_schedule_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        code, out, err = invoke(["run", "--schedule", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot read schedule file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "export-dot"])
    def test_schedule_file_that_is_not_utf8_is_a_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
        argv = [command, "--schedule", str(path)]
        if command == "export-dot":
            argv += ["--out", str(tmp_path / "dots")]
        code, out, err = invoke(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot read schedule file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["c0", "c01", "c\uff11"], ids=["c0", "c01", "fullwidth-c1"])
    def test_replica_name_that_aliases_is_a_schedule_error(self, name, tmp_path, capsys):
        doc = json.loads(schedule_to_json(podc16_schedule()))
        doc["steps"][1]["from"] = name
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke(["run", "--schedule", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"schedule error: unknown replica name {name!r}\n"


class TestProtocolError:
    @pytest.mark.parametrize(
        "argv, prefix",
        [(["run", "--schedule", "builtin:podc16"], ""), (["fuzz", "--seeds", "2"], "seed 1: ")],
        ids=["run", "fuzz"],
    )
    def test_exits_3_with_one_line(self, argv, prefix, capsys, monkeypatch):
        # A replay whose trace breaks FIFO delivery: no traceback, status 3.
        monkeypatch.setattr(simnet, "run", swapped_receives(simnet.run))
        code, _, err = invoke(argv, capsys)
        assert code == 3
        assert err.startswith(f"protocol error: {prefix}FIFO violation on channel (0, ")
        assert err.count("\n") == 1

    def test_fuzz_keeps_the_schedule_that_broke_the_invariant(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simnet, "run", swapped_receives(simnet.run))
        code, _, err = invoke(["fuzz", "--seeds", "2", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert err.startswith("protocol error: seed 1: FIFO violation on channel (0, ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seed_1"]
        kept = simnet.schedule_from_json((tmp_path / "seed_1" / "schedule.json").read_text())
        assert kept == simnet.random_schedule(2, 8, 1)

    def test_out_writes_the_trace_of_a_protocol_no_check_reads(self, tmp_path, capsys):
        argv = ["run", "--protocol", "djupiter", "--check", "equivalence", "--schedule", "builtin:podc16"]
        code, _, _ = invoke(argv + ["--out", str(tmp_path)], capsys)
        assert code == 0
        names = ["trace_cjupiter.json", "trace_djupiter.json", "trace_jupiter.json", "verdicts.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        want = simnet.trace_to_json(simnet.run("djupiter", podc16_schedule()).trace)
        assert (tmp_path / "trace_djupiter.json").read_text() == want


class TestCheckSelection:
    @pytest.mark.parametrize("command", [["run", "--schedule", "builtin:podc16"], ["fuzz", "--seeds", "3"]])
    @pytest.mark.parametrize(
        "check, expect, err",
        [
            (",", [], "--check ',' names no check"),
            ("", [], "--check '' names no check"),
            ("weak,strng", [], f"unknown check 'strng'; pick from {', '.join(CHECKS)} or 'all'"),
            ("weak", ["strong"], "--expect-violation 'strong' is not a requested check (weak)"),
            ("all", ["strng"], f"--expect-violation 'strng' is not a requested check ({','.join(CHECKS)})"),
        ],
        ids=["comma", "empty", "unknown", "expect-unrequested", "expect-unknown"],
    )
    def test_refused_before_any_replay(self, command, check, expect, err, capsys, monkeypatch):
        flags = ["--check", check, *(f"--expect-violation={c}" for c in expect)]
        calls = []
        monkeypatch.setattr(simnet, "run", lambda *a, **k: calls.append(a))
        assert invoke(command + flags, capsys) == (2, "", f"usage error: {err}\n")
        assert calls == []


class TestFuzz:
    @pytest.mark.parametrize(
        "flag, value", [("--clients", "0"), ("--ops", "0"), ("--seeds", "-1")]
    )
    def test_count_below_one_is_a_usage_error(self, flag, value, capsys):
        argv = ["fuzz", "--seeds", "2", flag, value]
        code, out, err = invoke(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"schedule error: fuzz {flag} must be at least 1, got {value}\n"

    def test_format_is_a_usage_error(self, capsys):
        # fuzz prints text lines only, so --format is run's flag alone.
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--seeds", "1", "--check", "strong", "--expect-violation", "strong", "--format", "json"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "unrecognized arguments: --format json" in out.err

    def test_small_equivalence_sweep(self, capsys):
        code, out, _ = invoke(
            ["fuzz", "--seeds", "25", "--clients", "4", "--ops", "8", "--check", "equivalence"],
            capsys,
        )
        assert code == 0
        assert "all passed" in out

    def test_expected_violation_sweep_fails_fast(self, tmp_path, capsys):
        # The strong spec is usually satisfied on tiny schedules, so
        # expecting violations everywhere must fail and dump artifacts.
        code, out, _ = invoke(
            [
                "fuzz",
                "--seeds",
                "5",
                "--clients",
                "2",
                "--ops",
                "2",
                "--check",
                "strong",
                "--expect-violation",
                "strong",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 1
        assert "FAILED" in out
        dumps = list(tmp_path.glob("seed_*/schedule.json"))
        assert len(dumps) == 1


# Each command that takes --out; fuzz's sweep first fails at seed 18.
UNWRITABLE_OUT = {
    "export-dot": ["export-dot", "--schedule", "builtin:podc16"],
    "run": ["run", "--schedule", "builtin:podc16"],
    "fuzz": ["fuzz", "--seeds", "200", "--check", "strong", "--clients", "4", "--ops", "16"],
}


class TestExportDot:
    def test_golden_server_graph(self, tmp_path, capsys):
        code, out, _ = invoke(
            [
                "export-dot",
                "--protocol",
                "cjupiter",
                "--schedule",
                "builtin:podc16",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        server = (tmp_path / "server.dot").read_text()
        assert server.count("ordering=out") == 8  # one per vertex
        assert "'ba'" in server

    def test_steps_flag_counts_construction(self, tmp_path, capsys):
        code, _, _ = invoke(
            [
                "export-dot",
                "--schedule",
                "builtin:podc16",
                "--out",
                str(tmp_path),
                "--steps",
            ],
            capsys,
        )
        assert code == 0
        c3_steps = sorted(tmp_path.glob("c3_step*.dot"))
        assert len(c3_steps) == 5  # initial plus one per space-changing event

    def test_empty_run_root_only(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(schedule_to_json(empty_schedule()))
        code, _, _ = invoke(
            ["export-dot", "--schedule", str(path), "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == 0
        server = (tmp_path / "d" / "server.dot").read_text()
        assert server.count("ordering=out") == 1

    def test_jupiter_exports_per_client_server_spaces(self, tmp_path, capsys):
        code, _, _ = invoke(
            [
                "export-dot",
                "--protocol",
                "jupiter",
                "--schedule",
                "builtin:podc16",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "server_c1.dot").exists()
        assert (tmp_path / "c3.dot").exists()
        assert "style=dashed" in (tmp_path / "server_c2.dot").read_text()

    @pytest.mark.parametrize("command", UNWRITABLE_OUT, ids=list(UNWRITABLE_OUT))
    def test_unwritable_out_is_a_usage_error(self, command, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "dot"  # under a regular file, so no directory can be made
        code, out, err = invoke(UNWRITABLE_OUT[command] + ["--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot write to {out_dir}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", UNWRITABLE_OUT, ids=list(UNWRITABLE_OUT))
    def test_unwritable_out_is_refused_before_the_replay(self, command, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(simnet, "run", lambda *a, **k: calls.append(a))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, _ = invoke(UNWRITABLE_OUT[command] + ["--out", str(blocker / "dot")], capsys)
        assert (code, out, calls) == (2, "", [])

    @pytest.mark.parametrize("steps", [False, True])
    def test_step_files_written_only_under_steps(self, tmp_path, capsys, steps):
        argv = ["export-dot", "--schedule", "builtin:podc16", "--out", str(tmp_path)]
        code, _, _ = invoke(argv + ["--steps"] * steps, capsys)
        assert code == 0
        assert bool(list(tmp_path.glob("*_step*.dot"))) is steps

    def test_byte_identical_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            invoke(
                ["export-dot", "--schedule", "builtin:podc16", "--out", str(out)],
                capsys,
            )
        assert (a / "server.dot").read_bytes() == (b / "server.dot").read_bytes()


# sha256 over "name sha256" lines of every file `export-dot --steps` writes,
# in the order it prints them, and of the `run --check all --format json`
# output. They pin the output bytes while the code producing them changes;
# only a deliberate change of the output may re-record them.
GOLDEN = {
    ("export-dot", "cjupiter", "podc16"):
        "0ef89c5053a9819120d7ae93d2a052a4e0b2bd9dd55f8c96dae674a575bd4279",
    ("export-dot", "jupiter", "podc16"):
        "0306a34799b99f05eb8b490a0fd38212553de4246f9016f7b0a6510194c30d57",
    ("export-dot", "djupiter", "podc16"):
        "73770f4f07e7344d2d72ded7b1c9182728548b8c0e54ba679d22598d1a671731",
    ("export-dot", "cjupiter", "random"):
        "b587957ef7bbd877a3b98f4a48876dd2ea89ef3fe66ea4bd8ff17b33920aa8f3",
    ("export-dot", "jupiter", "random"):
        "d3682bde929d5038d6d5201d5add233f57d2da7bb478401e283f1d3528a245e1",
    ("export-dot", "djupiter", "random"):
        "308cd7fb1296cf8bc3b812a9263243d5701285d42fb66738b1af0bfd2ef3d8c8",
    ("run", "cjupiter", "podc16"):
        "e545579443f3bf3f4adcd1e79f33b3021a37db7ad62cdfcd53812aecd2c3e376",
    ("run", "jupiter", "podc16"):
        "e545579443f3bf3f4adcd1e79f33b3021a37db7ad62cdfcd53812aecd2c3e376",
    ("run", "djupiter", "podc16"):
        "2e82bf67ff8315d4c233fcbde8f6c58d4787a4c0ae993e9d496c3eab8a3194d2",
}
SCHEDULES = {
    "podc16": ["--schedule", "builtin:podc16"],
    "random": ["--schedule", "random", "--seed", "1", "--clients", "4", "--ops", "8"],
}


class TestGoldenBytes:
    @pytest.mark.parametrize("command, protocol, schedule", sorted(GOLDEN))
    def test_outputs_match_recorded_digest(self, command, protocol, schedule, tmp_path, capsys):
        argv = [command, "--protocol", protocol, *SCHEDULES[schedule]]
        if command == "run":
            code, out, _ = invoke(argv + ["--check", "all", "--format", "json"], capsys)
            assert code == 1  # the strong spec fails on podc16
            digest = hashlib.sha256(out.encode()).hexdigest()
        else:
            code, out, _ = invoke(argv + ["--steps", "--out", str(tmp_path)], capsys)
            assert code == 0
            paths = [Path(line) for line in out.splitlines()]
            assert sorted(paths) == sorted(tmp_path.iterdir())
            h = hashlib.sha256()
            for path in paths:
                h.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
            digest = h.hexdigest()
        assert digest == GOLDEN[command, protocol, schedule]


class TestDeterminism:
    def test_run_outputs_byte_identical(self, tmp_path, capsys):
        args = [
            "run",
            "--schedule",
            "random",
            "--seed",
            "33",
            "--clients",
            "3",
            "--ops",
            "6",
            "--check",
            "all",
        ]
        code1, _, _ = invoke(args + ["--out", str(tmp_path / "x")], capsys)
        code2, _, _ = invoke(args + ["--out", str(tmp_path / "y")], capsys)
        assert code1 == code2 == 0
        for name in ("trace_cjupiter.json", "trace_jupiter.json", "verdicts.json"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_strong_witness_independent_of_hash_seed(self):
        # The podc16 cycle used to start at whichever element a frozenset
        # yielded first, which varies with the string hash seed.
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = "import sys; from otwb.cli import main; sys.exit(main(sys.argv[1:]))"
        outs = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", script, "run", "--schedule", "builtin:podc16",
                 "--check", "strong", "--format", "json"],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 1, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])[0]["witness"]["elements"] == ["a", "b", "x"]


class TestReadme:
    def test_usage_commands_parse(self):
        # Every command in README's CLI usage block parses, so a removed
        # or renamed flag cannot stay documented.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
        commands = [c for c in block.replace("\\\n", " ").splitlines() if c.startswith("otwb ")]
        assert commands
        parser = build_parser()
        for command in commands:
            try:
                parser.parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")
