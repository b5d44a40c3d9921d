"""Tests of the benchmark itself: the checker, the tracer and a smoke run of
every workload at the smallest run length.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402

SPEC = check.load_spec()
TOL = SPEC["tolerances"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def csv_from_reference(name: str) -> str:
    ref = check.load_reference(name)
    assert ref["stride"] == 1
    return "\n".join([ref["header"], *ref["samples"]]) + "\n"


def verify_output(verdicts: list[str]) -> str:
    return "\n".join(v if not v.startswith(("PASS", "FAIL")) else f"{v}: detail"
                     for v in verdicts) + "\n"


def alter_digit(field: str, position: int) -> str:
    """Change the digit at `position` (counting significant digits from 0)."""
    digits = [i for i, ch in enumerate(field) if ch.isdigit()]
    i = digits[position]
    return field[:i] + str((int(field[i]) + 1) % 10) + field[i + 1:]


def test_checker_accepts_reference_outputs():
    for name in ("angles", "converge"):
        ref = check.load_reference(name)
        out = csv_from_reference(name)
        assert check.check_output(name, 0, out, "", ref, TOL, []) == []
    ref = check.load_reference("verify")
    assert check.check_output("verify", 1, verify_output(ref["lines"]), "", ref, TOL, []) == []


@pytest.mark.parametrize("position", [0, 2, 4])
def test_checker_rejects_altered_digit_in_converge_error(position):
    ref = check.load_reference("converge")
    header, *rows = csv_from_reference("converge").splitlines()
    fields = rows[2].split(",")
    fields[3] = alter_digit(fields[3], position)
    rows[2] = ",".join(fields)
    problems = check.check_output("converge", 0, "\n".join([header, *rows]) + "\n", "",
                                  ref, TOL, [])
    assert problems and "error" in problems[0]


def test_checker_rejects_wrong_angle():
    ref = check.load_reference("angles")
    header, *rows = csv_from_reference("angles").splitlines()
    fields = rows[4].split(",")  # imex-bdf2
    fields[2] = f"{float(fields[2]) + 2e-3:.12g}"
    rows[4] = ",".join(fields)
    out = "\n".join([header, *rows]) + "\n"
    assert check.check_output("angles", 0, out, "", ref, TOL, [])
    fields[2] = f"{float(fields[2]) - 2e-3 + 4e-4:.12g}"  # a finer sweep may move it this far
    rows[4] = ",".join(fields)
    out = "\n".join([header, *rows]) + "\n"
    assert check.check_output("angles", 0, out, "", ref, TOL, []) == []


@pytest.mark.parametrize("flip", ["PASS tvd-ssp", "FAIL angle-table"])
def test_checker_rejects_flipped_verdict(flip):
    ref = check.load_reference("verify")
    flipped = {"PASS": "FAIL", "FAIL": "PASS"}[flip[:4]] + flip[4:]
    verdicts = [flipped if v == flip else v for v in ref["lines"]]
    assert check.check_output("verify", 1, verify_output(verdicts), "", ref, TOL, [])


def test_checker_requires_verify_exit_code_1():
    ref = check.load_reference("verify")
    problems = check.check_output("verify", 0, verify_output(ref["lines"]), "", ref, TOL, [])
    assert problems == ["exit code 0, expected 1"]


def test_checker_rejects_corrupted_regions_row(cli):
    argv = ["regions", "--phi-family", "--scheme", "mcnab"]
    ref = check.load_reference("regions-mcnab")
    code, out, err = run.invoke(cli.main, argv)
    assert check.check_output("regions-mcnab", code, out, err, ref, TOL, argv) == []
    lines = out.splitlines(keepends=True)
    sampled = 1 + 5 * ref["stride"]
    fields = lines[sampled].split(",")
    fields[3] = alter_digit(fields[3], 2)
    bad = lines[:sampled] + [",".join(fields)] + lines[sampled + 1:]
    assert check.check_output("regions-mcnab", code, "".join(bad), err, ref, TOL, argv)
    bad = lines[:-1] + ["-1.33,0,3.14,x,0.1,0\n"]
    assert check.check_output("regions-mcnab", code, "".join(bad), err, ref, TOL, argv)


def test_checker_tvd_invariant(cli):
    argv = ["tvd", "--scheme", "ssp3", "--cells", "256", "--steps", "100",
            "--data", "staircase", "--seed", "5"]
    code, out, err = run.invoke(cli.main, argv)
    assert check.check_output("tvd", code, out, err, None, TOL, argv) == []
    lines = out.splitlines()
    t, m, tv, _ = lines[50].split(",")
    lines[50] = f"{t},{m},{tv},1e-6"
    problems = check.check_output("tvd", code, "\n".join(lines) + "\n", err, None, TOL, argv)
    assert any("TV growth" in p for p in problems)


def test_tracer_rebinds_everywhere_and_counts_repeat(cli):
    import importlib

    import tracer as tracer_mod

    integrate_mod = importlib.import_module("imexssp.integrate")
    package = sys.modules["imexssp"]
    original_step = integrate_mod.step
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert integrate_mod.step is not original_step
        assert package.step is integrate_mod.step
        assert sys.modules["imexssp.verify"].integrate is integrate_mod.integrate
        assert sys.modules["imexssp.cli"].integrate is integrate_mod.integrate
        argv = ["tvd", "--cells", "64", "--steps", "50"]
        for _ in range(2):
            tracer.begin_pass()
            assert run.invoke(cli.main, argv)[0] == 0
    finally:
        tracer.uninstall()
    assert integrate_mod.step is original_step
    assert package.step is original_step
    tab = tracer.per_pass()
    assert (tab["calls"][0] == tab["calls"][1]).all()
    metrics, unsteady = tracer.layer_metrics()
    assert unsteady == []
    assert metrics["integrate.step.calls"] == 50 - 2  # three starting levels
    assert metrics["integrate.integrate.calls"] == 1
    assert metrics["cli.cmd_tvd.calls"] == 1
    assert metrics["integrate.step.errors"] == 0
    assert all(metrics[n] >= 0 for n in metrics if n.endswith(".self_s"))


def bench_result(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench_result(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * len(SPEC["workloads"][workload]["invocations"])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "failed_ratio 0 ratio" in proc.stdout
    else:
        assert "tracing overhead" in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_result("pde", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
