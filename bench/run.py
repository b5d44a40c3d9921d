"""Benchmark of the imexssp command-line interface.

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run it from the root of a source checkout; it imports ``imexssp`` from the
checkout's ``src/`` and nowhere else, and exits with code 2 when that is
missing. It drives ``imexssp.cli.main(argv)`` in process as a closed loop
(one client, one thread; each invocation starts when the previous one
returns). A pass runs the workload's invocations once, as listed in
``bench/spec.json``; after one warm-up pass, passes repeat until their wall
times add up to ``--seconds``. Every invocation's exit code and output go
through ``bench/check.py``.

``--trace 0`` reports the end-to-end metrics:

- wall_rel: median over passes of the pass wall time divided by the mean
  time of a fixed loop of small NumPy operations that SIGALRM runs every
  50 ms during the pass (``SpeedProbe``); the pass time in probe units. The raw median
  pass wall time (wall_s) is printed beside it; it drifts with the machine's
  speed, wall_rel much less.
- setup_s: median over 11 fresh interpreters, started between passes so
  that they span the run, of the time to import ``imexssp.cli`` and build
  its argument parser (``main(["--version"])``), which every CLI invocation
  pays.
- peak_rss_mb: peak resident memory of this process (``ru_maxrss``); each
  workload runs in its own process.

``failed_ratio`` (invocations whose exit code or output fails the check, over
invocations attempted) is the ``failed`` and ``attempted`` pair of the result
line; it is 0 on correct code, so it is no bounded metric.

``--trace 1`` runs untraced passes, then the same number of seconds of
traced passes (see ``bench/tracer.py``), and reports the per-layer metrics:
calls and self time per traced function, exceptions leaving ``step``, total
time per acceptance criterion, the useful-work ratio of root-vs-empirical,
CLI output bytes, the untraced wall_s and probe time, and the tracing
overhead (traced minus untraced wall_s, and the same as a share of
wall_rel). Waiting time is not measured: the program is single-threaded and
does no I/O beyond stdout, so no layer waits on another.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Spans and run metadata go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_PASSES = 1
PROBE_OPS = 200  # iterations of the speed probe, about 0.3 ms
PROBE_INTERVAL_S = 0.05
SETUP_REPEATS = 11
END_TO_END_UNITS = {"wall_rel": "s/s", "setup_s": "s", "peak_rss_mb": "MB"}
EXTRA_LAYER_UNITS = {"cli.output_bytes": "B", "pass.wall_s": "s", "pass.probe_s": "s",
                     "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}

SETUP_CODE = """
import contextlib, io, time
t0 = time.perf_counter()
import imexssp.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        imexssp.cli.main(["--version"])
    except SystemExit:
        pass
elapsed = time.perf_counter() - t0
print(imexssp.cli.__file__)
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at nproc (1 when unset), before numpy loads."""
    for var in BLAS_VARS:
        value = os.environ.get(var, "1")
        threads = min(max(int(value), 1), nproc()) if value.isdigit() else 1
        os.environ[var] = str(threads)
    return {var: os.environ[var] for var in BLAS_VARS}


def _in_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_cli():
    """imexssp.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "imexssp" / "cli.py").is_file():
        raise BenchError(f"no imexssp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import imexssp.cli

    if not _in_src(imexssp.cli.__file__):
        raise BenchError(f"imexssp was imported from {imexssp.cli.__file__}, not {SRC}")
    return imexssp.cli


def setup_time() -> float:
    """Import-and-parser time of imexssp.cli in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
    path, elapsed = proc.stdout.split()
    if not _in_src(path):
        raise BenchError(f"set-up interpreter imported {path}, not {SRC}")
    return float(elapsed)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the package sources; identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "imexssp").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def invoke(main, argv: list[str]) -> tuple[int | None, str, str]:
    """One CLI invocation in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed invocation; keep measuring
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class SpeedProbe:
    """Samples the speed of the CPU a pass runs on, while it runs.

    This machine's speed is bimodal: a fixed loop takes either about 12 or
    about 18 ms, switching within seconds, and a pass's wall time drifted by
    up to 40% over a minute with it. Inside the ``with`` block, SIGALRM runs
    a fixed loop of small NumPy operations every PROBE_INTERVAL_S of wall
    time and records its duration. A pass's wall time divided by the mean
    probe time keeps the cost of the code and drops most of the machine's
    drift. Of the probes tried (an interpreter loop, small-array and
    32k-element NumPy operations), the small-array one tracked all three
    workloads best: per-pass call overhead is what they spend most time on.
    """

    def __init__(self):
        import numpy as np

        self.samples: list[float] = []
        self._x = np.zeros(4)
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        x = self._x
        t0 = time.perf_counter()
        for _ in range(PROBE_OPS):
            x = x * 0.5 + 1.0
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Workload:
    """One workload's invocations, run as passes and checked."""

    def __init__(self, cli, spec: dict, name: str, seed: int):
        self.main = cli.main
        self.tolerances = spec["tolerances"]
        self.invocations = [
            (inv["check"], [a.replace("{seed}", str(seed)) for a in inv["argv"]])
            for inv in spec["workloads"][name]["invocations"]
        ]
        self.references = {c: check.load_reference(c) for c, _ in self.invocations}
        self.attempted = 0
        self.failed = 0
        self.identical = 0  # outputs byte-identical to the stored reference
        self.problems: list[str] = []
        self.output_bytes: list[int] = []  # per pass

    def run_pass(self) -> tuple[float, float]:
        """Run every invocation once. Return the pass wall time (probes and
        checks excluded) and the mean probe time."""
        gc.collect()
        results = []
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            for _, argv in self.invocations:
                results.append(invoke(self.main, argv))
            wall = time.perf_counter() - t0 - sum(probe.samples)
        if not probe.samples:  # a pass shorter than the probe interval
            probe.sample()
        self.output_bytes.append(sum(len(out) for _, out, _ in results))  # ASCII
        for (name, argv), (code, out, err) in zip(self.invocations, results):
            ref = self.references[name]
            identical = (ref is not None and code == ref["exit_code"]
                         and check.sha256(out) == ref["stdout_sha256"])
            # an output byte-identical to the reference passes every rule
            problems = [] if identical else check.check_output(
                name, code, out, err, ref, self.tolerances, argv)
            self.attempted += 1
            self.failed += bool(problems)
            self.identical += identical
            self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        return wall, statistics.fmean(probe.samples)

    def run_for(self, seconds: float, tracer=None, before_pass=None) -> "Passes":
        passes = Passes([], [])
        while not passes.walls or sum(passes.walls) < seconds:
            if before_pass is not None:
                before_pass()
            if tracer is not None:
                tracer.begin_pass()
            wall, probe = self.run_pass()
            passes.walls.append(wall)
            passes.probes.append(probe)
        return passes


@dataclass
class Passes:
    """Per-pass wall times and mean probe times."""

    walls: list[float]
    probes: list[float]

    @property
    def wall_s(self) -> float:
        return statistics.median(self.walls)

    @property
    def wall_rel(self) -> float:
        return statistics.median(w / p for w, p in zip(self.walls, self.probes))

    def summary(self, label: str) -> str:
        return (f"{label}wall_s {self.wall_s:.4f} s (median of {len(self.walls)} passes; "
                f"min {min(self.walls):.4f}, max {max(self.walls):.4f}); "
                f"wall_rel {self.wall_rel:.1f} s/s (median probe "
                f"{statistics.median(self.probes) * 1e3:.3f} ms)")


def run_workload(args) -> int:
    blas = limit_blas_threads()
    setup: list[float] = []

    def measure_setup():
        setup.append(setup_time())

    try:
        cli = import_cli()
        spec = check.load_spec()
        workload = Workload(cli, spec, args.workload, args.seed)
        for _ in range(WARMUP_PASSES):
            workload.run_pass()
        # set-up samples go between passes, so that they span the whole run
        untraced = workload.run_for(args.seconds, before_pass=None if args.trace else measure_setup)
        while not args.trace and len(setup) < SETUP_REPEATS:
            measure_setup()
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import numpy  # loaded by imexssp, after limit_blas_threads

    lines = [f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
             f"{len(workload.invocations)} invocations per pass, "
             f"{WARMUP_PASSES} warm-up pass",
             untraced.summary("untraced " if args.trace else "")]
    spans_path = None
    if args.trace:
        import tracer as tracer_mod  # imports numpy

        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced = workload.run_for(args.seconds, tracer)
        finally:
            tracer.uninstall()
        layer, unsteady = tracer.layer_metrics()
        layer.update({
            "cli.output_bytes": float(statistics.median(workload.output_bytes)),
            "pass.wall_s": untraced.wall_s,
            "pass.probe_s": statistics.median(untraced.probes),
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
            "trace.overhead_ratio": traced.wall_rel / untraced.wall_rel - 1.0,
        })
        units = {**tracer_mod.layer_metric_units(), **EXTRA_LAYER_UNITS}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
        lines.append(traced.summary("traced   "))
        lines.append(f"tracing overhead {layer['trace.overhead_s']:.4f} s of wall_s, "
                     f"{layer['trace.overhead_ratio']:+.1%} of wall_rel")
        busiest = sorted((n for n in units if n.endswith(".self_s")),
                         key=lambda n: -layer[n])[:12]
        for name in busiest:
            calls = layer[name.removesuffix("self_s") + "calls"]
            lines.append(f"  {name:<50} {layer[name]:10.4f} s  {calls:10.0f} calls")
        if unsteady:
            lines.append(f"call counts differ between traced passes: {', '.join(unsteady)}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.write(spans_path)
    else:
        values = {
            "wall_rel": untraced.wall_rel,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
        lines.append(f"setup_s {values['setup_s']:.4f} s "
                     f"(median of {len(setup)} fresh interpreters)")
        lines.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_ratio {workload.failed / workload.attempted:.4g} ratio "
                 f"({workload.failed}/{workload.attempted} invocations; "
                 f"{workload.identical} byte-identical to the reference)")
    for ref in workload.references.values():
        for verdict in (ref or {}).get("lines", []):
            if verdict.startswith("FAIL"):
                lines.append(f"expected by the reference: {verdict} (a PASS there fails the check)")
    lines += [f"check failed: {p}" for p in workload.problems[:20]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(untraced.walls), "warmup_passes": WARMUP_PASSES,
        "git_commit": git_commit(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc(), "cpu_model": cpu_model(), "blas_threads": blas,
        "spans": None if spans_path is None else str(spans_path.relative_to(ROOT)),
    }
    result = {"correct": workload.failed == 0, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "result": result, "report": lines}, fh, indent=1)
    print("\n".join(lines))
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def run_all(args, workloads: list[str]) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows, results = [], {}
    for name in workloads:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(line for line in report if not line.startswith("meta ")))
        results[name] = json.loads(last)
    for name, res in results.items():
        ratio = res["failed"] / res["attempted"]
        rows.append(f"{name:<8} failed_ratio {ratio:.4g} ratio ({res['failed']}/{res['attempted']})")
        for metric, m in res["metrics"].items():
            rows.append(f"{name:<8} {metric:<50} {m['value']:.6g} {m['unit']}")
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = list(check.load_spec()["workloads"])
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot read spec.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of: all, {', '.join(workloads)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
