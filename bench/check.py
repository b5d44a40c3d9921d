"""Correctness checker for the benchmark's CLI invocations.

Every invocation names a check, ``<kind>`` or ``<kind>-<variant>``. The kind
picks the rule and the tolerances in ``spec.json``; the full name picks the
stored reference in ``reference/<name>.json`` (or ``.json.gz``), which holds
the outputs of the commit that introduced the benchmark.

- verify: the ordered PASS/FAIL list, the summary line and exit code 1.
  angle-table fails by design; the reference records that FAIL, so a PASS
  there is a mismatch too.
- angles, converge, regions: exit code, header and row count exactly; every
  row has the header's field count and parses; the reference rows (every
  row, or every ``stride``-th for the 20 MB regions output) match within the
  per-column tolerances.
- tvd (any seed): exit code 0, steps + 1 rows, t = i * dt, the tv_growth
  column agrees with the total_variation column, and the SSP invariant: max
  per-step TV growth <= ``max_tv_growth``.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
MAX_PROBLEMS = 5
CHUNK = 1 << 20


def load_spec() -> dict:
    with open(BENCH_DIR / "spec.json") as fh:
        return json.load(fh)


def kind_of(check: str) -> str:
    return check.split("-", 1)[0]


def reference_path(check: str) -> Path:
    plain = REFERENCE_DIR / f"{check}.json"
    return plain if plain.exists() else REFERENCE_DIR / f"{check}.json.gz"


def load_reference(check: str) -> dict | None:
    """The stored reference of a check, or None for checks that need none."""
    if kind_of(check) == "tvd":
        return None
    path = reference_path(check)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    h = hashlib.sha256()
    for i in range(0, len(text), CHUNK):  # no whole-output copy: peak_rss_mb
        h.update(text[i:i + CHUNK].encode())
    return h.hexdigest()


def iter_lines(text: str):
    """The lines of `text`, without copying it whole (peak_rss_mb counts the
    checker's memory too)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def make_reference(check: str, code: int, out: str, stride: int = 1) -> dict:
    """The reference record of one invocation's output."""
    ref = {"exit_code": code, "stdout_sha256": sha256(out)}
    if kind_of(check) == "verify":
        ref["lines"] = [_verdict(line) for line in out.splitlines()]
        return ref
    lines = out.splitlines()
    ref.update(header=lines[0], n_rows=len(lines) - 1, stride=stride,
               n_nonfinite=_count_nonfinite(lines[1:]),
               samples=lines[1::stride])
    return ref


def _verdict(line: str) -> str:
    """'PASS name: detail' -> 'PASS name'; other lines are kept whole."""
    head, sep, _ = line.partition(": ")
    return head if sep and head.split(" ", 1)[0] in ("PASS", "FAIL") else line


def _count_nonfinite(rows) -> int:
    n = 0
    for row in rows:
        for field in row.split(","):
            try:
                n += not math.isfinite(float(field))
            except ValueError:
                pass
    return n


def field_ok(got: str, ref: str, tol) -> bool:
    if got == ref:
        return True
    if tol == "exact" or not got or not ref:
        return False
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return False
    if math.isnan(r) or math.isnan(g):
        return math.isnan(r) and math.isnan(g)
    return abs(g - r) <= tol["abs"] + tol["rel"] * abs(r)


def check_output(check: str, code: int, out: str, err: str, reference: dict | None,
                 tolerances: dict, argv: list[str]) -> list[str]:
    kind = kind_of(check)
    try:
        if kind == "verify":
            problems = _check_verify(code, out, reference)
        elif kind == "tvd":
            problems = _check_tvd(code, out, err, tolerances["tvd"], argv)
        else:
            problems = _check_csv(code, out, reference, tolerances[kind])
    except (ValueError, IndexError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return problems[:MAX_PROBLEMS]


def _check_verify(code: int, out: str, ref: dict) -> list[str]:
    problems = []
    if code != ref["exit_code"]:
        problems.append(f"exit code {code}, expected {ref['exit_code']}")
    got = [_verdict(line) for line in out.splitlines()]
    if got != ref["lines"]:
        missing = [v for v in ref["lines"] if v not in got]
        extra = [v for v in got if v not in ref["lines"]]
        problems.append(f"verdicts differ: expected {missing or 'same set'}, "
                        f"got {extra or 'another order'}")
    return problems


def _check_csv(code: int, out: str, ref: dict, tol: dict) -> list[str]:
    problems = []
    if code != ref["exit_code"]:
        problems.append(f"exit code {code}, expected {ref['exit_code']}")
    rows = iter_lines(out)
    header = next(rows, "")
    if header != ref["header"]:
        return problems + [f"header {header!r}, expected {ref['header']!r}"]
    columns = header.split(",")
    col_tol = [tol[c] for c in columns]
    stride, samples = ref["stride"], ref["samples"]
    n_rows = n_nonfinite = 0
    for i, line in enumerate(rows):
        n_rows += 1
        fields = line.split(",")
        if len(fields) != len(columns):
            problems.append(f"row {i}: {len(fields)} fields, expected {len(columns)}")
            continue
        for field, t in zip(fields, col_tol):
            if t != "exact" and field:
                try:
                    n_nonfinite += not math.isfinite(float(field))
                except ValueError:
                    problems.append(f"row {i}: {field!r} is not a number")
        if i % stride == 0 and i // stride < len(samples):
            expected = samples[i // stride].split(",")
            for name, field, want, t in zip(columns, fields, expected, col_tol):
                if not field_ok(field, want, t):
                    problems.append(f"row {i} {name}: {field}, expected {want}")
    if n_rows != ref["n_rows"]:
        problems.append(f"{n_rows} rows, expected {ref['n_rows']}")
    if n_nonfinite != ref["n_nonfinite"]:
        problems.append(f"{n_nonfinite} non-finite fields, expected {ref['n_nonfinite']}")
    return problems


def _check_tvd(code: int, out: str, err: str, tol: dict, argv: list[str]) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    steps = int(argv[argv.index("--steps") + 1])
    cells = int(argv[argv.index("--cells") + 1])
    dt = 0.5 / cells  # the tvd default sigma is 0.5, and dx = 1/cells
    lines = out.splitlines()
    problems = []
    if lines[0] != "t,max_norm,total_variation,tv_growth":
        return [f"header {lines[0]!r}"]
    if len(lines) - 1 != steps + 1:
        problems.append(f"{len(lines) - 1} rows, expected {steps + 1}")
    worst = -math.inf
    prev_tv = None
    for i, line in enumerate(lines[1:]):
        t, max_norm, tv, growth = line.split(",")
        t, max_norm, tv = float(t), float(max_norm), float(tv)
        if abs(t - i * dt) > tol["t_rel"] * max(abs(i * dt), dt):
            problems.append(f"row {i}: t = {t}, expected {i * dt}")
        if not (math.isfinite(max_norm) and math.isfinite(tv)):
            problems.append(f"row {i}: non-finite max_norm or total_variation")
        if i == 0:
            if growth:
                problems.append("row 0: tv_growth should be empty")
        else:
            g = float(growth)
            worst = max(worst, g)
            if abs(g - (tv - prev_tv)) > tol["growth_rel"] * max(1.0, abs(tv)):
                problems.append(f"row {i}: tv_growth {g} disagrees with total_variation")
        prev_tv = tv
    if not worst <= tol["max_tv_growth"]:
        problems.append(f"max per-step TV growth {worst:.3e} > {tol['max_tv_growth']:.0e}")
    if "max per-step TV growth" not in err:
        problems.append("stderr lacks the max per-step TV growth summary")
    return problems
