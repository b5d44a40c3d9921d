"""The package surface: every exported name resolves, and the entry points
whose options were pruned keep the parameters and fields they have now, so
that an option can only come back as a deliberate change to this file."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import imexssp

MODULES = sorted(m.name for m in pkgutil.iter_modules(imexssp.__path__))
REQUIRED = inspect.Parameter.empty


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"imexssp.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(imexssp.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"imexssp.{module}")
        assert getattr(imexssp, name) is getattr(source, name)


# (module, name): parameter names with their defaults, in order
SIGNATURES = {
    ("integrate", "start"): [("problem", REQUIRED), ("s", REQUIRED), ("dt", REQUIRED)],
    ("integrate", "integrate"): [("problem", REQUIRED), ("s", REQUIRED), ("t_end", REQUIRED),
                                 ("dt", REQUIRED), ("observe", None)],
    ("integrate", "levels"): [("problem", REQUIRED), ("s", REQUIRED), ("t_end", REQUIRED),
                              ("dt", REQUIRED)],
    ("problems", "advection_diffusion_1d"): [("grid", REQUIRED), ("cfg", REQUIRED),
                                             ("mode", REQUIRED)],
    ("problems", "dahlquist"): [("lam", REQUIRED), ("mu", REQUIRED)],
    ("problems", "dahlquist_for"): [("s", REQUIRED)],
    ("problems", "convergence"): [("problem", REQUIRED), ("s", REQUIRED), ("t_end", REQUIRED),
                                  ("dts", REQUIRED)],
    ("problems", "tv_series"): [("problem", REQUIRED), ("s", REQUIRED), ("t_end", REQUIRED),
                                ("dt", REQUIRED)],
    ("problems", "fourier_modes"): [("problem", REQUIRED)],
    ("problems", "step_data"): [("n", REQUIRED)],
    ("problems", "monotone_staircase"): [("n", REQUIRED), ("seed", 1234)],
    ("problems", "upwind_advection"): [("grid", REQUIRED), ("initial", None)],
    ("stability", "min_image_real_part"): [("s", REQUIRED)],
    ("stability", "_refine_locus"): [("image", REQUIRED), ("curve", REQUIRED)],
    ("stability", "_image_map"): [("s", REQUIRED), ("den", "C")],
    ("stability", "_ImageMap"): [("A", REQUIRED), ("P", REQUIRED), ("Q", REQUIRED)],
    ("stability", "_ImageMap.sample"): [("self", REQUIRED), ("lam", REQUIRED),
                                        ("theta", REQUIRED)],
    ("stability", "restrict_curve"): [("curve", REQUIRED), ("nu", REQUIRED)],
    ("verify", "check_zero_slope_expansion"): [("scale", 1.0)],
    ("verify", "check_tvd_ssp"): [("scale", 1.0)],
    ("verify", "check_root_vs_empirical"): [("scale", 1.0)],
    ("cli", "_svg_render"): [("curves", REQUIRED)],
    ("cli", "_curves_csv"): [("columns", REQUIRED), ("curves", REQUIRED), ("fh", REQUIRED)],
}


def _resolve(module, qualname):
    obj = importlib.import_module(f"imexssp.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module,name", sorted(SIGNATURES))
def test_pruned_signature(module, name):
    fn = _resolve(module, name)
    params = inspect.signature(fn).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[module, name]


FIELDS = {
    ("integrate", "SplitProblem"): ["operator", "exact", "t0"],
    ("integrate", "LinearSplitOperator"): ["explicit", "implicit"],
    ("problems", "GridSpec"): ["n_cells"],
    ("problems", "AdvectionDiffusionConfig"): ["courant", "diffusion_number"],
    ("schemes", "CoefficientSet"): ["k", "a", "b", "c", "name"],
}


@pytest.mark.parametrize("module,name", sorted(FIELDS))
def test_pruned_fields(module, name):
    cls = getattr(importlib.import_module(f"imexssp.{module}"), name)
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[module, name]


@pytest.mark.parametrize("owner,name", [
    ("schemes", "from_char_polys"),
    ("schemes.CoefficientSet", "scaled"),
    ("integrate", "Trajectory"),
    ("stability", "_ZERO_ZOOM_OFFSETS"),
    ("stability", "_asymptote_angle"),
    ("stability", "_sample_angles"),
    ("stability.BoundaryCurve", "pole_angles"),
    ("stability", "_eval_locus"),
    ("stability", "_locus"),
    ("stability", "curve_to_csv"),
    ("stability", "_unit_circle_pole_angles"),
    ("cli", "_phi_family_csv"),
    ("stability", "_ANCHOR_HOLE"),
    ("stability", "mu_map"),
    ("stability._ImageMap", "curve"),
    ("stability", "_min_angle"),
    ("stability.WedgeAngle", "from_alpha"),
])
def test_deleted_name_stays_deleted(owner, name):
    module, _, attr = owner.partition(".")
    obj = importlib.import_module(f"imexssp.{module}")
    if attr:
        obj = getattr(obj, attr)
    assert not hasattr(obj, name)
    assert not hasattr(imexssp, name)


def test_anchor_minima_module_stays_folded_into_circle():
    assert importlib.util.find_spec("imexssp._anchors") is None


def test_no_line_over_99_characters():
    root = Path(__file__).resolve().parent.parent
    files = sorted(root.glob("src/imexssp/*.py")) + sorted(root.glob("tests/*.py"))
    assert files
    long = [f"{path.relative_to(root)}:{i}" for path in files
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert long == []


def _traced_names():
    """bench/tracer.py's TRACED tuple, read from the file the benchmark uses."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module,qualname", _traced_names())
def test_benchmark_traced_name_resolves(module, qualname):
    # the benchmark's tracer wraps these by name: a rename must show here,
    # not only in a benchmark run
    assert callable(_resolve(module, qualname))


def _imports(module):
    """Every import in a package module, function bodies included: the
    top-level names of absolute imports, and the package modules that
    relative imports name."""
    tree = ast.parse(Path(imexssp.__path__[0], f"{module}.py").read_text())
    external, internal = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            external.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            external.add(node.module.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" names a module x; "from .m import x" names m
            names = [node.module] if node.module else [a.name for a in node.names]
            internal.update({n.partition(".")[0] for n in names} & set(MODULES))
    return external, internal


@pytest.mark.parametrize("module", MODULES)
def test_runtime_imports_only_stdlib_and_numpy(module):
    # SciPy, SymPy and mpmath may be installed where the tests run, so an
    # accidental import of one would pass everything else
    external, _ = _imports(module)
    assert external - sys.stdlib_module_names - {"numpy"} == set()


def test_only_cli_writes_csv():
    # one CSV writer: the number format is the command line's business
    assert [m for m in MODULES if "csvfmt" in _imports(m)[1]] == ["cli"]


def test_svg_render_formats_no_number_itself():
    # one number formatter: the SVG coordinates go through csvfmt.fill, so
    # no f-string of the renderer carries a format spec such as :.2f
    tree = ast.parse(Path(imexssp.__path__[0], "cli.py").read_text())
    [render] = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_svg_render"]
    specs = [ast.unparse(node) for node in ast.walk(render)
             if isinstance(node, ast.FormattedValue) and node.format_spec is not None]
    assert specs == []


@pytest.mark.parametrize("module", ["cli", "verify"])
def test_experiments_step_through_problems_only(module):
    # one run per experiment: converge, tvd and their verify criteria call
    # problems.convergence and problems.tv_series, which call integrate
    tree = ast.parse(Path(imexssp.__path__[0], f"{module}.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func).rpartition(".")[2] == "integrate"]
    assert calls == []


def test_package_import_graph_has_no_cycle():
    graph = {m: _imports(m)[1] for m in MODULES}
    done, path = set(), []

    def visit(m):
        if m in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(m):] + [m])}")
        if m not in done:
            path.append(m)
            for dep in sorted(graph[m]):
                visit(dep)
            path.pop()
            done.add(m)

    for m in MODULES:
        visit(m)
