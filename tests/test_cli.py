import csv
import math

import numpy as np
import pytest

from imexssp import problems
from imexssp.cli import main
from imexssp.integrate import CirculantOperator, integrate
from imexssp.schemes import scheme_from_id


def run_csv(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    assert code == 0
    with open(out) as fh:
        return list(csv.DictReader(fh)), out.read_bytes()


class TestRegions:
    def test_ssp3_real_extent(self, tmp_path):
        rows, _ = run_csv(tmp_path, ["regions", "--scheme", "ssp3", "--n-theta", "512"])
        re = np.array([float(r["re"]) for r in rows if r["is_pole"] == "0"])
        assert re.min() == pytest.approx(-4.0 / 3.0, abs=1e-4)
        assert re.max() <= 1e-10

    def test_deterministic_output(self, tmp_path):
        _, first = run_csv(tmp_path, ["regions", "--scheme", "ssp4", "--n-theta", "256"], "a.csv")
        _, second = run_csv(tmp_path, ["regions", "--scheme", "ssp4", "--n-theta", "256"], "b.csv")
        assert first == second

    def test_phi_family_right_half_plane(self, tmp_path):
        rows, _ = run_csv(tmp_path, [
            "regions", "--scheme", "imex-biased-k3", "--phi-family",
            "--n-theta", "512", "--n-lambda", "128", "--family-size", "8",
        ])
        re = np.array([float(r["re"]) for r in rows if r["is_pole"] == "0"])
        assert re.min() >= -1e-10

    def test_implicit_centred_wedge_visible(self, tmp_path):
        rows, _ = run_csv(tmp_path, [
            "regions", "--scheme", "implicit-centred-k3", "--beta", "0",
            "--n-theta", "1024",
        ])
        pts = np.array([complex(float(r["re"]), float(r["im"]))
                        for r in rows if r["is_pole"] == "0"])
        constraining = pts[pts.real < -1e-9]
        angle = np.arctan2(np.abs(constraining.imag), -constraining.real).min()
        assert angle == pytest.approx(math.atan(2.0), abs=1e-3)

    def test_restricted_curve(self, tmp_path):
        rows, _ = run_csv(tmp_path, [
            "regions", "--scheme", "ssp3", "--nu", "0.333333", "--n-theta", "512",
        ])
        im = np.array([float(r["im"]) for r in rows if r["is_pole"] == "0"])
        assert np.abs(im).max() <= 0.333333 + 1e-9

    def test_svg_output(self, tmp_path):
        out = tmp_path / "region.svg"
        code = main(["regions", "--scheme", "ssp3", "--n-theta", "256",
                     "--format", "svg", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_svg_phi_family(self, tmp_path):
        out = tmp_path / "family.svg"
        code = main(["regions", "--scheme", "imex-biased-k3", "--phi-family",
                     "--n-theta", "256", "--n-lambda", "64", "--family-size", "4",
                     "--format", "svg", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("polyline") >= 4

    def test_svg_phi_family_maps_each_lambda_once(self, tmp_path, monkeypatch):
        # every lambda of the family is mapped once, and all of them through
        # one circle grid of the scheme's image map
        from imexssp import stability
        image = stability._image_map(scheme_from_id("imex-biased-k3"))
        grids, mapped = [], []
        on, call = stability._ImageMap.on, stability._ImageMap.__call__

        def counting_on(self, theta):
            grid = on(self, theta)
            if self is image:
                grids.append(grid)
            return grid

        def counting_call(self, lams, grid):
            if self is image:
                mapped.append((complex(lams), grid))
            return call(self, lams, grid)

        monkeypatch.setattr(stability._ImageMap, "on", counting_on)
        monkeypatch.setattr(stability._ImageMap, "__call__", counting_call)
        out = tmp_path / "family.svg"
        assert main(["regions", "--scheme", "imex-biased-k3", "--phi-family",
                     "--n-theta", "256", "--n-lambda", "64", "--family-size", "4",
                     "--format", "svg", "--out", str(out)]) == 0
        assert len(grids) == 1
        assert len(mapped) == len({lam for lam, _ in mapped}) == 4
        assert all(grid is grids[0] for _, grid in mapped)
        assert out.read_text().startswith("<svg")

    def test_kind_override(self, tmp_path):
        rows, _ = run_csv(tmp_path, [
            "regions", "--scheme", "imex-biased-k3", "--kind", "implicit",
            "--n-theta", "256",
        ])
        # implicit locus of the biased scheme reaches 4 at theta = -pi
        first = rows[0]
        assert float(first["re"]) == pytest.approx(4.0, abs=1e-6)

    def test_unknown_scheme_exit_code(self, capsys):
        assert main(["regions", "--scheme", "rk4"]) == 2
        assert "unknown scheme id" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_phi_family_size_below_one_rejected(self, tmp_path, capsys, size):
        out = tmp_path / "family.csv"
        code = main(["regions", "--scheme", "mcnab", "--phi-family",
                     "--family-size", size, "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--scheme", "imex-biased-k3", "--kind", "implicit"],
        ["--scheme", "implicit-biased-k3"],  # auto picks the implicit locus
    ])
    def test_nu_on_implicit_locus_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "locus.csv"
        code = main(["regions", *argv, "--nu", "0.3", "--n-theta", "256", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--nu" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["explicit", "implicit"])
    def test_kind_with_phi_family_rejected(self, tmp_path, capsys, kind):
        out = tmp_path / "family.csv"
        code = main(["regions", "--scheme", "imex-biased-k3", "--phi-family", "--kind", kind,
                     "--n-theta", "256", "--n-lambda", "64", "--family-size", "2",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--kind" in err
        assert not out.exists()

    def test_nu_with_phi_family_still_clips(self, tmp_path):
        base = ["regions", "--scheme", "imex-biased-k3", "--phi-family", "--n-theta", "256",
                "--n-lambda", "64", "--family-size", "8"]
        clipped, _ = run_csv(tmp_path, base + ["--nu", "0.3"], "clipped.csv")
        full, _ = run_csv(tmp_path, base, "full.csv")
        assert max(abs(float(r["lambda_im"])) for r in clipped) <= 0.3
        assert max(abs(float(r["lambda_im"])) for r in full) > 0.3

    def test_phi_family_coarse_theta_rejected(self, capsys):
        code = main(["regions", "--scheme", "mcnab", "--phi-family",
                     "--n-lambda", "64", "--family-size", "2", "--n-theta", "4"])
        assert code == 2
        assert "at least 16 samples" in capsys.readouterr().err


class TestAngles:
    def test_table_contents(self, tmp_path):
        rows, _ = run_csv(tmp_path, ["angles", "--n-lambda", "256", "--n-theta", "1024"])
        assert len(rows) == 8
        by_scheme = {(r["scheme"], r["params"]): r for r in rows}
        biased3 = by_scheme[("imex-biased-k3", "")]
        assert float(biased3["alpha_measured"]) == pytest.approx(math.pi / 2, abs=1e-6)
        centred3 = by_scheme[("imex-centred-k3", "beta=0 nu=1/3")]
        assert float(centred3["alpha_closed_form"]) == pytest.approx(math.pi / 4, abs=1e-12)
        assert float(by_scheme[("mcnab", "c=0.0")]["alpha_measured"]) < 0.02

    def test_json_format(self, tmp_path):
        import json
        out = tmp_path / "angles.json"
        code = main(["angles", "--n-lambda", "128", "--n-theta", "512",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 8
        assert {"scheme", "params", "alpha_measured", "alpha_closed_form",
                "alpha_reference"} <= set(payload[0])


class TestVerify:
    def test_only_filter_passes(self, capsys):
        code = main(["verify", "--only", "centred-angle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS centred-angle-closed-form" in out

    def test_k4_wedge_reports_tan(self, capsys):
        code = main(["verify", "--only", "k4-wedge"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tan = 0.89" in out

    def test_unknown_filter(self, capsys):
        assert main(["verify", "--only", "nonexistent"]) == 2

    def test_tolerance_scale_env(self, monkeypatch, capsys):
        # a huge tolerance scale turns the known-red table criterion green,
        # demonstrating the debugging hook end to end
        monkeypatch.setenv("IMEXSSP_TOL_SCALE", "1e6")
        assert main(["verify", "--only", "angle-table"]) == 0
        monkeypatch.delenv("IMEXSSP_TOL_SCALE")
        assert main(["verify", "--only", "angle-table"]) == 1
        capsys.readouterr()

    def test_exit_nonzero_when_a_criterion_fails(self, monkeypatch, capsys):
        from imexssp import verify as verify_module
        from imexssp.verify import CheckResult

        monkeypatch.setattr(verify_module, "CRITERIA", {
            "negative-control": lambda scale=1.0: CheckResult(
                "negative-control", False, "injected failure"),
        })
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL negative-control" in out
        assert "0/1 criteria passed" in out

    @pytest.mark.parametrize("fmt", ["svg", "json"])
    def test_non_text_format_rejected(self, capsys, fmt):
        assert main(["verify", "--only", "centred-angle", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert f"error: {fmt} output is not available for the verify command" in captured.err
        assert captured.out == ""

    def test_csv_format_prints_the_report(self, capsys):
        assert main(["verify", "--only", "centred-angle", "--format", "csv"]) == 0
        assert "PASS centred-angle-closed-form" in capsys.readouterr().out

    def test_tvd_ssp_reports_each_scheme_own_steps(self, capsys, level_record):
        assert main(["verify", "--only", "tvd-ssp"]) == 0
        out = capsys.readouterr().out
        assert "PASS tvd-ssp: max per-step TV growth of each scheme's own steps" in out
        grid = problems.GridSpec(256)
        for sid, sigma, n in (("ssp3", 0.5, 198), ("ssp4", 2.0 / 3.0, 197), ("euler", 1.0, 200)):
            s = scheme_from_id(sid)
            dt = sigma * grid.dx
            rec = level_record()
            integrate(problems.upwind_advection(grid), s, 200 * dt, dt, observe=rec)
            growth = np.diff(rec.tv)[s.k - 1:]
            assert len(growth) == n
            assert f"{sid}@{sigma:.3g}: {growth.max():.2e} over {n} steps" in out

    def test_out_writes_the_report(self, tmp_path, capsys):
        assert main(["verify", "--only", "centred-angle"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report.txt"
        assert main(["verify", "--only", "centred-angle", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        assert printed.endswith("1/1 criteria passed\n")


class TestRejectedOptions:
    @pytest.mark.parametrize("argv", [
        ["verify", "--scheme", "ssp3"],
        ["verify", "--beta", "0.4"],
        ["verify", "--mcnab-c", "0.5"],
        ["angles", "--scheme", "mcnab"],
        ["angles", "--beta", "0.4"],
        ["angles", "--mcnab-c", "0.5"],
    ])
    def test_ignored_option_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("option", ["--beta", "--mcnab-c"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_parameter_rejected(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["regions", "--scheme", "imex-centred-k3", f"{option}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and option in err and "finite" in err

    @pytest.mark.parametrize("argv,option", [
        (["converge", "--cells", "3"], "--cells"),
        (["converge", "--scheme", "mcnab", "--sigma", "0.2"], "--sigma"),
        (["converge", "--dnum", "0.2"], "--dnum"),
        (["converge", "--problem", "advdiff", "--scheme", "ssp3", "--dnum", "0.2"], "--dnum"),
        (["regions", "--scheme", "ssp3", "--family-size", "0"], "--family-size"),
        (["regions", "--scheme", "ssp3", "--n-lambda", "99999"], "--n-lambda"),
        (["regions", "--scheme", "mcnab", "--kind", "implicit", "--n-lambda", "64"],
         "--n-lambda"),
        (["tvd", "--seed", "7"], "--seed"),
    ])
    def test_option_of_another_mode_rejected(self, tmp_path, capsys, argv, option):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and option in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("mode,defaults", [
        (["converge", "--problem", "advdiff", "--scheme", "imex-biased-k3", "--levels", "2"],
         ["--cells", "64", "--sigma", "0.35", "--dnum", "0.1"]),
        (["regions", "--phi-family", "--scheme", "mcnab", "--n-theta", "64"],
         ["--n-lambda", "1024", "--family-size", "32"]),
        (["tvd", "--data", "staircase", "--cells", "64", "--steps", "20"],
         ["--seed", "1234"]),
    ])
    def test_mode_option_defaults(self, tmp_path, mode, defaults):
        _, implied = run_csv(tmp_path, mode, "implied.csv")
        _, given = run_csv(tmp_path, mode + defaults, "given.csv")
        assert implied == given

    @pytest.mark.parametrize("argv,option", [
        (["converge", "--scheme", "ssp3", "--beta", "0.4"], "--beta"),
        (["converge", "--scheme", "imex-centred-k3", "--mcnab-c", "0.5"], "--mcnab-c"),
        (["regions", "--scheme", "ssp3", "--mcnab-c", "0.5"], "--mcnab-c"),
        (["regions", "--scheme", "mcnab", "--beta", "0.25"], "--beta"),
        (["tvd", "--scheme", "ssp3", "--beta", "0.3"], "--beta"),
    ])
    def test_parameter_no_scheme_reads_rejected(self, tmp_path, capsys, argv, option):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and option in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_full_converge_run_reads_both_parameters(self, tmp_path):
        # without --scheme the run holds the centred schemes and mcnab
        rows, _ = run_csv(tmp_path, ["converge", "--beta", "0.4", "--mcnab-c", "0.5"], "all.csv")
        for sid, option, value in (("imex-centred-k3", "--beta", "0.4"),
                                   ("mcnab", "--mcnab-c", "0.5")):
            alone, _ = run_csv(tmp_path, ["converge", "--scheme", sid, option, value], "one.csv")
            assert [r for r in rows if r["scheme"] == sid] == alone

    def test_malformed_parameter_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--beta", "half"])
        assert exc.value.code == 2
        assert "--beta" in capsys.readouterr().err


class TestConverge:
    def test_mcnab_second_order(self, tmp_path):
        rows, _ = run_csv(tmp_path, ["converge", "--scheme", "mcnab"])
        orders = {float(r["fitted_order"]) for r in rows}
        assert len(orders) == 1
        assert orders.pop() == pytest.approx(2.0, abs=0.1)

    def test_euler_baseline_first_order(self, tmp_path):
        rows, _ = run_csv(tmp_path, ["converge", "--scheme", "euler"])
        assert float(rows[0]["fitted_order"]) == pytest.approx(1.0, abs=0.1)

    def test_pure_implicit_scheme_second_order(self, tmp_path):
        # its whole rate goes on the implicit half, the one part it has
        rows, _ = run_csv(tmp_path, ["converge", "--scheme", "implicit-biased-k3"])
        assert float(rows[0]["fitted_order"]) == pytest.approx(2.0, abs=0.1)
        assert float(rows[-1]["error"]) < 1e-5

    @pytest.mark.parametrize("scheme", ["implicit-biased-k3", "implicit-centred-k4"])
    def test_advdiff_without_explicit_part_rejected(self, capsys, scheme):
        assert main(["converge", "--problem", "advdiff", "--scheme", scheme]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {scheme} has no explicit part to step the advection "
                                "of --problem advdiff\n")
        assert captured.out == ""

    def test_advdiff_problem(self, tmp_path):
        rows, _ = run_csv(tmp_path, [
            "converge", "--scheme", "imex-biased-k3", "--problem", "advdiff",
            "--cells", "32", "--dt", "0.025", "--t-end", "0.2", "--levels", "3",
        ])
        assert float(rows[0]["fitted_order"]) == pytest.approx(2.0, abs=0.25)

    def test_advdiff_explicit_scheme_defaults(self, tmp_path):
        # default dt follows the grid's Courant step, keeping ssp3 stable
        rows, _ = run_csv(tmp_path, [
            "converge", "--scheme", "ssp3", "--problem", "advdiff",
            "--cells", "32", "--levels", "3",
        ])
        assert float(rows[0]["fitted_order"]) == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("levels", ["1", "0"])
    def test_levels_below_two_rejected(self, capsys, levels):
        code = main(["converge", "--scheme", "mcnab", "--levels", levels])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "fitted_order" not in captured.out

    def test_blow_up_reported_cleanly(self, capsys):
        code = main(["converge", "--problem", "advdiff", "--scheme", "ssp3",
                     "--cells", "32", "--dt", "0.1"])
        assert code == 2
        assert "blow-up detected" in capsys.readouterr().err

    def test_level_with_no_scheme_step_rejected(self, capsys):
        # dt = 0.5 on [0, 1] gives 3 levels, all of them ssp3 starting levels
        code = main(["converge", "--dt", "0.5", "--t-end", "1", "--scheme", "ssp3",
                     "--levels", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: interval too short" in captured.err and "k=3" in captured.err
        assert captured.out == ""


    # 50-digit values of the same recurrence on the exact eigenvalues of
    # mode 1 (mpmath; the script is quoted in CHANGES.md), and how far the
    # errors of grid-value stepping sit from them, relative
    ADVDIFF_EXACT = [
        (2.6529934990731640169647489491175686209357706095179e-05, 1.8e-11),
        (6.671482851073757521670092231831835760391372472571e-06, 1.0e-10),
        (1.6727655000678962332251803601937902663018576435432e-06, 8.8e-10),
        (4.1880448450536357479848481999945021645484687434091e-07, 1.1e-08),
    ]

    def test_advdiff_errors_no_farther_from_exact_recurrence(self, tmp_path):
        rows, _ = run_csv(tmp_path, ["converge", "--problem", "advdiff",
                                     "--scheme", "imex-biased-k3", "--cells", "256"])
        assert len(rows) == len(self.ADVDIFF_EXACT)
        for row, (exact, grid_distance) in zip(rows, self.ADVDIFF_EXACT):
            assert abs(float(row["error"]) - exact) <= grid_distance * exact

    def test_stiff_advdiff_error_at_rounding_level(self, tmp_path):
        # applying G = D * (second difference) on grid values left errors of
        # 8.9e-9 and 1.7e-9 here; the exact solution has decayed to ~0
        rows, _ = run_csv(tmp_path, ["converge", "--problem", "advdiff",
                                     "--scheme", "imex-biased-k3", "--dnum", "1e10",
                                     "--levels", "2"])
        assert [float(r["error"]) < 1e-15 for r in rows] == [True, True]

    def test_huge_diffusion_number_is_no_singular_solve(self, tmp_path):
        # every shifted eigenvalue a_0 - dt c_0 mu has modulus >= a_0
        rows, _ = run_csv(tmp_path, ["converge", "--problem", "advdiff",
                                     "--scheme", "imex-biased-k3", "--dnum", "1e300"])
        assert len(rows) == 4
        assert all(float(r["error"]) < 1e-15 for r in rows)

    @pytest.mark.parametrize("argv", [["--dnum", "1e10", "--levels", "2"], ["--dnum", "1e300"]])
    def test_errors_at_rounding_level_get_a_note(self, capsys, argv):
        # the exact solution has decayed to 0: every error is 8.0e-18, and
        # the fitted_order (2.26e-09, -1.3e-15) fits rounding noise
        assert main(["converge", "--problem", "advdiff", "--scheme", "imex-biased-k3",
                     *argv]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("scheme,problem,dt,error,fitted_order\n")
        assert "note" not in captured.out
        assert captured.err.startswith("note: every error of imex-biased-k3 is at the "
                                       "rounding level of its initial state")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [[], ["--problem", "advdiff"]])
    def test_converging_runs_get_no_note(self, capsys, argv):
        assert main(["converge", *argv]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("scheme", ["imex-biased-k3", "ssp3"])
    def test_advdiff_steps_no_circulant_operator(self, tmp_path, monkeypatch, scheme):
        calls = []
        for name in ("apply", "solve_shifted"):
            monkeypatch.setattr(CirculantOperator, name,
                                lambda self, *args, name=name: calls.append(name))
        run_csv(tmp_path, ["converge", "--problem", "advdiff", "--scheme", scheme,
                           "--cells", "32", "--levels", "2"])
        assert calls == []

    def test_impossible_size_reported_cleanly(self, capsys):
        # 8e15 bytes of stencil index: more than any address space, so NumPy
        # refuses it at once
        code = main(["converge", "--problem", "advdiff", "--cells", str(10**15)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "allocate" in captured.err
        assert captured.out == ""


class TestTvd:
    def test_ssp3_at_half_courant(self, tmp_path, capsys):
        rows, _ = run_csv(tmp_path, ["tvd", "--scheme", "ssp3", "--sigma", "0.5",
                                     "--cells", "128", "--steps", "100"])
        growth = [float(r["tv_growth"]) for r in rows if r["tv_growth"]]
        assert max(growth) <= 1e-12
        assert len(rows) == 101

    def test_ssp4_at_two_thirds(self, tmp_path):
        rows, _ = run_csv(tmp_path, ["tvd", "--scheme", "ssp4",
                                     "--sigma", "0.666666666666666666",
                                     "--cells", "128", "--steps", "100"])
        growth = [float(r["tv_growth"]) for r in rows if r["tv_growth"]]
        assert max(growth) <= 1e-12

    def test_beyond_cfl_reports_growth(self, tmp_path):
        rows, _ = run_csv(tmp_path, ["tvd", "--scheme", "ssp3", "--sigma", "0.95",
                                     "--cells", "64", "--steps", "60"])
        growth = [float(r["tv_growth"]) for r in rows if r["tv_growth"]]
        assert max(growth) > 0.0

    def test_staircase_seeded(self, tmp_path):
        _, first = run_csv(tmp_path, ["tvd", "--data", "staircase", "--seed", "7",
                                      "--cells", "128", "--steps", "20"], "a.csv")
        _, second = run_csv(tmp_path, ["tvd", "--data", "staircase", "--seed", "7",
                                       "--cells", "128", "--steps", "20"], "b.csv")
        assert first == second

    @pytest.mark.parametrize("scheme,k", [("ssp3", 3), ("ssp4", 4)])
    def test_steps_below_k_rejected(self, tmp_path, capsys, scheme, k):
        assert main(["tvd", "--scheme", scheme, "--steps", str(k - 1)]) == 2
        captured = capsys.readouterr()
        assert f"error: --steps must be at least k = {k} for {scheme}" in captured.err
        assert captured.out == ""
        rows, _ = run_csv(tmp_path, ["tvd", "--scheme", scheme, "--steps", str(k)])
        assert len(rows) == k + 1

    def test_summary_counts_only_the_scheme_steps(self, tmp_path, capsys, level_record):
        # ssp3 starts from 3 exact levels, so --steps 3 is one step of the scheme
        rows, _ = run_csv(tmp_path, ["tvd", "--scheme", "ssp3", "--steps", "3"])
        assert len(rows) == 4
        assert rows[0]["tv_growth"] == "" and all(r["tv_growth"] for r in rows[1:])
        err = capsys.readouterr().err
        assert "max per-step TV growth" in err
        assert "over 1 steps of the scheme after 3 exact starting levels" in err
        grid = problems.GridSpec(256)  # the tvd defaults: 256 cells at sigma 0.5
        dt = 0.5 * grid.dx
        rec = level_record()
        integrate(problems.upwind_advection(grid), scheme_from_id("ssp3"), 3 * dt, dt,
                  observe=rec)
        growth = np.diff(rec.tv)
        assert f"max per-step TV growth: {growth[2]:.6g} over" in err
        # the starting levels' own growth is larger and no longer reported
        assert growth[:2].max() > growth[2]

    def test_summary_max_skips_the_starting_levels(self, tmp_path, capsys):
        rows, _ = run_csv(tmp_path, ["tvd", "--scheme", "ssp4", "--steps", "40"])
        growth = np.array([float(r["tv_growth"]) for r in rows[1:]])
        err = capsys.readouterr().err
        assert "over 37 steps of the scheme after 4 exact starting levels" in err
        reported = float(err.split("max per-step TV growth: ")[1].split()[0])
        assert reported == pytest.approx(growth[3:].max(), rel=1e-5)

    @pytest.mark.parametrize("scheme", ["implicit-biased-k3", "implicit-centred-k4"])
    def test_scheme_without_explicit_part_rejected(self, capsys, scheme):
        assert main(["tvd", "--scheme", scheme]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {scheme} has no explicit part to step the upwind "
                                "advection of tvd\n")
        assert captured.out == ""

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tvd", "--data", "staircase", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --seed: must not be negative" in captured.err
        assert captured.out == ""

    def test_staircase_needs_48_cells(self, tmp_path, capsys):
        assert main(["tvd", "--data", "staircase", "--cells", "47"]) == 2
        captured = capsys.readouterr()
        assert "error: --cells must be at least 48 for staircase data" in captured.err
        assert captured.out == ""
        rows, _ = run_csv(tmp_path, ["tvd", "--data", "staircase", "--cells", "48"])
        assert len(rows) == 201
