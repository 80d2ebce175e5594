"""End-to-end tests for the command line front end."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import weakref
from dataclasses import replace

import click
import pytest
from click.testing import CliRunner

import susywell.cli
from susywell import gates, scattering, spectral, states, susy_core
from susywell.cli import main
from susywell.serialize import csv_text, json_text

FLUX_TOL = 1e-10


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestFigures:
    def test_reruns_are_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            res = runner.invoke(main, ["figures", "--out", str(out)])
            assert res.exit_code == 0, res.output
        for name in ("fig1.csv", "fig2.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_flat_baseline_column(self, runner, tmp_path):
        res = runner.invoke(main, ["figures", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = read_csv(tmp_path / "fig1.csv")
        assert len(rows) == 1000
        assert all(float(r["V1_q0"]) == -1.0 for r in rows)

    def test_midcell_value_and_edge_growth(self, runner, tmp_path):
        res = runner.invoke(main, ["figures", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = read_csv(tmp_path / "fig1.csv")
        mid = min(rows, key=lambda r: abs(float(r["x"]) - math.pi / 2))
        assert float(mid["V1_c_re"]) == pytest.approx(-5.0, abs=0.1)
        assert abs(float(mid["V1_c_im"])) < 0.1
        assert abs(float(rows[0]["V1_c_re"])) > 1e5

    def test_second_figure_has_partner_baselines(self, runner, tmp_path):
        res = runner.invoke(main, ["figures", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = read_csv(tmp_path / "fig2.csv")
        assert "V2_c_q0" in rows[0] and "V2_t_q0" in rows[0]
        mid = min(rows, key=lambda r: abs(float(r["x"]) - math.pi / 2))
        # 2csc^2 - 1 at pi/2
        assert float(mid["V2_c_q0"]) == pytest.approx(1.0, abs=0.1)


class TestSpectrum:
    def test_gated_real_run(self, runner, tmp_path):
        res = runner.invoke(main, ["spectrum", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        v1 = read_json(tmp_path / "v1_spectrum.json")
        v2 = read_json(tmp_path / "v2_spectrum.json")
        assert set(v1) == {"eigenvalues", "max_imag", "grid_sizes_used",
                           "richardson_estimates"}
        assert len(v1["eigenvalues"]) == 4
        lowest = [ev[0] for ev in v1["eigenvalues"][:2]]
        assert lowest[0] == pytest.approx(0.0, abs=1e-3)
        assert lowest[1] == pytest.approx(3.0, abs=1e-3)
        assert v1["max_imag"] == 0.0
        assert [ev[0] for ev in v2["eigenvalues"][:2]] == pytest.approx(
            [3.0, 8.0], abs=1e-3)

    @pytest.mark.parametrize("k", ["1e70", "1e73"])
    def test_gated_run_far_from_unit_scale(self, runner, tmp_path, k):
        # unscaled, the extrapolation's system in h^2 (h below 1e-72) is singular
        res = runner.invoke(main, ["spectrum", "--q", "0", "--k", k, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "PASS spectrum_q0" in res.output
        for name in ("v1", "v2"):
            assert "nan" not in (tmp_path / f"{name}_spectrum.json").read_text()

    def test_exact_levels_come_through_the_states_module(self, runner, tmp_path,
                                                         monkeypatch):
        # a patch of the module attribute reaches the printed table and the gate
        exact = states.remainder_spectrum
        monkeypatch.setattr(states, "remainder_spectrum", lambda *args: exact(*args) + 1.0)
        res = runner.invoke(main, ["spectrum", "--q", "0", "--grid", "1000",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 1, res.output
        level0 = next(line for line in res.output.splitlines() if line.startswith("    0   "))
        assert level0.endswith("   1.0000000000")

    def test_exploratory_complex_run(self, runner, tmp_path):
        res = runner.invoke(main, [
            "spectrum", "--q", "2", "--epsilon", "1e-3",
            "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = read_json(tmp_path / "spectrum_eps_1e-03.json")
        assert set(payload) == {"family", "k", "q", "epsilon", "count",
                                "grids", "v1", "v2"}
        for name in ("v1", "v2"):
            block = payload[name]
            assert set(block) == {"per_grid", "richardson_real",
                                  "max_imag_overall"}
            assert len(block["per_grid"]) == 3
        # the complex v1 levels come from the Dirichlet truncation, not the
        # physics: a Frobenius wall puts them on the real ladder, to 3.8e-5 at
        # q = 2 (ROADMAP item 3); the lowest v2 levels are the real 3, 8, 15, 24
        assert payload["v1"]["max_imag_overall"] > 0.0
        assert payload["v2"]["max_imag_overall"] < 1e-6

    def test_csv_format_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["spectrum", "--format", "csv",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3

    def test_gated_run_with_alpha_below_k(self, runner, tmp_path):
        # the levels are (k + n alpha)^2 - k^2, not k^2 n (n + 2)
        res = runner.invoke(main, ["spectrum", "--q", "0", "--alpha", "0.5",
                                   "--count", "8", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        v1 = read_json(tmp_path / "v1_spectrum.json")
        assert v1["richardson_estimates"][2] == pytest.approx(3.0, abs=1e-6)


    def test_custom_domain_recorded_not_gated(self, runner, tmp_path):
        # the exact box levels hold on the natural cell only
        conf = tmp_path / "run.conf"
        conf.write_text("x_min=0.3\nx_max=2.8\n")
        res = runner.invoke(main, ["spectrum", "--q", "0", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "recorded, not gated" in res.output
        assert "spectrum_q0" not in res.output
        for name in ("v1", "v2"):
            assert len(read_json(tmp_path / f"{name}_spectrum.json")["eigenvalues"]) == 4

    def test_narrow_custom_domain_is_solved(self, runner, tmp_path):
        # a box 1e-4 wide: eps ||H||_inf of its grids is above 1e-2, and
        # bisection to 8 eps ||H||_inf still separates its levels
        conf = tmp_path / "run.conf"
        conf.write_text("x_min=0.5\nx_max=0.5001\n")
        res = runner.invoke(main, ["spectrum", "--q", "0", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "recorded, not gated" in res.output

    @pytest.mark.parametrize("k,code", [(1e-8, 3), (1.2e-8, 3), (1.3e-8, 0)])
    def test_tiny_ladder_is_refused_only_below_the_certification_floor(self, runner,
                                                                        tmp_path, k, code):
        # the first spacing 3k^2 is at most 2 eps max(1, 2/h^2) = 2 eps up to
        # k = 1.2e-8: no level could be certified, so the run is refused
        res = runner.invoke(main, ["spectrum", "--q", "0", "--k", repr(k),
                                   "--out", str(tmp_path)])
        assert res.exit_code == code, res.output
        if code:
            assert "config error: k: the first ladder spacing" in res.output
            assert os.listdir(tmp_path) == []
        else:
            assert "PASS spectrum_q0" in res.output

    def test_natural_cell_stays_gated(self, runner, tmp_path):
        res = runner.invoke(main, ["spectrum", "--q", "0", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "PASS spectrum_q0" in res.output
        # 8 levels with a finest grid of 1000 miss the raw bound
        res = runner.invoke(main, ["spectrum", "--q", "0", "--count", "8", "--grid", "1000",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 1, res.output
        assert "FAIL spectrum_q0" in res.output

    def test_unsorted_exploratory_grids_are_sorted(self, runner, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=64,32,48\n")
        res = runner.invoke(main, ["spectrum", "--q", "2", "--epsilon", "1e-3",
                                   "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = read_json(tmp_path / "spectrum_eps_1e-03.json")
        assert payload["grids"] == [32, 48, 64]
        for name in ("v1", "v2"):
            sizes = [g["grid_sizes_used"] for g in payload[name]["per_grid"]]
            assert sizes == [[32], [48], [64]]

    def test_failed_dense_solve_exits_2(self, runner, tmp_path, monkeypatch):
        # geev reporting info 1 on the real PT form is a convergence failure
        lookup = spectral._lapack

        def failing(*args, **kwargs):
            return (*lookup("dgeev")[0](*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(spectral, "_lapack", lambda *names: tuple(
            failing if name == "dgeev" else f for name, f in zip(names, lookup(*names))))
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=64,96\n")
        res = runner.invoke(main, ["spectrum", "--q", "2", "--config", str(conf),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert "convergence failure: dense eigensolver failed (n = 64): geev info 1" \
            in res.output
        assert not (tmp_path / "out").exists()

    def test_default_epsilon_is_one_truncation(self, runner, tmp_path):
        # without --epsilon the run solves the one cell truncated by the
        # default 1e-3, byte for byte the run that sets it, and writes what
        # box_spectra solves there, finest grid 64 whatever the order of the list
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=64,32,48\n")
        runs = {}
        for name, flags in (("default", []), ("set", ["--epsilon", "1e-3"])):
            res = runner.invoke(main, ["spectrum", "--family", "cotangent_well", "--q", "2",
                                       *flags, "--config", str(conf),
                                       "--out", str(tmp_path / name)])
            assert res.exit_code == 0, res.output
            assert [p.name for p in (tmp_path / name).iterdir()] == ["spectrum_eps_1e-03.json"]
            runs[name] = res.output, (tmp_path / name / "spectrum_eps_1e-03.json").read_bytes()
        assert runs["default"][1] == runs["set"][1]
        lo, hi = susy_core.fundamental_cell(gates.Q2_SPEC)
        reports = gates.box_spectra(gates.Q2_SPEC, (lo + 1e-3, hi - 1e-3),
                                    (gates.COUNT, gates.COUNT), (32, 48, 64))
        blocks = {name: susywell.cli.survey_payload(rep)
                  for name, rep in zip(("v1", "v2"), reports)}
        payload = json.loads(runs["default"][1])
        assert {name: payload[name] for name in blocks} == json.loads(json_text(blocks))
        assert payload["v1"]["per_grid"][-1]["grid_sizes_used"] == [64]
        assert (f"eps=0.001 v1: max |Im E| = "
                f"{blocks['v1']['max_imag_overall']:.3e}") in runs["default"][0]


class TestConfigHandling:
    def test_file_applies_and_flags_win(self, runner, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("q=0\nout=%s\n" % tmp_path)
        res = runner.invoke(main, ["figures", "--config", str(conf)])
        assert res.exit_code == 0, res.output
        rows = read_csv(tmp_path / "fig1.csv")
        mid = min(rows, key=lambda r: abs(float(r["x"]) - math.pi / 2))
        # the file's q=0 overrides the command default q=2
        assert float(mid["V1_c_re"]) == pytest.approx(-1.0, abs=1e-9)

        flagged = tmp_path / "flagged"
        flagged.mkdir()
        res = runner.invoke(main, ["figures", "--config", str(conf),
                                   "--q", "2", "--out", str(flagged)])
        assert res.exit_code == 0, res.output
        rows = read_csv(flagged / "fig1.csv")
        mid = min(rows, key=lambda r: abs(float(r["x"]) - math.pi / 2))
        # the flag overrides the file
        assert float(mid["V1_c_re"]) == pytest.approx(-5.0, abs=0.1)

    def test_unknown_key_rejected(self, runner, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("wibble=3\n")
        res = runner.invoke(main, ["figures", "--config", str(conf)])
        assert res.exit_code == 3

    @pytest.mark.parametrize("line", ["slices=1", "negative_control=true"])
    def test_retired_keys_rejected(self, runner, tmp_path, line):
        conf = tmp_path / "old.conf"
        conf.write_text(line + "\n")
        res = runner.invoke(main, ["verify", "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "unknown config key" in res.output
        assert not (tmp_path / "verify.json").exists()

    def test_malformed_line_rejected(self, runner, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("just some words\n")
        res = runner.invoke(main, ["figures", "--config", str(conf)])
        assert res.exit_code == 3

    def test_comments_and_blanks_skipped(self, runner, tmp_path):
        conf = tmp_path / "ok.conf"
        conf.write_text("# comment\n\nq=0\n")
        res = runner.invoke(main, ["figures", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output

    def test_bad_family(self, runner, tmp_path):
        res = runner.invoke(main, ["figures", "--family", "nosuch",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3

    def test_plane_family_refused_for_figures(self, runner, tmp_path):
        res = runner.invoke(main, ["figures", "--family", "plane_right",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3

    def test_count_exceeding_grid_budget(self, runner, tmp_path):
        res = runner.invoke(main, ["spectrum", "--count", "100",
                                   "--grid", "256", "--out", str(tmp_path)])
        assert res.exit_code == 3

    def test_oversized_epsilon(self, runner, tmp_path):
        res = runner.invoke(main, ["figures", "--epsilon", "2.0",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        # at alpha = 2k the table spans the pi/2 wide cell, a quarter of which is 0.39
        res = runner.invoke(main, ["figures", "--alpha", "2", "--epsilon", "0.4",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3

    @pytest.mark.parametrize("args,code", [
        (["verify", "--epsilon", "1"], 0),
        (["scatter", "--family", "barrier", "--epsilon", "1"], 0),
        (["spectrum", "--q", "0", "--epsilon", "1"], 0),
        # a 2 pi wide cell at alpha = 0.5, so 0.9 is inside its quarter
        (["spectrum", "--q", "2", "--alpha", "0.5", "--epsilon", "0.9"], 0),
        (["spectrum", "--q", "2", "--alpha", "2", "--epsilon", "0.5"], 3),
    ], ids=["verify", "scatter", "spectrum-q0", "spectrum-wide-cell", "spectrum-narrow-cell"])
    def test_epsilon_bound_only_where_read(self, runner, tmp_path, args, code):
        # figures keeps its pi/(4 max(k, alpha)) bound (test_oversized_epsilon)
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=32,48,64\n")
        res = runner.invoke(main, [*args, "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == code, res.output

    @pytest.mark.parametrize("args,code", [
        (["scatter", "--family", "barrier", "--count", "1001"], 0),
        (["verify", "--count", "1001", "--grid", "64"], 0),
        # the coarsest exploratory grid, 32, is the bound, not grid / 4 = 16
        (["spectrum", "--q", "2", "--grid", "64", "--count", "20", "--epsilon", "1e-2"], 0),
        (["spectrum", "--count", "100", "--grid", "256"], 3),
    ], ids=["scatter", "verify", "spectrum-exploratory", "spectrum-q0"])
    def test_count_bound_only_where_read(self, runner, tmp_path, args, code):
        # only spectrum reads grid and count together, on its own grids
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=32,48,64\n")
        res = runner.invoke(main, [*args, "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == code, res.output
        if code:
            assert "config error: count: the coarsest grid, 64, cannot resolve 100" in res.output

    def test_missing_config_file(self, runner, tmp_path):
        res = runner.invoke(main, ["figures",
                                   "--config", str(tmp_path / "absent.conf")])
        assert res.exit_code == 3

    def test_count_above_smallest_exploratory_grid(self, runner, tmp_path):
        # refused before solving, not a ValueError from the eigensolver
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=32,48,64\n")
        res = runner.invoke(main, ["spectrum", "--q", "2", "--count", "50",
                                   "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "count" in res.output
        assert not list(tmp_path.glob("spectrum_eps_*.json"))

    def test_single_level_cannot_be_gated(self, runner, tmp_path):
        # the ladder pairs V2 level j with V1 level j + 1: refused before solving
        res = runner.invoke(main, ["spectrum", "--q", "0", "--count", "1",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert "count" in res.output
        assert not list(tmp_path.glob("*_spectrum.json"))

    def test_single_level_on_custom_domain_is_recorded(self, runner, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("x_min=0.3\nx_max=2.8\n")
        res = runner.invoke(main, ["spectrum", "--q", "0", "--count", "1",
                                   "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        for name in ("v1", "v2"):
            assert len(read_json(tmp_path / f"{name}_spectrum.json")["eigenvalues"]) == 1

    @pytest.mark.parametrize("grids", ["200", "200,200,400"])
    def test_exploratory_grids_need_two_sizes(self, runner, tmp_path, grids):
        conf = tmp_path / "run.conf"
        conf.write_text(f"exploratory_grids={grids}\n")
        res = runner.invoke(main, ["spectrum", "--q", "2", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "exploratory_grids" in res.output

    def test_energy_below_free_wave_matching(self, runner, tmp_path):
        # 2 sqrt(1e-30) = 2e-15 is below WRONSKIAN_TOL: refused before any solve
        conf = tmp_path / "run.conf"
        conf.write_text("energies=1e-30\n")
        res = runner.invoke(main, ["scatter", "--family", "barrier", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert "energies" in res.output
        assert not (tmp_path / "scatter.csv").exists()

    @pytest.mark.parametrize("argv,config", [
        (["--family", "barrier"], "barrier_v0=0\n"),
        (["--family", "plane_right", "--k", "1e-300"], ""),
    ], ids=["zero-height-barrier", "plane-k-squared-underflows"])
    def test_default_energies_are_checked(self, runner, tmp_path, argv, config):
        # the default energies scale with |barrier_v0| or k^2, here all 0
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        res = runner.invoke(main, ["scatter", *argv, "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert "config error: energies: scattering energies must be positive" in res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("argv,config,key", [
        (["scatter", "--family", "plane_right", "--k", "1e200"], "", "k"),
        (["scatter", "--family", "plane_right", "--k", "1e200"], "energies=1,2\n", "k"),
        (["spectrum", "--q", "0", "--k", "1e200"], "", "k"),
        (["spectrum", "--q", "0", "--alpha", "1e200"], "", "alpha"),
        (["spectrum", "--q", "1e200"], "", "q"),
        (["spectrum", "--q", "0", "--k", "1e153", "--alpha", "1e153"], "", "alpha"),
        (["spectrum", "--q", "0", "--k", "1e74"], "", "alpha"),
        (["spectrum", "--q", "1", "--alpha", "1e-300"], "", "alpha"),
        (["spectrum", "--q", "0", "--alpha", "1e-300"], "x_min=1\nx_max=1e300\n", "x_min"),
    ], ids=["plane-default-energies", "plane-explicit-energies", "q0-k", "q0-alpha",
            "complex-q", "q0-spacing", "q0-bisection", "wide-cell", "wide-custom-domain"])
    def test_parameters_beyond_the_double_range(self, runner, tmp_path, argv, config, key):
        # k ** 2, q ** 2 or alpha ** 2 would raise OverflowError, at
        # k = alpha = 1e153 the finest grid's 2/h^2 is inf, at k = 1e74
        # its (2/h^2)^2, which Sturm bisection forms, is inf, and on a cell
        # 3e300 (or 1e300) wide the coarsest grid's h ** 2 would raise
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        res = runner.invoke(main, [*argv, "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert f"config error: {key}: " in res.output
        assert isinstance(res.exception, SystemExit)
        assert os.listdir(tmp_path) == ["run.conf"]

    @pytest.mark.parametrize("argv,config,code,message", [
        (["figures"], "k=abc\n", 3, "config error: k: "),
        (["figures"], "q=nan\n", 3, "config error: q: "),
        (["figures"], "grid=4000.5\n", 3, "config error: grid: "),
        (["scatter", "--family", "barrier"], "energies=,\n", 3, "config error: energies: "),
        (["figures", "--k", "-1"], "", 3, "config error: k: "),
        (["figures", "--alpha", "0"], "", 3, "config error: alpha: "),
        (["figures", "--epsilon", "0"], "", 3, "config error: epsilon: "),
        (["figures", "--grid", "32"], "", 3, "config error: grid: "),
        (["figures", "--count", "0"], "", 3, "config error: count: "),
        (["scatter", "--family", "barrier"], "barrier_width=0\n", 3,
         "config error: barrier_width: "),
        (["scatter", "--family", "barrier", "--format", "xml"], "", 3, "config error: format: "),
        (["spectrum", "--q", "2"], "exploratory_grids=8,32\n", 3,
         "config error: exploratory_grids: "),
        (["spectrum", "--q", "0"], "x_min=0.1\n", 3, "config error: x_min: "),
        (["spectrum", "--q", "0"], "x_min=2\nx_max=1\n", 3, "config error: x_min: "),
        (["scatter", "--family", "plane_right"], "partner=v3\n", 3, "config error: partner: "),
        # the middle node of the coarsest grid, 1001 points on (-1, 1), is the pole at 0
        (["spectrum", "--q", "0", "--grid", "4004", "--count", "2"], "x_min=-1\nx_max=1\n", 3,
         "invalid request: evaluation at x="),
        # a plane series past its growth guard is a ConvergenceFailure
        (["scatter", "--family", "plane_right", "--q", "200"], "", 2,
         "convergence failure: plane series at E=0.25 has a coefficient of "),
        # the default q = 1 is 50 alpha at alpha = k / 50, past the |q| <= 5
        # alpha that the series covers at the default energies
        (["scatter", "--family", "plane_right", "--alpha", "0.02"], "", 2,
         "convergence failure: plane series at E=0.25 has a coefficient of "),
        # inverse iteration's vector underflows, and a nan residual fails the gate
        (["spectrum", "--q", "2", "--k", "1e100", "--alpha", "1"], "", 2,
         "convergence failure: eigenpair residual nan"),
        (["spectrum", "--q", "2", "--k", "1e80", "--alpha", "1e80", "--epsilon", "1e-83"],
         "exploratory_grids=32,48,64\n", 2, "convergence failure: "),
        # alpha L = 6e158 leaves the float32 range of the phase split: the
        # transfer matrix is nan while the series guard reads 1.0
        (["scatter", "--family", "plane_right", "--k", "1e-8", "--q", "1e150", "--alpha",
          "1e150"], "", 2, "convergence failure: the transfer matrix at "
         "E=2.5000000000000003e-17 is not finite or leaves the double range"),
    ], ids=["not-a-number", "not-finite", "not-an-integer", "empty-list", "k", "alpha",
            "epsilon", "grid", "count", "barrier-width", "format", "exploratory-grid",
            "x-min-alone", "x-min-above-x-max", "partner", "singular-point",
            "series-growth", "series-growth-small-alpha", "nan-residual", "tiny-cell",
            "plane-phase-past-float32"])
    def test_refusals_exit_by_their_error_family(self, runner, tmp_path, argv, config, code,
                                                 message):
        # ConfigError and any other SusywellError exit 3, ConvergenceFailure
        # and its subclasses exit 2, and nothing is written either way
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        res = runner.invoke(main, [*argv, "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == code, res.output
        assert message in res.output
        assert isinstance(res.exception, SystemExit)
        assert os.listdir(tmp_path) == ["run.conf"]

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--k", "abc"], "config error: k: expected a number, got 'abc'"),
        (["spectrum", "--count", "2.5"], "config error: count: expected an integer, got '2.5'"),
    ], ids=["not-a-number", "not-an-integer"])
    def test_malformed_flags_are_refused_as_config_values(self, runner, tmp_path, argv,
                                                          message):
        # a flag value reaches the CONFIG_KEYS parser that reads the same key
        # from a config file: exit 3, not click's usage exit 2
        res = runner.invoke(main, [*argv, "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert message in res.output
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--bogus", "1"],
        ["spectrum", "--k"],
        ["bogus"],
        ["--bogus"],
    ], ids=["unknown-flag", "flag-without-value", "unknown-subcommand", "unknown-group-flag"])
    def test_usage_errors_are_refused(self, runner, argv):
        # exit 2 means that a solver did not converge
        res = runner.invoke(main, argv)
        assert res.exit_code == 3, res.output
        assert "Error: " in res.output

    def test_no_subcommand_shows_help_and_is_refused(self, runner):
        res = runner.invoke(main, [])
        assert res.exit_code == 3, res.output
        assert "Commands:" in res.output

    @pytest.mark.parametrize("args", [["spectrum", "--bogus", "1"], ["--bogus"]])
    def test_usage_error_keeps_its_exit_code_in_process(self, args):
        # standalone_mode=False hands the error to the caller, as perfbench meets it
        with pytest.raises(click.UsageError) as caught:
            main.main(args=args, standalone_mode=False)
        assert caught.value.exit_code == 3

    def test_help_exits_0(self, runner):
        assert runner.invoke(main, ["--help"]).exit_code == 0
        res = runner.invoke(main, ["spectrum", "--help"])
        assert res.exit_code == 0
        # every flag is taken as text and parsed by its CONFIG_KEYS parser
        assert "--k TEXT" in res.output and "--count TEXT" in res.output

    def test_barrier_near_zero_energy_passes(self, runner, tmp_path):
        # t = 1/M22 keeps T accurate where det M / M22 lost it to cancellation
        conf = tmp_path / "run.conf"
        conf.write_text("energies=1e-8\n")
        res = runner.invoke(main, ["scatter", "--family", "barrier", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "PASS barrier_oracle" in res.output

    def test_dense_grid_over_memory_limit(self, runner, tmp_path):
        # refused from the estimate (12 GiB), before any matrix is allocated
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids = 200, 20000\n")
        start = time.perf_counter()
        res = runner.invoke(main, ["spectrum", "--q", "2", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "exploratory_grids" in res.output
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [["verify"], ["scatter", "--family", "barrier"]])
    def test_exploratory_grids_bind_only_the_survey(self, runner, tmp_path, argv):
        # only spectrum at q != 0 runs the survey, so only it checks the grids
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids = 200, 20000\n")
        res = runner.invoke(main, argv + ["--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output


def test_cli_import_skips_scipy_integrate():
    # a fresh interpreter, so no other test's imports count
    src = os.path.dirname(os.path.dirname(susywell.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, susywell.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    [],
    ["figures"],
    ["scatter", "--family", "barrier"],
    ["scatter", "--family", "plane_right"],
])
def test_commands_without_spectra_load_no_scipy(tmp_path, argv):
    # scipy.linalg is imported where a spectrum is solved, so importing the
    # CLI loads no scipy, and commands that solve no spectrum never load it
    src = os.path.dirname(os.path.dirname(susywell.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from susywell.cli import main\n"
            "try:\n"
            "    if sys.argv[1:]:\n"
            "        main(sys.argv[1:], standalone_mode=False)\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    if argv:
        argv = argv + ["--out", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"


def test_spectra_load_lapack_without_the_scipy_linalg_package(tmp_path):
    # a fresh interpreter, since under pytest the tests import scipy.linalg
    # first: the solves load scipy.linalg._flapack on its own, and a later
    # import of scipy.linalg reuses that module
    src = os.path.dirname(os.path.dirname(susywell.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    (tmp_path / "grids.cfg").write_text("exploratory_grids=64,96\n")
    runs = [["spectrum", "--q", "0", "--grid", "400", "--count", "2"],
            ["spectrum", "--q", "2", "--config", str(tmp_path / "grids.cfg")]]
    code = ("import sys\n"
            "from susywell import spectral\n"
            "from susywell.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    try:\n"
            "        main(argv + ['--out', sys.argv[1]], standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, argv\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.linalg._flapack', 'numpy.f2py',\n"
            "                         'charset_normalizer') if m in sys.modules))\n"
            "import scipy.linalg\n"
            "print(scipy.linalg.lapack.dgtsv is spectral._lapack('dgtsv')[0])")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines()[-2:] == ["['scipy.linalg._flapack']", "True"]


def run_in_process(argv):
    """Run main once in this process with fresh stdout and stderr sinks, as
    an embedding caller does. Returns the exit code, the text of each sink
    and a weak reference to each sink."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, standalone_mode=False)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), (weakref.ref(out), weakref.ref(err))


def assert_collected(sinks):
    # click.echo with no file caches a wrapper per sys.stdout object it
    # meets, and for a text stream that wrapper is the stream itself, so
    # every sink a caller swapped in stayed alive with its text
    gc.collect()
    assert [sink() for sink in sinks] == [None] * len(sinks)


class TestInProcess:
    def test_each_call_prints_to_its_own_sinks_and_holds_none(self, tmp_path):
        (tmp_path / "grids.cfg").write_text("exploratory_grids=64,96\n")
        runs = [
            (["figures"], "fig1.csv"),
            (["spectrum", "--q", "0", "--count", "2", "--grid", "400"], "extrapolated"),
            (["spectrum", "--q", "2", "--config", str(tmp_path / "grids.cfg")],
             "eps=0.001 v2: max |Im E|"),
            (["scatter", "--family", "barrier"], "PASS barrier_oracle"),
            (["scatter", "--family", "plane_right"], "E=5: T="),
        ]
        sinks, texts = [], []
        for argv, marker in runs:
            code, out, err, refs = run_in_process(argv + ["--out", str(tmp_path / argv[0])])
            assert code == 0, (argv, out, err)
            assert marker in out and err == ""
            sinks += refs
            texts.append(out)
        # no call's text reached another call's sink
        for (_, marker), text in zip(runs, texts):
            assert [marker in other for other in texts].count(True) == 1, marker
        assert texts[0].count("wrote ") == 2
        assert_collected(sinks)

    @pytest.mark.parametrize("argv, config, code, message", [
        (["scatter", "--family", "plane_right", "--q", "200"], None, 2,
         "convergence failure: plane series at E=0.25"),
        (["spectrum", "--k", "-1"], None, 3, "config error: k: must be positive"),
        # the middle node of the coarsest grid, 1001 points on (-1, 1), is the pole at 0
        (["spectrum", "--q", "0", "--grid", "4004", "--count", "2"], "x_min=-1\nx_max=1\n", 3,
         "invalid request: evaluation at x="),
    ], ids=["convergence-failure", "config-error", "invalid-request"])
    def test_a_refusal_goes_to_the_stderr_of_its_call(self, tmp_path, argv, config, code,
                                                       message):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        got, out, err, sinks = run_in_process(argv + ["--out", str(tmp_path / "out")])
        assert got == code, (out, err)
        assert out == "" and err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert_collected(sinks)


class TestVerify:
    def test_full_gate_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert "flux_conservation" in names
        # every reading is gated: no record beside the checks, no INFO line
        assert set(report) == {"passed", "checks", "claims"}
        assert "INFO" not in res.output

    def test_negative_control_flips_exit_code(self, runner, tmp_path, monkeypatch):
        # every step up the ladder goes k -> k + 2 alpha
        monkeypatch.setattr(susy_core.SuperpotentialSpec, "shifted",
                            lambda spec: replace(spec, k=spec.k + 2 * spec.alpha))
        res = runner.invoke(main, ["verify", "--out", str(tmp_path)])
        assert res.exit_code == 1
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is False
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["shape_invariance"]["passed"] is False
        # the unshifted control takes no step and still reads above its minimum
        control = float(re.search(r"unshifted control (\S+) \(needs > 1\)",
                                  by_name["shape_invariance"]["detail"]).group(1))
        assert control > gates.CONTROL_MIN

    def test_barrier_keys_leave_the_report_unchanged(self, runner, tmp_path):
        # verify gates the default barrier; scatter --family barrier gates any other
        conf = tmp_path / "run.conf"
        conf.write_text("barrier_v0=0\nbarrier_width=7.5\n")
        for out, extra in (("plain", []), ("keyed", ["--config", str(conf)])):
            res = runner.invoke(main, ["verify", "--out", str(tmp_path / out), *extra])
            assert res.exit_code == 0, res.output
        assert (tmp_path / "plain" / "verify.json").read_bytes() == \
            (tmp_path / "keyed" / "verify.json").read_bytes()

    def test_checks_carry_measured_and_bound(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = read_json(tmp_path / "verify.json")
        assert [c["name"] for c in report["checks"]] == [
            "shape_invariance", "ground_state_residual", "density_equality",
            "pt_symmetry", "spectrum_q0", "flux_conservation", "barrier_oracle",
            "figure_determinism", "partner_intertwining"]
        for check in report["checks"]:
            assert math.isfinite(check["measured"]) and math.isfinite(check["bound"])
            # one report rule: a passing check measures below its bound
            assert check["measured"] < check["bound"], check

    def test_claims_name_every_check_once(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = read_json(tmp_path / "verify.json")
        claims = report["claims"]
        assert list(claims) == ["a", "b", "c", "method"]
        named = [name for claim in claims.values() for name in claim["checks"]]
        assert sorted(named) == sorted(c["name"] for c in report["checks"])
        # nothing checks claim (c) yet, and passed: true does not cover it
        assert claims["c"]["checks"] == []
        assert all(claim["statement"] for claim in claims.values())


class TestScatter:
    def test_barrier_sweep(self, runner, tmp_path):
        res = runner.invoke(main, ["scatter", "--family", "barrier",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = read_csv(tmp_path / "scatter.csv")
        assert len(rows) == 11
        for row in rows:
            total = float(row["R"]) + float(row["T"])
            assert abs(total - 1.0) < FLUX_TOL
            assert abs(float(row["flux_defect"])) < FLUX_TOL
        assert float(rows[-1]["T"]) > 0.95

    def test_json_output(self, runner, tmp_path):
        res = runner.invoke(main, ["scatter", "--family", "barrier",
                                   "--format", "json", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = read_json(tmp_path / "scatter.json")
        assert len(payload["rows"]) == 11
        assert abs(payload["rows"][0]["R"] + payload["rows"][0]["T"] - 1.0) \
            < FLUX_TOL

    def test_default_family_is_travelling_wave(self, runner, tmp_path):
        res = runner.invoke(main, ["scatter", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = read_csv(tmp_path / "scatter.csv")
        assert len(rows) == 7
        # complex potential: the defect is a record, not a gate
        assert any(abs(float(r["flux_defect"])) > 1e-3 for r in rows)

    def test_plane_sweep_comes_through_the_scattering_module(self, runner, tmp_path,
                                                             monkeypatch):
        calls = []
        sweep = scattering.plane_partner_sweep

        def counted(spec, *args, **kwargs):
            calls.append(spec.family.value)
            return sweep(spec, *args, **kwargs)

        monkeypatch.setattr(scattering, "plane_partner_sweep", counted)
        res = runner.invoke(main, ["scatter", "--family", "plane_right",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert calls == ["plane_right"]

    def test_pt_centred_window(self, runner, tmp_path):
        # pi/2 -+ pi, centred where the plane partners are PT-symmetric
        window = (math.pi / 2 - math.pi, math.pi / 2 + math.pi)
        conf = tmp_path / "run.conf"
        conf.write_text(f"window_min={window[0]!r}\nwindow_max={window[1]!r}\n")
        res = runner.invoke(main, ["scatter", "--family", "plane_right", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        spec = susy_core.SuperpotentialSpec(susy_core.Family.PLANE_RIGHT, 1.0, 1.0)
        results = scattering.plane_partner_sweep(spec, susy_core.Partner.V1, window,
                                                 susywell.cli.PLANE_ENERGIES)
        assert (tmp_path / "scatter.csv").read_text() == csv_text(
            susywell.cli.SWEEP_HEADER, susywell.cli.sweep_rows(results))

    def test_csv_and_json_hold_the_same_header_and_numbers(self, runner, tmp_path):
        # both formats of one plane sweep, whose r and t are complex
        for fmt in ("csv", "json"):
            res = runner.invoke(main, ["scatter", "--family", "plane_right", "--format", fmt,
                                       "--out", str(tmp_path)])
            assert res.exit_code == 0, res.output
        header, *lines = (tmp_path / "scatter.csv").read_text().splitlines()
        header = header.split(",")
        rows = read_json(tmp_path / "scatter.json")["rows"]
        assert header == list(susywell.cli.SWEEP_HEADER)
        assert [sorted(row) for row in rows] == [sorted(header)] * len(lines)
        assert [[float(v) for v in line.split(",")] for line in lines] == [
            [row[name] for name in header] for row in rows]
        assert any(row["r_im"] != 0.0 for row in rows)

    @pytest.mark.parametrize("config", ["window_min=0\n", "window_max=6\n",
                                        "window_min=2\nwindow_max=1\n"],
                             ids=["min-only", "max-only", "reversed"])
    def test_bad_window_refused(self, runner, tmp_path, config):
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        res = runner.invoke(main, ["scatter", "--family", "plane_right", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert "config error: window_min" in res.output
        assert not (tmp_path / "scatter.csv").exists()

    @pytest.mark.parametrize("family,config,key", [
        ("barrier", "barrier_v0=1\nbarrier_width=1e200\nenergies=1\n",
         "barrier_width: its square"),
        ("plane_right", "window_min=0\nwindow_max=1e200\n", "window_min: the square"),
        ("plane_right", "window_min=0\nwindow_max=1e155\n", "window_min: the square"),
        ("plane_left", "window_min=-1e308\nwindow_max=1e308\n", "window_min: the square"),
    ], ids=["barrier-1e200", "window-1e200", "window-1e155", "window-inf"])
    def test_width_whose_square_leaves_the_double_range_is_refused(self, runner, tmp_path,
                                                                  family, config, key):
        # the barrier step squares its width, and a plane window is held to
        # the same range; a width of 2e308 is inf itself
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        res = runner.invoke(main, ["scatter", "--family", family, "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert f"config error: {key} " in res.output
        assert "leaves the double range" in res.output
        assert os.listdir(tmp_path) == ["run.conf"]

    def test_barrier_width_whose_square_is_in_range_passes(self, runner, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("barrier_v0=1\nbarrier_width=1e154\nenergies=1\n")
        res = runner.invoke(main, ["scatter", "--family", "barrier", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "PASS barrier_oracle" in res.output

    def test_growing_series_exits_2(self, runner, tmp_path):
        # at q = 200 the series coefficients pass 1e8, where T read 0 unguarded
        res = runner.invoke(main, ["scatter", "--family", "plane_right", "--q", "200",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        size = re.search(r"plane series at E=0.25 has a coefficient of (\S+), past the guard "
                         r"1e\+08", res.output).group(1)
        assert float(size) > 1e8
        assert not (tmp_path / "scatter.csv").exists()

    def test_coupling_whose_series_overflows_exits_2(self, runner, tmp_path):
        # q^2 is in range, but the series coefficients overflow: the refusal
        # names inf, with no RuntimeWarning
        res = runner.invoke(main, ["scatter", "--family", "plane_right", "--q", "1e80",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "plane series at E=0.25 has a coefficient of inf, past the guard" in res.output

    def test_free_wave_match_overflow_exits_2(self, runner, tmp_path):
        # kappa w = 690 passes the step guard, but the match to the free
        # waves at E = 1e-20 would overflow: a convergence failure, not a gate
        conf = tmp_path / "run.conf"
        conf.write_text("barrier_v0=476100\nbarrier_width=1\nenergies=1e-20\n")
        res = runner.invoke(main, ["scatter", "--family", "barrier", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert ("convergence failure: the transfer matrix at E=1e-20 is not finite or leaves "
                "the double range") in res.output
        assert "evanescent exponent" not in res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("config", [
        "barrier_v0=1e155\nbarrier_width=1e-155\n",
        "barrier_v0=1e200\nbarrier_width=1e-200\n",
        "barrier_v0=-1e200\nbarrier_width=1e-200\n",
    ], ids=["1e155", "1e200", "-1e200"])
    def test_barrier_height_beyond_the_double_range(self, runner, tmp_path, config):
        # the closed-form oracle squares barrier_v0, which would raise
        # OverflowError: a refusal, not a failed gate
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        res = runner.invoke(main, ["scatter", "--family", "barrier", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert "config error: barrier_v0: its square leaves the double range" in res.output
        assert isinstance(res.exception, SystemExit)
        assert os.listdir(tmp_path) == ["run.conf"]

    def test_barrier_height_whose_square_is_in_range_passes(self, runner, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("barrier_v0=1e154\nbarrier_width=1e-154\n")
        res = runner.invoke(main, ["scatter", "--family", "barrier", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "PASS flux_conservation" in res.output
        assert "PASS barrier_oracle" in res.output

    def test_slice_overflow_message_prints_a_plain_number(self, runner, tmp_path):
        # the first default energy, 0.1 barrier_v0, has kappa w = sqrt(0.9e100),
        # which fails the step's |Im z| guard
        conf = tmp_path / "run.conf"
        conf.write_text("barrier_v0=1e100\n")
        res = runner.invoke(main, ["scatter", "--family", "barrier", "--config", str(conf),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        exponent = re.search(r"evanescent exponent (\S+) exceeds", res.output).group(1)
        assert float(exponent) == pytest.approx(math.sqrt(0.9e100))
        assert "np.float64" not in res.output

    def test_well_family_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["scatter", "--family", "cotangent_well",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
