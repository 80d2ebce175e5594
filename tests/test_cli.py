"""End-to-end tests for the command line front end."""

import csv
import json
import math
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import susywell.cli
from susywell import gates, scattering, spectral
from susywell.cli import main
from susywell.serialize import json_text

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

    def test_exact_levels_come_through_the_spectral_module(self, runner, tmp_path,
                                                           monkeypatch):
        # a patch of the module attribute reaches the printed table and the gate
        exact = spectral.remainder_spectrum
        monkeypatch.setattr(spectral, "remainder_spectrum", lambda *args: exact(*args) + 1.0)
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
        # v1 is PT-broken; the lowest v2 levels are the real 3, 8, 15, 24
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

    def test_survey_writes_what_the_acceptance_survey_records(self, runner, tmp_path):
        # the default sweep of three truncations, finest grid 64 whatever the
        # order of the list; V1 is the survey of acceptance criterion 9
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=64,32,48\n")
        res = runner.invoke(main, ["spectrum", "--family", "cotangent_well", "--q", "2",
                                   "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert len(list(tmp_path.glob("spectrum_eps_*.json"))) == 3
        for eps, blocks in gates.truncation_survey(grids=(32, 48, 64)):
            payload = read_json(tmp_path / f"spectrum_eps_{eps:.0e}.json")
            assert {name: payload[name] for name in blocks} == json.loads(json_text(blocks))
            assert payload["v1"]["per_grid"][-1]["grid_sizes_used"] == [64]
            assert (f"eps={eps:g} v1: max |Im E| = "
                    f"{blocks['v1']['max_imag_overall']:.3e}") in res.output


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

    @pytest.mark.parametrize("args,code", [
        (["verify", "--epsilon", "1"], 0),
        (["scatter", "--family", "barrier", "--epsilon", "1"], 0),
        (["spectrum", "--q", "0", "--epsilon", "1"], 0),
        # a 2 pi wide cell at alpha = 0.5, so 0.9 is inside its quarter
        (["spectrum", "--q", "2", "--alpha", "0.5", "--epsilon", "0.9"], 0),
        (["spectrum", "--q", "2", "--alpha", "2", "--epsilon", "0.5"], 3),
    ], ids=["verify", "scatter", "spectrum-q0", "spectrum-wide-cell", "spectrum-narrow-cell"])
    def test_epsilon_bound_only_where_read(self, runner, tmp_path, args, code):
        # figures keeps the pi/(4k) bound (test_oversized_epsilon)
        conf = tmp_path / "run.conf"
        conf.write_text("exploratory_grids=32,48,64\n")
        res = runner.invoke(main, [*args, "--config", str(conf), "--out", str(tmp_path)])
        assert res.exit_code == code, res.output

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


class TestVerify:
    def test_full_gate_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert "negative_control_fails" in names
        assert "flux_conservation" in names
        # the truncated-box spectra come from `spectrum --q 2`, not verify
        exploratory = report["exploratory"]
        assert "truncation" not in exploratory
        coupling = exploratory["pole_coupling"]
        assert coupling["lower_wall"] == [-4.0, -2.0]
        assert coupling["upper_wall"] == [-4.0, 2.0]
        assert coupling["re_g"] == -4.0 and coupling["fall_to_centre"] is True
        assert "susywell spectrum --family cotangent_well --q 2" in " ".join(exploratory["notes"])
        assert "INFO truncated-box spectra: susywell spectrum --family cotangent_well --q 2" \
            in res.output

    def test_negative_control_flips_exit_code(self, runner, tmp_path):
        conf = tmp_path / "broken.conf"
        conf.write_text("negative_control=true\nout=%s\n" % tmp_path)
        res = runner.invoke(main, ["verify", "--config", str(conf)])
        assert res.exit_code == 1
        report = read_json(tmp_path / "verify.json")
        assert report["passed"] is False
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["shape_invariance"]["passed"] is False


    def test_checks_carry_measured_and_bound(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = read_json(tmp_path / "verify.json")
        assert [c["name"] for c in report["checks"]] == [
            "shape_invariance", "negative_control_fails", "ground_state_residual",
            "density_equality", "pt_symmetry_wells", "spectrum_q0",
            "flux_conservation", "barrier_oracle", "figure_determinism"]
        for check in report["checks"]:
            assert math.isfinite(check["measured"]) and math.isfinite(check["bound"])


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

    def test_accumulated_overflow_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["scatter", "--family", "plane_right", "--q", "200",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "convergence failure: evanescent exponent" in res.output
        assert "exceeds the overflow guard" in res.output

    def test_well_family_refused(self, runner, tmp_path):
        res = runner.invoke(main, ["scatter", "--family", "cotangent_well",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
