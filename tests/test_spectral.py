"""Tests for discretization, eigenvalue paths and extrapolation."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal, eigvals, lapack

from susywell import gates, spectral, states
from susywell.cli import spectrum_payload
from susywell.errors import ConvergenceFailure, SusywellError
from susywell.serialize import json_text
from susywell.spectral import (
    RESIDUAL_TOL,
    Grid1D,
    _dense_eigenpairs,
    _extrapolated,
    _matvec,
    _pt_real_form,
    _shifted_solver,
    _tridiagonal_dense,
    discretize,
    eigenvalues,
    richardson_spectrum,
)
from susywell.states import remainder_spectrum
from susywell.susy_core import (
    WELL_FAMILIES,
    Family,
    Partner,
    SuperpotentialSpec,
    fundamental_cell,
    partner_field,
)

RAW_TOL = 1e-3
RICHARDSON_TOL = 1e-6
PATH_AGREEMENT_TOL = 1e-10

ACCEPTANCE_GRIDS = (1000, 2000, 4000)


def flat(x):
    return np.full_like(np.asarray(x, dtype=float), -1.0, dtype=complex)


def free(x):
    return np.zeros_like(np.asarray(x, dtype=float), dtype=complex)


class TestGrid:
    def test_spacing_and_points(self):
        g = Grid1D(0.0, math.pi, 31)
        assert g.spacing == pytest.approx(math.pi / 32)
        assert len(g.points) == 31
        assert g.points[0] == pytest.approx(g.spacing)
        assert g.points[-1] == pytest.approx(math.pi - g.spacing)

    def test_refuses_tiny_grids(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 8)

    def test_refuses_empty_interval(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 32)


class TestDiscretize:
    def test_free_particle_entries(self):
        g = Grid1D(0.0, math.pi, 31)
        h = discretize(free, g)
        assert_allclose(h.diagonal, 2.0 / g.spacing ** 2)
        assert h.off_diagonal == pytest.approx(-1.0 / g.spacing ** 2)

    def test_flat_well_entries(self):
        g = Grid1D(0.0, math.pi, 31)
        h = discretize(flat, g)
        assert_allclose(h.diagonal, 2.0 / g.spacing ** 2 - 1.0)

    def test_complex_well_matches_closed_form(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        field = partner_field(spec, Partner.V1)
        g = Grid1D(0.01, math.pi - 0.01, 100)
        h = discretize(field, g)
        expect = 2.0 / g.spacing ** 2 + field(g.points)
        assert_allclose(h.diagonal, expect)
        assert not h.is_real

    def test_node_on_pole_is_refused(self):
        # 32 subintervals of [0, pi] put a node exactly on the interior pole
        field = partner_field(SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 1.0),
                              Partner.V1)
        with pytest.raises(SusywellError, match="within the exclusion radius"):
            discretize(field, Grid1D(0.0, math.pi, 31))

    def test_nonfinite_potential_is_refused(self):
        def bad(x):
            xs = np.asarray(x, dtype=float)
            return np.where(np.abs(xs - 1.0) < 0.05, np.nan, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            discretize(bad, Grid1D(0.0, math.pi, 64))


class TestEigenvalues:
    def test_particle_in_a_box(self):
        rep = richardson_spectrum(free, 0.0, math.pi, 4, ACCEPTANCE_GRIDS)
        expect = [1.0, 4.0, 9.0, 16.0]
        assert np.max(np.abs(rep.eigenvalues.real - expect)) < RAW_TOL
        assert np.max(np.abs(np.array(rep.richardson_estimates) - expect)) \
            < RICHARDSON_TOL

    def test_shifted_box_levels(self):
        rep = richardson_spectrum(flat, 0.0, math.pi, 4, ACCEPTANCE_GRIDS)
        expect = [remainder_spectrum(n) for n in range(4)]
        assert np.max(np.abs(rep.eigenvalues.real - expect)) < RAW_TOL
        assert np.max(np.abs(np.array(rep.richardson_estimates) - expect)) \
            < RICHARDSON_TOL
        assert rep.max_imag == 0.0

    def test_partner_well_levels(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        rep = richardson_spectrum(partner_field(spec, Partner.V2), 0.0, math.pi,
                                  3, ACCEPTANCE_GRIDS)
        assert np.max(np.abs(rep.eigenvalues.real - [3.0, 8.0, 15.0])) < RAW_TOL

    def test_real_and_dense_paths_agree(self):
        g = Grid1D(0.0, math.pi, 400)
        h = discretize(flat, g)
        assert h.is_real
        sym = eigenvalues(h, 5)
        dense, _ = _dense_eigenpairs(h, 5)
        assert np.max(np.abs(sym.eigenvalues - dense)) < PATH_AGREEMENT_TOL

    def test_residual_gates(self):
        g = Grid1D(0.0, math.pi, 1000)
        rep = eigenvalues(discretize(flat, g), 5)
        assert np.all(rep.scaled_residuals <= 1e-8)
        # on the well conditioned acceptance path the absolute form holds too
        assert np.all(rep.residuals <= 1e-8)

    def test_nan_residual_fails_the_gate(self, monkeypatch):
        # a vector whose norm underflowed to 0 leaves a nan residual
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(0.01, math.pi - 0.01, 64))
        monkeypatch.setattr(spectral, "_dense_eigenpairs", lambda ham, count: (
            np.zeros(count, dtype=complex), np.full(count, np.nan)))
        with pytest.raises(ConvergenceFailure, match="residual nan exceeds"):
            eigenvalues(h, 2)

    def test_failed_dense_solve_raises(self, monkeypatch):
        # geev reporting info > 0 (QR not converged) is a ConvergenceFailure
        lookup = spectral._lapack

        def failing(*args, **kwargs):
            return (*lookup("dgeev")[0](*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(spectral, "_lapack", lambda *names: tuple(
            failing if name == "dgeev" else f for name, f in zip(names, lookup(*names))))
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(0.01, math.pi - 0.01, 64))
        with pytest.raises(ConvergenceFailure,
                           match=r"dense eigensolver failed \(n = 64\): geev info 1$"):
            eigenvalues(h, 2)

    def test_count_bounds(self):
        h = discretize(free, Grid1D(0.0, math.pi, 32))
        with pytest.raises(ValueError):
            eigenvalues(h, 100)

    def test_eigenvalue_ordering(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(0.01, math.pi - 0.01, 200))
        rep = eigenvalues(h, 8)
        re = rep.eigenvalues.real
        assert np.all(np.diff(re) >= -1e-12)

    def test_off_centre_domain_takes_complex_fallback(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(0.05, math.pi - 0.3, 200))
        assert _pt_real_form(h) is None
        rep = eigenvalues(h, 6)
        assert np.all(rep.scaled_residuals <= RESIDUAL_TOL)
        full = eigvals(_tridiagonal_dense(h.diagonal, h.off_diagonal))
        lowest = full[np.lexsort((full.imag, full.real))[:6]]
        assert np.max(np.abs(rep.eigenvalues - lowest)) < 1e-10 * h.norm_inf

    def test_dense_solve_works_in_place(self):
        # the real PT form is built in Fortran order, so LAPACK solves it
        # without a transposed copy: one 8 n^2 matrix is allocated, not two
        n = 400
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(1e-3, math.pi - 1e-3, n))
        assert _pt_real_form(h).flags.f_contiguous
        tracemalloc.start()
        try:
            _dense_eigenpairs(h, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_shift_on_a_diagonal_entry(self, dtype):
        # odd n free box: H - d_0 I is exactly singular (its middle level is
        # 2/h^2), so gtsv stops on a zero pivot, for the real symmetric path
        # and the complex dense one alike, and the pivot-floor solve takes over
        h = discretize(free, Grid1D(0.0, math.pi, 31))
        diagonal = h.diagonal.real.astype(dtype)
        shift = diagonal[0]
        band = np.full(30, h.off_diagonal, dtype=dtype)
        (gtsv,) = lapack.get_lapack_funcs(("gtsv",), (diagonal,))
        assert gtsv(band, diagonal - shift, band, np.ones(31, dtype=dtype))[-1] > 0
        solve = _shifted_solver(diagonal, band, h.pivot_floor)
        vec = np.random.default_rng(0).standard_normal(31)
        for _ in range(2):
            vec = solve(shift, vec)
        assert vec.dtype == dtype
        assert np.all(np.isfinite(vec))
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        resid = np.linalg.norm(_matvec(h.diagonal, h.off_diagonal, vec) - shift * vec) / h.norm_inf
        assert resid <= RESIDUAL_TOL

    @pytest.mark.parametrize("guessed", [True, False], ids=["guessed", "bisected"])
    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_lapack_routines_are_looked_up_once_per_grid(self, monkeypatch, q, guessed):
        # a symmetric call looks up stebz once, for its Sturm count or its
        # bisections alike, and gtsv/gttrf/gttrs for its solver, the dense
        # path geev and its solver's three; neither looks them up again per
        # solve, whatever the solve count
        lookup = spectral._lapack
        calls = {"lookups": 0, "stebz": 0, "solves": 0}

        def counted_solve(gtsv):
            def solve(*args, **kwargs):
                calls["solves"] += 1
                return gtsv(*args, **kwargs)
            return solve

        def counted_lookup(*names):
            calls["lookups"] += 1
            calls["stebz"] += names.count("dstebz")
            funcs = lookup(*names)
            return tuple(counted_solve(f) if name in ("dgtsv", "zgtsv") else f
                         for name, f in zip(names, funcs))

        monkeypatch.setattr(spectral, "_lapack", counted_lookup)
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, q)
        lo, hi = fundamental_cell(spec)
        ham = discretize(partner_field(spec, Partner.V1), Grid1D(lo + 0.05, hi - 0.05, 400))
        per_call = []
        for count in (2, 8):
            calls.update(lookups=0, stebz=0, solves=0)
            guess = [remainder_spectrum(m) for m in range(count)] if guessed else None
            eigenvalues(ham, count, guess=guess)
            per_call.append(dict(calls))
        assert per_call[0]["lookups"] == per_call[1]["lookups"]
        assert per_call[1]["solves"] > per_call[0]["solves"] >= 2
        if q == 0:
            assert [(c["lookups"], c["stebz"]) for c in per_call] == [(2, 1), (2, 1)]


class TestSymmetricCertificate:
    @pytest.mark.parametrize("family", WELL_FAMILIES)
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.2, 3.0])
    @pytest.mark.parametrize("n", [1000, 2000, 4000, 8000])
    def test_levels_match_the_finite_difference_closed_form(self, family, k, n):
        # at alpha = k and q = 0, V1 is the constant -k^2 on the cell, so the
        # three-point levels are (4/h^2) sin^2(m pi / 2(n+1)) - k^2, m = 1, 2, ...
        spec = SuperpotentialSpec(family, k, 0.0)
        grid = Grid1D(*fundamental_cell(spec), n)
        ham = discretize(partner_field(spec, Partner.V1), grid)
        rep = eigenvalues(ham, 8)
        m = np.arange(1, 9)
        exact = 4.0 / grid.spacing ** 2 * np.sin(m * np.pi / (2 * (n + 1))) ** 2 - k * k
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(rep.eigenvalues.real - exact)) <= 0.25 * eps * ham.norm_inf

    @pytest.mark.parametrize("height", [150.0, 5000.0])
    def test_split_double_well_levels(self, height):
        # a barrier of this height in the middle of the box pairs the levels:
        # at 150 the lowest pair splits by 9e-7 of the gap to the next pair and
        # is resolved; at 5000 the split is below the rounding of H, and the
        # pair is either returned right or refused, never returned wrong
        def double_well(x):
            return np.where(np.abs(np.asarray(x)) < 0.5, height, 0.0).astype(complex)

        ham = discretize(double_well, Grid1D(-2.0, 2.0, 399))
        reference = eigh_tridiagonal(ham.diagonal.real, np.full(398, ham.off_diagonal),
                                     eigvals_only=True, select="i", select_range=(0, 3))
        bound = 4 * np.finfo(np.float64).eps * ham.norm_inf
        try:
            rep = eigenvalues(ham, 4)
        except ConvergenceFailure:
            assert height > 150.0
            return
        assert np.max(np.abs(rep.eigenvalues.real - reference)) <= bound


class TestPredictedBrackets:
    """A prediction of the levels is confirmed by one Sturm count at the top
    cut and a certificate in every cell; any prediction the count or the
    certificates refute falls back to bisection and gives the same levels."""

    SPEC = SuperpotentialSpec(Family.COTANGENT_WELL, 2.2, 0.0, 1.1)

    @pytest.fixture
    def bisections(self, monkeypatch):
        calls = []
        bisect = spectral._bisect

        def counted(*args, **kwargs):
            calls.append(args[2])
            return bisect(*args, **kwargs)

        monkeypatch.setattr(spectral, "_bisect", counted)
        return calls

    def ham(self, n=1000):
        lo, hi = fundamental_cell(self.SPEC)
        return discretize(partner_field(self.SPEC, Partner.V1), Grid1D(lo, hi, n))

    def test_ladder_bisects_only_its_first_grid(self, bisections):
        lo, hi = fundamental_cell(self.SPEC)
        field = partner_field(self.SPEC, Partner.V1)
        rep = richardson_spectrum(field, lo, hi, 8, (1000, 2000, 4000))
        assert len(bisections) == 1
        eps = np.finfo(np.float64).eps
        for n, primed in zip((1000, 2000, 4000), rep.per_grid):
            ham = discretize(field, Grid1D(lo, hi, n))
            plain = eigenvalues(ham, 8)
            assert np.max(np.abs(primed.eigenvalues - plain.eigenvalues)) <= eps * ham.norm_inf

    def test_confirmed_prediction_skips_bisection(self, bisections):
        ham = self.ham()
        plain = eigenvalues(ham, 8)
        bisections.clear()
        primed = eigenvalues(ham, 8, guess=plain.eigenvalues.real + 1e-3)
        assert bisections == []
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(primed.eigenvalues - plain.eigenvalues)) <= eps * ham.norm_inf

    @pytest.mark.parametrize("case", ["off_by_one_level", "skips_a_level", "not_increasing",
                                      "count_one", "cut_on_a_level", "cells_misassigned"])
    def test_refuted_prediction_falls_back(self, bisections, case):
        ham = self.ham()
        eps = np.finfo(np.float64).eps
        levels = eigh_tridiagonal(ham.diagonal.real, np.full(999, ham.off_diagonal),
                                  eigvals_only=True, select="i", select_range=(0, 9))
        count = 1 if case == "count_one" else 8
        guess = {
            "off_by_one_level": levels[1:9],
            "skips_a_level": np.concatenate((levels[:1], levels[2:9])),
            "not_increasing": np.concatenate((levels[1::-1], levels[2:8])),
            "count_one": levels[:1],
            # cut 1 a quarter of eps ||H|| above level 0: no room to certify it
            "cut_on_a_level": np.concatenate((
                [2 * levels[0] - levels[1]], [levels[1] + 0.5 * eps * ham.norm_inf],
                levels[2:8])),
            # the top count is right, but cell 0 holds levels 0 and 1 and
            # cell 1 holds none, so no level of cell 1 can be certified
            "cells_misassigned": np.concatenate((
                [levels[1], levels[1] + 0.6 * (levels[2] - levels[1]),
                 levels[2] + 0.01 * (levels[2] - levels[1])], levels[3:8])),
        }[case]
        primed = eigenvalues(ham, count, guess=guess)
        assert len(bisections) == 1
        plain = eigenvalues(ham, count)
        assert np.max(np.abs(primed.eigenvalues - plain.eigenvalues)) <= eps * ham.norm_inf

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_natural_cell_ladder_bisects_no_grid(self, bisections, family, ratio):
        # the closed-form ladder seeds the coarsest grid, the coarser grids
        # seed the finer ones
        spec = SuperpotentialSpec(family, 2.2, 0.0, 2.2 * ratio)
        v1, v2 = gates.box_spectra(spec, counts=(6, 6), grids=(500, 1000, 2000))
        assert bisections == []
        assert gates.spectrum_q0(v1, v2, spec.k, spec.alpha).passed

    @pytest.mark.parametrize("k, cell, count, grid", [
        (1.0, (0.3, 2.8), 4, 2000),
        # close levels, about 3.5e-4 apart
        (0.01, (10.0, 300.0), 8, 4000),
    ])
    def test_custom_domain_ladder_bisects_its_first_grid(self, bisections, k, cell, count,
                                                         grid):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, k, 0.0)
        reports = gates.box_spectra(spec, cell, counts=(count, count),
                                    grids=(grid // 4, grid // 2, grid))
        # one bisection per partner's ladder, on its coarsest grid
        assert len(bisections) == 2
        eps = np.finfo(np.float64).eps
        for which, rep in zip(Partner, reports):
            for n, grid_rep in zip((grid // 4, grid // 2, grid), rep.per_grid):
                ham = discretize(partner_field(spec, which), Grid1D(*cell, n))
                reference = eigh_tridiagonal(ham.diagonal.real, np.full(n - 1, ham.off_diagonal),
                                             eigvals_only=True, select="i",
                                             select_range=(0, count - 1))
                assert (np.max(np.abs(grid_rep.eigenvalues.real - reference))
                        <= 4 * eps * ham.norm_inf)

    @pytest.mark.parametrize("case", ["half_a_spacing_up", "skips_a_level", "alpha_ignored"])
    def test_wrong_ladder_guess_keeps_every_grid(self, bisections, monkeypatch, case):
        lo, hi = fundamental_cell(self.SPEC)
        k, alpha = self.SPEC.k, self.SPEC.alpha
        field = partner_field(self.SPEC, Partner.V1)
        grids = (500, 1000, 2000)
        exact = np.array([remainder_spectrum(m, k, alpha) for m in range(9)])
        if case == "alpha_ignored":
            # box_spectra's guess from a ladder that steps by k instead of alpha
            monkeypatch.setattr(states, "remainder_spectrum",
                                lambda m, k_base=1.0, alpha=None: remainder_spectrum(m, k_base))
            primed = gates.box_spectra(self.SPEC, counts=(8, 8), grids=grids)[0]
        else:
            guess = {"half_a_spacing_up": exact[:8] + np.diff(exact) / 2,
                     "skips_a_level": np.delete(exact, 1)}[case]
            primed = richardson_spectrum(field, lo, hi, 8, grids, guess=guess)
        plain = richardson_spectrum(field, lo, hi, 8, grids)
        eps = np.finfo(np.float64).eps
        for n, a, b in zip(grids, primed.per_grid, plain.per_grid):
            norm = discretize(field, Grid1D(lo, hi, n)).norm_inf
            assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 2 * eps * norm

    def test_ladder_reports_keep_no_vectors(self):
        lo, hi = fundamental_cell(self.SPEC)
        rep = richardson_spectrum(partner_field(self.SPEC, Partner.V1), lo, hi, 4,
                                  (500, 1000, 2000))
        assert rep.vectors is None
        assert all(grid_rep.vectors is None for grid_rep in rep.per_grid)
        assert [vec.shape for vec in eigenvalues(self.ham(), 4).vectors] == [(1000,)] * 4

    def test_resampled_vectors_follow_the_mode(self):
        # sin(m pi (x - lo) / L) vanishes at both walls; linear interpolation
        # from the coarse nodes is good to (m pi h / L)^2 / 8, and a vector
        # resampled onto its own grid keeps its values
        coarse, fine = Grid1D(0.5, 3.0, 250), Grid1D(0.5, 3.0, 1000)
        modes = np.arange(1, 4) * np.pi / 2.5
        moved = list(spectral._resampled(np.sin(np.outer(modes, coarse.points - 0.5)), fine))
        for mode, vec in zip(modes, moved):
            bound = (mode * coarse.spacing) ** 2 / 8
            assert np.max(np.abs(vec - np.sin(mode * (fine.points - 0.5)))) <= bound
        assert np.array_equal(list(spectral._resampled(moved, fine)), moved)

    def test_vectors_must_be_one_per_level_of_one_length(self):
        ham = self.ham()
        guess = eigenvalues(ham, 8).eigenvalues.real
        for vectors in (np.ones((7, 1000)), [np.ones(1000)] * 7 + [np.ones(999)]):
            with pytest.raises(ValueError, match="vectors"):
                eigenvalues(ham, 8, guess=guess, vectors=vectors)

    def test_guess_is_keyword_only(self):
        ham = self.ham()
        guess = eigenvalues(ham, 8).eigenvalues.real
        with pytest.raises(TypeError):
            eigenvalues(ham, 8, guess)

    def test_guess_must_hold_count_levels(self):
        ham = self.ham()
        with pytest.raises(ValueError, match="guess"):
            eigenvalues(ham, 8, guess=np.arange(7.0))


class TestConvergence:
    def test_second_order_in_spacing(self):
        errs = []
        for n in (500, 1000, 2000, 4000):
            rep = eigenvalues(discretize(flat, Grid1D(0.0, math.pi, n)), 1)
            errs.append(abs(rep.eigenvalues[0].real - 0.0))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        for r in ratios:
            assert 3.0 < r < 5.0

    def test_extrapolation_gains_two_digits(self):
        rep = richardson_spectrum(flat, 0.0, math.pi, 1, ACCEPTANCE_GRIDS)
        raw_err = abs(rep.eigenvalues[0].real)
        rich_err = abs(rep.richardson_estimates[0])
        assert rich_err < raw_err / 100

    def test_extrapolate_recovers_polynomial_limit(self):
        spacings = [0.1, 0.05, 0.025]
        limit, c2, c4 = 7.25, 3.0, -11.0
        values = [limit + c2 * h ** 2 + c4 * h ** 4 for h in spacings]
        assert _extrapolated(spacings, [values])[0] == pytest.approx(limit, abs=1e-12)

    def test_extrapolate_handles_non_dyadic_ladder(self):
        spacings = [1.0 / 11, 1.0 / 17, 1.0 / 29]
        values = [2.5 - 4.0 * h ** 2 for h in spacings]
        assert _extrapolated(spacings, [values])[0] == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("exponent", [-400, 400])
    def test_extrapolate_is_scale_free(self, exponent):
        # unscaled, the h^4 column of 2^-400 h underflows and that of 2^400 h
        # overflows; a power of two scales each column exactly
        spacings = [1.0 / 11, 1.0 / 17, 1.0 / 29]
        rows = [[2.5 - 4.0 * h ** 2 + 9.0 * h ** 4 for h in spacings], [1.0, 2.0, 4.0]]
        scaled = [math.ldexp(h, exponent) for h in spacings]
        assert _extrapolated(scaled, rows) == _extrapolated(spacings, rows)


def report_json(rep) -> str:
    """The text that `spectrum` writes for rep."""
    return json_text(spectrum_payload(rep)) + "\n"


class TestReportSerialization:
    def test_schema_keys(self):
        rep = richardson_spectrum(flat, 0.0, math.pi, 2, (500, 1000))
        payload = json.loads(report_json(rep))
        assert set(payload) == {"eigenvalues", "max_imag", "grid_sizes_used",
                                "richardson_estimates"}
        assert payload["grid_sizes_used"] == [500, 1000]
        assert all(len(pair) == 2 for pair in payload["eigenvalues"])

    def test_byte_determinism(self):
        rep = richardson_spectrum(flat, 0.0, math.pi, 2, (500, 1000))
        again = richardson_spectrum(flat, 0.0, math.pi, 2, (500, 1000))
        assert report_json(rep) == report_json(again)

    def test_roundtrip_precision(self):
        rep = eigenvalues(discretize(flat, Grid1D(0.0, math.pi, 500)), 1)
        payload = json.loads(report_json(rep))
        assert payload["eigenvalues"][0][0] == rep.eigenvalues[0].real
