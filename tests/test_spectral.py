"""Tests for discretization, eigenvalue paths, extrapolation, and ladders."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigvals

from susywell.errors import InsufficientEigenvalues, SingularPoint
from susywell.spectral import (
    RESIDUAL_TOL,
    Grid1D,
    _inverse_iteration,
    _pt_real_form,
    _tridiagonal_dense,
    discretize,
    eigenvalues,
    isospectral_check,
    remainder_spectrum,
    richardson_extrapolate,
    richardson_spectrum,
)
from susywell.susy_core import Family, Partner, SuperpotentialSpec, partner_field

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
        with pytest.raises(SingularPoint):
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
        sym = eigenvalues(h, 5, method="symmetric")
        dense = eigenvalues(h, 5, method="dense")
        assert np.max(np.abs(sym.eigenvalues - dense.eigenvalues)) \
            < PATH_AGREEMENT_TOL

    def test_residual_gates(self):
        g = Grid1D(0.0, math.pi, 1000)
        rep = eigenvalues(discretize(flat, g), 5)
        assert np.all(rep.scaled_residuals <= 1e-8)
        # on the well conditioned acceptance path the absolute form holds too
        assert np.all(rep.residuals <= 1e-8)

    def test_symmetric_path_requires_real_diagonal(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(0.1, math.pi - 0.1, 64))
        with pytest.raises(ValueError):
            eigenvalues(h, 3, method="symmetric")

    def test_count_bounds(self):
        h = discretize(free, Grid1D(0.0, math.pi, 32))
        with pytest.raises(ValueError):
            eigenvalues(h, 100)

    def test_eigenvalue_ordering(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(0.01, math.pi - 0.01, 200))
        rep = eigenvalues(h, 8, method="dense")
        re = rep.eigenvalues.real
        assert np.all(np.diff(re) >= -1e-12)

    def test_off_centre_domain_takes_complex_fallback(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        h = discretize(partner_field(spec, Partner.V1), Grid1D(0.05, math.pi - 0.3, 200))
        assert _pt_real_form(h) is None
        rep = eigenvalues(h, 6, method="dense")
        assert np.all(rep.scaled_residuals <= RESIDUAL_TOL)
        full = eigvals(_tridiagonal_dense(h.diagonal, h.off_diagonal))
        lowest = full[np.lexsort((full.imag, full.real))[:6]]
        assert np.max(np.abs(rep.eigenvalues - lowest)) < 1e-10 * h.norm_inf

    def test_shift_on_a_diagonal_entry(self):
        # odd n free box: H - d_0 I is exactly singular (its middle level is
        # 2/h^2), so an unguarded banded solve stops on a zero pivot
        h = discretize(free, Grid1D(0.0, math.pi, 31))
        shift = h.diagonal[0]
        vec = _inverse_iteration(h, shift, np.random.default_rng(0).standard_normal(31))
        assert np.all(np.isfinite(vec))
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        resid = np.linalg.norm(h.matvec(vec) - shift * vec) / h.norm_inf
        assert resid <= RESIDUAL_TOL


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
        assert richardson_extrapolate(spacings, values) == pytest.approx(limit,
                                                                         abs=1e-12)

    def test_extrapolate_handles_non_dyadic_ladder(self):
        spacings = [1.0 / 11, 1.0 / 17, 1.0 / 29]
        values = [2.5 - 4.0 * h ** 2 for h in spacings]
        assert richardson_extrapolate(spacings, values) == pytest.approx(2.5,
                                                                         abs=1e-12)


class TestLadders:
    @pytest.mark.parametrize("n,expect", [(0, 0), (1, 3), (4, 24)])
    def test_analytic_levels(self, n, expect):
        assert remainder_spectrum(n) == expect

    @pytest.mark.parametrize("n,expect", [(0, 0.0), (1, 3.0), (3, 15.0)])
    def test_remainder_partial_sums(self, n, expect):
        assert remainder_spectrum(n, 1.0) == expect

    @pytest.mark.parametrize("k,alpha", [(1.0, 0.5), (1.7, 1.7 / 3), (3.0, 0.75)])
    def test_remainder_with_separate_step(self, k, alpha):
        # telescoped sum of alpha (alpha + 2 k_j), k_j = k + (j-1) alpha
        for n in range(12):
            steps = sum(alpha * (alpha + 2 * (k + j * alpha)) for j in range(n))
            assert remainder_spectrum(n, k, alpha) == pytest.approx(steps, rel=1e-13,
                                                                    abs=1e-13)
            assert remainder_spectrum(n, k, alpha) == pytest.approx((k + n * alpha) ** 2 - k ** 2)

    def test_telescoping_is_exact(self):
        for n in range(51):
            assert remainder_spectrum(n, 1.0) == n * (n + 2)

    def test_scaled_base(self):
        # first step at k_base=2: a(a+2k) = 4 + 8 = 12
        assert remainder_spectrum(1, 2.0) == pytest.approx(12.0)


class TestIsospectral:
    def test_identical_reports(self):
        rep = richardson_spectrum(flat, 0.0, math.pi, 3, (500, 1000))
        res = isospectral_check(rep, rep, shift=0)
        assert res.matched == 3
        assert res.max_error == 0.0
        assert res.passed

    def test_partner_ladder(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        v1 = richardson_spectrum(partner_field(spec, Partner.V1), 0.0, math.pi,
                                 4, ACCEPTANCE_GRIDS)
        v2 = richardson_spectrum(partner_field(spec, Partner.V2), 0.0, math.pi,
                                 3, ACCEPTANCE_GRIDS)
        res = isospectral_check(v1, v2, shift=1, tol=1e-4)
        assert res.passed
        assert res.matched == 3

    def test_offset_spectra_fail(self):
        v1 = richardson_spectrum(flat, 0.0, math.pi, 4, (500, 1000))
        v0 = richardson_spectrum(free, 0.0, math.pi, 4, (500, 1000))
        res = isospectral_check(v1, v0, shift=0, tol=1e-4)
        assert not res.passed
        assert res.max_error == pytest.approx(1.0, abs=1e-2)

    def test_insufficient_levels(self):
        h = discretize(flat, Grid1D(0.0, math.pi, 500))
        rep1 = eigenvalues(h, 1)
        rep3 = eigenvalues(h, 3)
        with pytest.raises(InsufficientEigenvalues):
            isospectral_check(rep1, rep3, shift=1)


class TestReportSerialization:
    def test_schema_keys(self):
        rep = richardson_spectrum(flat, 0.0, math.pi, 2, (500, 1000))
        payload = json.loads(rep.to_json())
        assert set(payload) == {"eigenvalues", "max_imag", "grid_sizes_used",
                                "richardson_estimates"}
        assert payload["grid_sizes_used"] == [500, 1000]
        assert all(len(pair) == 2 for pair in payload["eigenvalues"])

    def test_byte_determinism(self):
        rep = richardson_spectrum(flat, 0.0, math.pi, 2, (500, 1000))
        again = richardson_spectrum(flat, 0.0, math.pi, 2, (500, 1000))
        assert rep.to_json() == again.to_json()

    def test_roundtrip_precision(self):
        rep = eigenvalues(discretize(flat, Grid1D(0.0, math.pi, 500)), 1)
        payload = json.loads(rep.to_json())
        assert payload["eigenvalues"][0][0] == rep.eigenvalues[0].real
