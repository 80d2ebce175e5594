"""Tests for the superpotential layer: closed forms, partners, the ladder."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susywell.errors import SusywellError
from susywell.susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    WELL_FAMILIES,
    _constraint_terms,
    _twin,
    default_exclusion,
    eval_partner,
    eval_superpotential,
    fundamental_cell,
    plane_coefficients,
    singularity_distance,
)

ATOL = 1e-12
IDENTITY_TOL = 1e-10
# the phrase of the pole refusal, a SusywellError
POLE = "within the exclusion radius of the singular point"

ALL_FAMILIES = tuple(Family)

# interior sample grids per family, clear of every singularity
SAMPLES = {
    Family.COTANGENT_WELL: np.linspace(0.05, math.pi - 0.05, 400),
    Family.TANGENT_WELL: np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 400),
    Family.PLANE_RIGHT: np.linspace(-3.0, 3.0, 400),
    Family.PLANE_LEFT: np.linspace(-3.0, 3.0, 400),
}


def samples_for(spec):
    pts = SAMPLES[spec.family]
    return pts / spec.k if spec.k != 1.0 else pts


def remainder(spec, x):
    # the shape-invariance remainder V2(k; x) - V1(k + alpha; x)
    return eval_partner(spec, Partner.V2, x) - eval_partner(spec.shifted(), Partner.V1, x)


def spread(values):
    # (mean, largest deviation from it) of the values
    mean = complex(np.mean(values))
    return mean, float(np.max(np.abs(values - mean)))


def constancy_bound(mean):
    # 1e-10 of the mean remainder, with a floor for a mean near 0
    return max(1e-10 * abs(mean), 1e-12)


def difference_derivative(spec, x, h=1e-6):
    # W' by central difference of eval_superpotential, step h, exact to O(h^2)
    return (eval_superpotential(spec, x + h) - eval_superpotential(spec, x - h)) / (2 * h)


def difference_partner(spec, which, x, h):
    # W^2 -/+ W' with W' by central difference, step h: an independent
    # reference for the closed forms of eval_partner
    wp = difference_derivative(spec, x, h)
    sign = -1.0 if which is Partner.V1 else 1.0
    return eval_superpotential(spec, x) ** 2 + sign * wp


def constraint(spec, x):
    # the amplitude f(x) in the imaginary part of W, at the physical frequency,
    # of the written-out family that the spec is derived from
    twin, shift, conjugate = _twin(spec)
    f = _constraint_terms(twin, np.asarray(x + shift, dtype=np.float64))[0].item()
    return f.conjugate() if conjugate else f


class TestSuperpotentialValues:
    def test_cotangent_real_part_only(self):
        # cot vanishes at the cell midpoint, so W is purely the iq csc term
        val = eval_superpotential(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0),
                                  math.pi / 2)
        assert abs(val) < ATOL

    def test_cotangent_with_coupling(self):
        val = eval_superpotential(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                                  math.pi / 2)
        assert_allclose([val.real, val.imag], [0.0, 2.0], atol=ATOL)

    def test_plane_right_at_origin(self):
        val = eval_superpotential(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 2.0), 0.0)
        assert_allclose([val.real, val.imag], [2.0, -1.0], atol=ATOL)

    def test_tangent_frozen_value(self):
        # tan(pi/4) + i sqrt(2): hand-evaluated closed form
        val = eval_superpotential(SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 1.0),
                                  math.pi / 4)
        assert_allclose([val.real, val.imag], [1.0, math.sqrt(2.0)], atol=ATOL)

    def test_plane_left_at_origin(self):
        val = eval_superpotential(SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.0), 0.0)
        assert_allclose([val.real, val.imag], [1.0, 1.0], atol=ATOL)


class TestPartnerValues:
    def test_flat_well_everywhere(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        xs = np.linspace(0.1, math.pi - 0.1, 50)
        vals = eval_partner(spec, Partner.V1, xs)
        assert_allclose(vals.real, -1.0, atol=ATOL)
        assert_allclose(vals.imag, 0.0, atol=ATOL)

    def test_cotangent_v1_at_midpoint(self):
        val = eval_partner(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                           Partner.V1, math.pi / 2)
        assert_allclose([val.real, val.imag], [-5.0, 0.0], atol=ATOL)

    def test_cotangent_v2_at_midpoint(self):
        # W = 2i, W' = 1 there, so V2 = W^2 + W' = -3
        val = eval_partner(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                           Partner.V2, math.pi / 2)
        assert_allclose([val.real, val.imag], [-3.0, 0.0], atol=ATOL)

    def test_plane_right_v1_at_origin(self):
        val = eval_partner(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0),
                           Partner.V1, 0.0)
        assert_allclose([val.real, val.imag], [0.0, -1.0], atol=ATOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.5])
    def test_sum_is_twice_w_squared(self, family, q):
        spec = SuperpotentialSpec(family, 1.0, q)
        xs = samples_for(spec)
        w = eval_superpotential(spec, xs)
        total = eval_partner(spec, Partner.V1, xs) + eval_partner(spec, Partner.V2, xs)
        assert_allclose(total, 2.0 * w ** 2, atol=IDENTITY_TOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("alpha", [None, 0.6])
    def test_difference_is_twice_w_prime(self, family, q, alpha):
        # the sign convention V2 - V1 = 2W', with W' by central difference,
        # at alpha = k and alpha != k
        spec = SuperpotentialSpec(family, 1.0, q, alpha)
        xs = samples_for(spec)
        diff = eval_partner(spec, Partner.V2, xs) - eval_partner(spec, Partner.V1, xs)
        assert_allclose(diff, 2.0 * difference_derivative(spec, xs), atol=1e-7)

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    @pytest.mark.parametrize("which", list(Partner))
    @pytest.mark.parametrize("alpha", [None, 0.6])
    def test_zero_coupling_imaginary_part_is_positive_zero(self, family, which, alpha):
        # at q = 0 the imaginary parts sum signed zeros (f' and the cross term
        # change sign across the cell); they are +0, so no table prints -0
        spec = SuperpotentialSpec(family, 1.3, 0.0, alpha)
        lo, hi = fundamental_cell(spec)
        xs = np.linspace(lo, hi, 203)[1:-1]
        vals = eval_partner(spec, which, xs)
        assert np.all(vals.imag == 0.0)
        assert not np.any(np.signbit(vals.imag))
        assert not any(math.copysign(1.0, eval_partner(spec, which, x).imag) < 0
                       for x in xs[::20].tolist())

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_zero_coupling_partners_are_real(self, family):
        spec = SuperpotentialSpec(family, 2.0, 0.0)
        xs = samples_for(spec)
        for which in Partner:
            vals = eval_partner(spec, which, xs)
            assert np.max(np.abs(vals.imag)) < ATOL

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    def test_negated_coupling_conjugates_wells(self, family):
        plus = SuperpotentialSpec(family, 1.0, 2.0)
        minus = SuperpotentialSpec(family, 1.0, -2.0)
        xs = samples_for(plus)
        assert_allclose(eval_superpotential(minus, xs),
                        np.conj(eval_superpotential(plus, xs)), atol=ATOL)
        for which in Partner:
            assert_allclose(eval_partner(minus, which, xs),
                            np.conj(eval_partner(plus, which, xs)), atol=ATOL)

    def test_left_mover_conjugates_right_mover(self):
        right = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.5)
        left = SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.5)
        xs = SAMPLES[Family.PLANE_RIGHT]
        assert_allclose(eval_superpotential(left, xs),
                        np.conj(eval_superpotential(right, xs)), atol=ATOL)
        for which in Partner:
            assert_allclose(eval_partner(left, which, xs),
                            np.conj(eval_partner(right, which, xs)), atol=ATOL)

    def test_left_mover_mirrors_right_mover(self):
        # V_L(x) = V_R(pi/k - x): reflection about the quarter period
        k = 1.0
        right = SuperpotentialSpec(Family.PLANE_RIGHT, k, 1.0)
        left = SuperpotentialSpec(Family.PLANE_LEFT, k, 1.0)
        xs = SAMPLES[Family.PLANE_LEFT]
        for which in Partner:
            assert_allclose(eval_partner(left, which, xs),
                            eval_partner(right, which, math.pi / k - xs), atol=ATOL)


class TestPlaneCoefficients:
    @pytest.mark.parametrize("family", [Family.PLANE_RIGHT, Family.PLANE_LEFT])
    @pytest.mark.parametrize("which", list(Partner))
    def test_polynomial_in_z_is_the_partner(self, family, which):
        # V = -k^2 + v1 z + v2 z^2 with z = e^{i d alpha x}, at alpha != k
        spec = SuperpotentialSpec(family, 1.3, -0.7, 0.6)
        d, v1, v2 = plane_coefficients(spec, which)
        z = np.exp(1j * d * spec.alpha * SAMPLES[family])
        assert_allclose(-spec.k ** 2 + v1 * z + v2 * z * z,
                        eval_partner(spec, which, SAMPLES[family]), atol=ATOL)

    def test_wells_are_refused(self):
        with pytest.raises(ValueError, match="plane family"):
            plane_coefficients(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0), Partner.V1)


class TestNumericCrossValidation:
    def test_flat_case(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        val = difference_partner(spec, Partner.V1, math.pi / 2, h=1e-5)
        assert abs(val - (-1.0)) < 1e-8

    def test_cotangent_matches_closed_form(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        num = difference_partner(spec, Partner.V1, 1.0, h=1e-5)
        assert abs(num - eval_partner(spec, Partner.V1, 1.0)) < 1e-6

    def test_plane_left_matches_closed_form(self):
        spec = SuperpotentialSpec(Family.PLANE_LEFT, 2.0, 1.0)
        num = difference_partner(spec, Partner.V2, 0.3, h=1e-5)
        assert abs(num - eval_partner(spec, Partner.V2, 0.3)) < 1e-6

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("which", list(Partner))
    def test_second_order_in_step(self, family, which):
        spec = SuperpotentialSpec(family, 1.0, 1.5)
        x = 0.9 if family is Family.COTANGENT_WELL else 0.4
        exact = eval_partner(spec, which, x)
        errs = [abs(difference_partner(spec, which, x, h=h) - exact)
                for h in (1e-3, 1e-4, 1e-5)]
        # each tenfold step refinement must buy close to two digits
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 10
        assert errs[2] < errs[1] / 5


class TestConstraint:
    def test_cotangent_value(self):
        val = constraint(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0), math.pi / 2)
        assert_allclose([val.real, val.imag], [2.0, 0.0], atol=ATOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_zero_coupling_vanishes(self, family):
        spec = SuperpotentialSpec(family, 1.0, 0.0)
        assert abs(constraint(spec, 0.4)) == 0.0

    def test_plane_right_at_origin(self):
        val = constraint(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0), 0.0)
        assert_allclose([val.real, val.imag], [1.0, 0.0], atol=ATOL)


class TestRemainder:
    def test_cotangent_k1(self):
        val = remainder(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0), 0.7)
        assert_allclose([val.real, val.imag], [3.0, 0.0], atol=1e-10)

    def test_cotangent_k2(self):
        val = remainder(SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0), 0.4)
        assert_allclose([val.real, val.imag], [12.0, 0.0], atol=1e-10)

    def test_plane_right(self):
        val = remainder(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 3.0), 1.1)
        assert_allclose([val.real, val.imag], [3.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_general_step_size(self, family):
        # with the ladder step decoupled from k the constant is a(a + 2k)
        spec = SuperpotentialSpec(family, 1.0, 2.0, alpha=0.5)
        xs = samples_for(spec)[::40]
        vals = np.array([remainder(spec, float(x)) for x in xs])
        assert_allclose(vals.real, 0.5 * (0.5 + 2.0), atol=1e-10)
        assert_allclose(vals.imag, 0.0, atol=1e-10)


class TestShapeInvariance:
    def test_cotangent_benchmark(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        pts = np.linspace(0.05, math.pi - 0.05, 1000)
        mean, deviation = spread(remainder(spec, pts))
        assert deviation <= constancy_bound(mean)
        assert deviation < 1e-10
        assert abs(mean - 3.0) < 1e-10

    def test_tangent_full_cell_avoiding_midpole(self):
        # sampled on (0, pi) around the interior pole rather than the
        # symmetric cell, to pin the constant on both branches
        spec = SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 2.0)
        pts = np.concatenate([np.linspace(0.05, math.pi / 2 - 0.05, 300),
                              np.linspace(math.pi / 2 + 0.05, math.pi - 0.05, 300)])
        mean, deviation = spread(remainder(spec, pts))
        assert deviation <= constancy_bound(mean)
        assert abs(mean - 3.0) < 1e-10

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
    def test_constancy_grid(self, family, q, k):
        spec = SuperpotentialSpec(family, k, q)
        mean, deviation = spread(remainder(spec, samples_for(spec)))
        assert deviation <= constancy_bound(mean), (family, q, k, deviation)
        assert abs(mean - 3.0 * k * k) < 1e-10 * max(1.0, 3.0 * k * k)

    def test_unshifted_pair_is_not_constant(self):
        # control: without the step k -> k + alpha the pair leaves
        # V2 - V1 = 2W', far from constant
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        pts = np.linspace(0.05, math.pi - 0.05, 1000)
        mean, deviation = spread(eval_partner(spec, Partner.V2, pts)
                                 - eval_partner(spec, Partner.V1, pts))
        assert deviation > constancy_bound(mean)
        assert deviation > 1.0


class TestGuardsAndGeometry:
    def test_singular_point_at_cell_edge(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        with pytest.raises(SusywellError, match=POLE):
            eval_superpotential(spec, 0.0)
        with pytest.raises(SusywellError, match=POLE):
            eval_partner(spec, Partner.V1, math.pi)

    def test_singular_point_at_tangent_pole(self):
        spec = SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 1.0)
        with pytest.raises(SusywellError, match=POLE):
            eval_superpotential(spec, math.pi / 2)

    def test_exclusion_radius_scales_with_k(self):
        assert default_exclusion(SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0)) \
            == pytest.approx(1e-6 * math.pi / 2.0)

    def test_singularity_distance(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        assert singularity_distance(spec, 0.3) == pytest.approx(0.3)
        assert singularity_distance(spec, 3.0) == pytest.approx(math.pi - 3.0)
        plane = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        assert math.isinf(singularity_distance(plane, 5.0))

    def test_fundamental_cells(self):
        assert fundamental_cell(SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0)) \
            == pytest.approx((0.0, math.pi / 2))
        assert fundamental_cell(SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 0.0)) \
            == pytest.approx((-math.pi / 2, math.pi / 2))
        assert fundamental_cell(SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 0.0)) is None

    def test_shifted_spec_climbs_ladder(self):
        # each step is k -> k + alpha, with q and alpha kept
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0, 0.75)
        assert spec.shifted() == dataclasses.replace(spec, k=1.75)
        assert spec.shifted().shifted() == dataclasses.replace(spec, k=2.5)


class TestPoleCoupling:
    @pytest.mark.parametrize("family", WELL_FAMILIES)
    @pytest.mark.parametrize("k,q,alpha,g", [
        (1.0, 2.0, 1.0, -4 - 2j),
        (1.7, 0.5, 0.5, 7.16 - 5.8j),
        (3.0, 1.0, 1.0, 5 - 5j),
    ])
    def test_closed_form_matches_the_wall_limit(self, family, k, q, alpha, g):
        # V1 ~ g/d^2 at distance d inside the lower wall, conj(g) inside the
        # upper one, with g = (k - iq)(k - alpha - iq)/alpha^2, up to O(d^2)
        # relative: no 1/d term at either wall
        spec = SuperpotentialSpec(family, k, q, alpha)
        lo, hi = fundamental_cell(spec)
        d = 1e-5
        assert d * d * eval_partner(spec, Partner.V1, lo + d) == pytest.approx(g, rel=1e-8)
        assert d * d * eval_partner(spec, Partner.V1, hi - d) == pytest.approx(
            g.conjugate(), rel=1e-8)
