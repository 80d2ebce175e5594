"""Tests for the transfer-matrix machinery and the sweep plumbing."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from susywell import scattering
from susywell.cli import PLANE_ENERGIES, SWEEP_HEADER, sweep_rows
from susywell.errors import ConvergenceFailure
from susywell.gates import ORACLE_TOL
from susywell.scattering import (
    SERIES_GROWTH,
    _constant_steps,
    barrier_sweep,
    plane_partner_sweep,
    square_barrier_transmission,
)
from susywell.serialize import csv_text
from susywell.susy_core import Family, Partner, SuperpotentialSpec, partner_field

MATRIX_TOL = 1e-10
ORACLE_RTOL = 1e-8

# frozen closed-form values, evaluated by hand from the textbook expressions
T_TUNNEL_V4_A1_E1 = 0.0909668503958455
T_WELL_V5_A1_E2 = 0.9082214485068217
T_RESONANCE_V4_A1 = 0.5

# r and t by (family, partner, k, q, alpha, window, E): the same series
# summed with mpmath at 60 digits, rounded to complex
RIGHT, LEFT, V1, V2 = Family.PLANE_RIGHT, Family.PLANE_LEFT, Partner.V1, Partner.V2
SERIES_REFERENCE = {
    (RIGHT, V1, 1.0, 12.0, 1.0, (0.0, 2 * math.pi), 1.0): (
        complex(-1.0080154412153683, 0.18608273078640072),
        complex(0.009583570584155019, -0.005450594176269537)),
    (RIGHT, V1, 1.0, 12.0, 1.0, (0.0, 2 * math.pi), 5.0): (
        complex(-0.9069159595225426, 0.27240754784061505),
        complex(0.025814882586748175, 0.019435491122132775)),
    (RIGHT, V1, 1.0, 2.0, 1.0, (0.0, 40 * math.pi), 0.5): (
        complex(0.04639969478214615, -0.09487247361402878),
        complex(-0.6567416396435019, 0.8456314631751296)),
    (RIGHT, V1, 1.0, 2.0, 1.0, (0.0, 40 * math.pi), 2.0): (
        complex(1.101377747077387, -0.07994894473812766),
        complex(-0.7914440213572073, 0.5094726875545346)),
    (RIGHT, V1, 1.0, 2.0, 1.0, (0.0, 40 * math.pi), 5.0): (
        complex(-0.19968327341483857, -0.19487285845954078),
        complex(-0.11526266266393985, 1.0308142398289588)),
    (LEFT, V2, 1.0, 6.0, 1.0, (-math.pi / 2, 3 * math.pi / 2), 2.0): (
        complex(0.1229421017371242, -0.4442243231515236),
        complex(0.0022491165542113385, -0.0037563113540279814)),
    (RIGHT, V2, 1.7, 0.8, 0.5, (-1.0, 2.5), 0.3): (
        complex(-0.43278797589031154, 0.3903653292046738),
        complex(0.02615521932833653, -0.052098876107380045)),
    # q = 20 alpha at alpha = k / 50, and q = 10 alpha at alpha = 2 k, where
    # the slice sweep accepted r and t off by 2.2e-7
    (RIGHT, V1, 1.0, 0.4, 0.02, (0.0, 2 * math.pi), 1.0): (
        complex(-0.16982268170699502, -0.10339413068575873),
        complex(-0.1290918691584962, 0.09464172252903517)),
    (RIGHT, V2, 1.0, 20.0, 2.0, (0.0, 2 * math.pi), 1.0): (
        complex(-0.9999065983870092, 0.09990144189631045),
        complex(-9.174683606579964e-05, 0.00016995941268455986)),
}

# the whole messages of the scattering refusals, all ConvergenceFailure
OVERFLOW = re.compile(r"evanescent exponent (\S+) exceeds the overflow guard: "
                      r"the transfer matrix would leave the double range")
OUT_OF_RANGE = ("the transfer matrix at E={energy!r} is not finite or leaves the double "
                "range")
GROWTH = re.compile(r"plane series at E=(\S+) has a coefficient of (\S+), past the guard "
                    r"1e\+08: its sums would lose their digits to cancellation "
                    r"\(the coefficients grow with \|q\| / alpha\)")


def overflow_exponent(exc) -> float:
    """The exponent that an overflow refusal names, a python float repr."""
    assert type(exc) is ConvergenceFailure
    return float(OVERFLOW.fullmatch(str(exc)).group(1))


def growth(exc) -> tuple[float, float]:
    """(E, coefficient) that a growth refusal names."""
    assert type(exc) is ConvergenceFailure
    energy, size = GROWTH.fullmatch(str(exc)).groups()
    return float(energy), float(size)


def free_waves(k0, x):
    """(psi, psi') matrix of the free waves e^{+-ik0 x} at x."""
    e = cmath.exp(1j * k0 * x)
    return np.array([[e, 1 / e], [1j * k0 * e, -1j * k0 / e]])


def matrix(res):
    """The transfer matrix M of a ScatteringResult, det M = 1: M22 = 1/t,
    M21 = -r M22, M12 = r_right M22."""
    m22 = 1 / res.t
    m12, m21 = res.r_right * m22, -res.r * m22
    return np.array([[(1 + m12 * m21) / m22, m12], [m21, m22]])


def midpoint_richardson(field, a, b, energy, slices):
    """Reference (r, t) with no series: midpoint slices at slices and
    slices / 2, products by np.matmul, extrapolated in h^2."""
    amplitudes = []
    for m in (slices // 2, slices):
        width = (b - a) / m
        ksq = energy - field(a + width * (np.arange(m) + 0.5))
        z = np.sqrt(ksq) * width
        sfac = width * np.sin(z) / z
        mats = np.stack([np.cos(z), sfac, -ksq * sfac, np.cos(z)], axis=-1).reshape(m, 2, 2)
        while len(mats) > 1:
            mats = mats[1::2] @ mats[0::2]
        k0 = math.sqrt(energy)
        full = np.linalg.solve(free_waves(k0, b), mats[0] @ free_waves(k0, a))
        amplitudes.append(np.array([-full[1, 0], 1.0]) / full[1, 1])
    return (4 * amplitudes[1] - amplitudes[0]) / 3


def step(value, width, energy):
    """The constant step of V = value across width at energy, as a 2x2."""
    return _constant_steps(np.array([energy - value], dtype=complex), width)[..., 0]


class TestTransferMatrix:
    def test_zero_barrier_is_free_space(self):
        res = barrier_sweep(0.0, 2.0, [3.7])[0]
        assert abs(res.r) < MATRIX_TOL and abs(res.r_right) < MATRIX_TOL
        assert abs(res.t - 1.0) < MATRIX_TOL

    def test_zero_width_step_is_identity(self):
        # the constant step degrades continuously to the identity
        assert np.max(np.abs(step(4.0, 0.0, 1.0) - np.eye(2))) == 0.0

    def test_unimodular(self):
        for E in (0.5, 1.0, 7.3):
            assert abs(np.linalg.det(step(4.0, 1.0, E)) - 1.0) < MATRIX_TOL
            assert abs(np.linalg.det(matrix(barrier_sweep(4.0, 1.0, [E])[0])) - 1.0) < MATRIX_TOL

    @pytest.mark.parametrize("periods,tol", [(1, 1e-12), (160, 1e-11)])
    def test_translation_by_periods_only_shifts_phases(self, periods, tol):
        # |T| and |R| of a plane window moved by whole periods 2 pi / alpha;
        # near x = 1000 the window's ends are rounded to 1.1e-13
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.5)
        base = plane_partner_sweep(spec, Partner.V1, (0.3, 4.0), [0.7, 2.0])
        shift = 2 * math.pi * periods
        moved = plane_partner_sweep(spec, Partner.V1, (0.3 + shift, 4.0 + shift), [0.7, 2.0])
        for one, other in zip(base, moved):
            assert one.transmission == pytest.approx(other.transmission, abs=tol)
            assert one.reflection == pytest.approx(other.reflection, abs=tol)

    @pytest.mark.parametrize("energy", [-0.5, 0.0, math.nan])
    def test_nonpositive_or_nan_energy_refused(self, energy):
        with pytest.raises(ValueError, match="energy must be finite and positive"):
            barrier_sweep(4.0, 1.0, [energy])
        spec = SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.0)
        with pytest.raises(ValueError, match="energy must be finite and positive"):
            plane_partner_sweep(spec, Partner.V2, (0.0, 1.0), [energy])

    def test_vanishing_free_wave_wronskian(self):
        # E = 1e-30 puts 2 k0 = 2e-15 below WRONSKIAN_TOL
        with pytest.raises(ConvergenceFailure) as err:
            barrier_sweep(4.0, 1.0, [1e-30])
        assert str(err.value) == ("free-wave matching at x=0.0 is degenerate: "
                                  "Wronskian 2 k0 = 2e-15 is below 1e-12")

    def test_vanishing_m22_prints_a_python_complex(self, monkeypatch):
        # no scatterer reaches |M22| < 1e-300 (det M = 1, M22 = 1/t), so the
        # matrix is given
        given = np.array([[1.0, 0.0], [0.0, 1e-310]], dtype=np.complex128)
        monkeypatch.setattr(scattering, "_matched", lambda step, a, b, k0: given)
        with pytest.raises(ConvergenceFailure) as err:
            barrier_sweep(4.0, 1.0, [1.0])
        assert str(err.value) == ("free-wave matching at x=1.0 is degenerate: "
                                  "M22 = (1e-310+0j) is below 1e-300")

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 0.5), (0.0, math.nan)])
    def test_empty_interval_refused(self, a, b):
        with pytest.raises(ValueError, match="empty interval"):
            barrier_sweep(1.0, b - a, [1.0])
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        with pytest.raises(ValueError, match="empty interval"):
            plane_partner_sweep(spec, Partner.V1, (a, b), [1.0])

    def test_evanescent_overflow_guard(self):
        with pytest.raises(ConvergenceFailure, match=OVERFLOW.pattern):
            barrier_sweep(1e8, 100.0, [1.0])

    def test_step_guard_reports_a_python_float(self):
        # the exponent of the step over the guard is a float, so the message
        # does not read np.float64(...)
        with pytest.raises(ConvergenceFailure) as err:
            barrier_sweep(1e200, 1.0, [1.0])
        assert overflow_exponent(err.value) == pytest.approx(1e100)
        assert "np.float64" not in str(err.value)

    def test_overflow_in_free_wave_match(self):
        # kappa w = 690 passes the step guard, but matching to the free
        # waves multiplies by ~1/k0 = 1e10: refused naming the energy, not
        # the guard that passed, with no RuntimeWarning
        with pytest.raises(ConvergenceFailure) as err:
            barrier_sweep(690.0 ** 2, 1.0, [1e-20])
        assert type(err.value) is ConvergenceFailure
        assert str(err.value) == OUT_OF_RANGE.format(energy=1e-20)

    def test_plane_phase_past_float32_is_refused_as_out_of_range(self):
        # alpha L = 6e158 splits into a non-finite phase, so P is nan while
        # the series stays at 1: refused naming the energy, not the growth
        # guard, with no RuntimeWarning
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1e-8, 1e150, 1e150)
        with pytest.raises(ConvergenceFailure) as err:
            plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi / 1e-8), [2.5e-17])
        assert str(err.value) == OUT_OF_RANGE.format(energy=2.5e-17)

    def test_range_guard_sums_both_parts(self):
        # each part alone is under the guard, their sum is over it
        growth = scattering._OVERFLOW_GROWTH
        assert scattering._in_range(complex(0.75 * growth, 0.75 * growth)) is False
        assert scattering._in_range(complex(0.5 * growth, 0.5 * growth)) is True


class TestConstantStep:
    @settings(max_examples=200, deadline=None)
    @given(log_u=st.floats(-12.0, 3.0), phase=st.floats(-math.pi, math.pi),
           log_width=st.floats(-3.0, 0.5))
    @example(log_u=-math.inf, phase=0.0, log_width=0.0)  # E = V
    def test_step_is_the_exponential_of_omega_at_any_u(self, log_u, phase, log_width):
        # u = k^2 w^2 from 1e-12 to 1e3, across the old series cut at 0.04,
        # held normwise on the dimensionless step diag(1, w) P diag(1, 1/w)
        # to 1e-14 max(1, |z|): near a zero of sin z an entry's relative
        # error is conditioning, and at |u| = 1e3 expm itself misses a
        # 40-digit reference by up to 7e-14 (the kernel by 8e-15)
        width = 10.0 ** log_width
        ksq = 10.0 ** log_u * cmath.exp(1j * phase) / width ** 2
        # an underflow of a tiny Im z is numpy's default "ignore"
        with np.errstate(all="raise", under="ignore"):
            got = step(0.0, width, ksq)
        want = expm(np.array([[0.0, width], [-ksq * width, 0.0]]))
        unit = np.array([[1.0, 1.0 / width], [width, 1.0]])
        tol = 1e-14 * max(1.0, abs(cmath.sqrt(ksq) * width)) * np.max(np.abs(want * unit))
        assert_allclose(got * unit, want * unit, rtol=0.0, atol=tol)

    def test_mixed_batch_matches_single_steps(self):
        # thin steps beside |u| >> 1 ones in one batch, E = V among them; no
        # warning of any kind
        width, energy = 0.01, 2.0
        ksq = energy - np.array([2.0, 1e6, 2.5 + 1j, -1e6, 3.0 - 2e4j, 1.0, 2.0 + 1e5j])
        with np.errstate(all="raise"):
            batch = _constant_steps(ksq, width)
            alone = [_constant_steps(ksq[i:i + 1], width) for i in range(len(ksq))]
        for i, entries in enumerate(alone):
            assert batch[..., i].tolist() == entries[..., 0].tolist()

    def test_resonance_step_is_exact(self):
        # E = V: the linear-solution pair, exactly
        w = 0.37
        assert np.array_equal(step(4.0, w, 4.0), np.array([[1.0, w], [0.0, 1.0]]))

    @pytest.mark.parametrize("value,width,energy", [
        (4.0, 1.0, 1.0), (4.0, 0.1, 4.0), (2.5 + 1j, 1.3, 0.7), (-5.0, 0.05, 2.0)])
    def test_barrier_is_one_exact_step(self, value, width, energy):
        # the barrier's matrix is exp(Omega) of the constant slab, matched to
        # the free waves at 0 and width
        omega = np.array([[0.0, width], [-(energy - value) * width, 0.0]])
        k0 = math.sqrt(energy)
        want = np.linalg.inv(free_waves(k0, width)) @ expm(omega) @ free_waves(k0, 0.0)
        got = matrix(barrier_sweep(value, width, [energy])[0])
        assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("values,series", [
        ([2.0 + 0.5j, 1.5 - 0.2j, -1.0 + 1j], True),
        ([-40.0 + 8j, 60.0 - 30j, 30.0], False),
    ], ids=["series", "trig"])
    def test_step_is_the_exponential_of_omega(self, values, series):
        # named for the sides of |u| = 0.04, where the kernel once took a
        # series in u below and trig above
        width, energy = 0.1, 1.7
        ksq = energy - np.array(values)
        assert np.all((np.abs(ksq * width ** 2) <= 0.04) == series)
        steps = _constant_steps(ksq, width)
        for i, k2 in enumerate(ksq):
            omega = np.array([[0.0, width], [-k2 * width, 0.0]])
            assert_allclose(steps[..., i], expm(omega), rtol=1e-14, atol=1e-14)


class TestBarrierOracle:
    def test_free_space(self):
        res = barrier_sweep(0.0, 1.0, [1.0])[0]
        assert abs(res.r) < MATRIX_TOL
        assert abs(res.t - 1.0) < MATRIX_TOL
        assert abs(res.flux_defect) < MATRIX_TOL

    def test_tunneling_value(self):
        res = barrier_sweep(4.0, 1.0, [1.0])[0]
        assert res.transmission == pytest.approx(T_TUNNEL_V4_A1_E1,
                                                 rel=ORACLE_RTOL)
        assert square_barrier_transmission(4.0, 1.0, 1.0) == pytest.approx(
            T_TUNNEL_V4_A1_E1, rel=1e-12)

    def test_well_value(self):
        res = barrier_sweep(-5.0, 1.0, [2.0])[0]
        assert res.transmission == pytest.approx(T_WELL_V5_A1_E2, rel=ORACLE_RTOL)
        assert abs(res.flux_defect) < 1e-10

    def test_resonance_branch(self):
        # E = V0 goes through the sinc limit of the step and of the closed form
        res = barrier_sweep(4.0, 1.0, [4.0])[0]
        assert res.transmission == pytest.approx(T_RESONANCE_V4_A1, abs=1e-12)
        assert square_barrier_transmission(4.0, 1.0, 4.0) == pytest.approx(
            T_RESONANCE_V4_A1, abs=1e-12)

    def test_resonance_is_continuous(self):
        eps = 1e-6
        below = square_barrier_transmission(4.0, 1.0, 4.0 - eps)
        above = square_barrier_transmission(4.0, 1.0, 4.0 + eps)
        assert below == pytest.approx(T_RESONANCE_V4_A1, abs=1e-5)
        assert above == pytest.approx(T_RESONANCE_V4_A1, abs=1e-5)

    def test_transparency_above_barrier(self):
        # sin(sqrt(E - V0) a) = 0 gives T = 1 exactly
        E = 4.0 + math.pi ** 2
        assert square_barrier_transmission(4.0, 1.0, E) == pytest.approx(1.0,
                                                                         abs=1e-12)
        res = barrier_sweep(4.0, 1.0, [E])[0]
        assert res.transmission == pytest.approx(1.0, abs=1e-10)

    def test_deep_tunneling_branch(self):
        # kappa*a = 310 and 299.9: one evaluation on each side of the sinh
        # overflow cutoff, still representable, and T(w) ~ exp(-2 kappa w)
        # so the two must sit on the same exponential
        v0 = 96101.0  # kappa = sqrt(v0 - 1) = 310 exactly
        w_hi, w_lo = 1.0, 299.9 / 310.0
        t_hi = square_barrier_transmission(v0, w_hi, 1.0)
        t_lo = square_barrier_transmission(v0, w_lo, 1.0)
        assert 0.0 < t_hi < 1e-250
        assert t_hi / t_lo == pytest.approx(math.exp(-2.0 * 310.0 * (w_hi - w_lo)),
                                            rel=1e-6)

    @pytest.mark.parametrize("mult", [0.1, 0.5, 2.0, 5.0, 10.0])
    def test_flux_and_oracle_sweep(self, mult):
        v0, width = 4.0, 1.0
        energy = mult * v0
        res = barrier_sweep(v0, width, [energy])[0]
        assert abs(res.flux_defect) < 1e-10
        ref = square_barrier_transmission(v0, width, energy)
        assert res.transmission == pytest.approx(ref, rel=ORACLE_RTOL)

    @pytest.mark.parametrize("energy", [1e-8, 1e-12, 1e-16, 1e-20])
    def test_oracle_near_zero_energy(self, energy):
        # the entries of M grow like 1/k0; t = 1/M22 does not rebuild
        # det M = 1 from them by cancellation
        res = barrier_sweep(4.0, 1.0, [energy])[0]
        ref = square_barrier_transmission(4.0, 1.0, energy)
        assert abs(res.transmission - ref) / ref < ORACLE_TOL
        assert abs(res.flux_defect) < 1e-10

    def test_oracle_input_validation(self):
        with pytest.raises(ValueError):
            square_barrier_transmission(4.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            square_barrier_transmission(4.0, 1.0, 0.0)


class TestPlaneFamilySweep:
    def test_zero_coupling_reduces_to_constant_well(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 0.0)
        res = plane_partner_sweep(spec, Partner.V1, (0.0, 1.0), [1.0])[0]
        ref = square_barrier_transmission(-1.0, 1.0, 1.0)
        assert res.transmission == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("family", [Family.PLANE_RIGHT, Family.PLANE_LEFT])
    @pytest.mark.parametrize("partner", list(Partner))
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_zero_coupling_is_the_square_well_of_depth_k_squared(self, family, partner, k):
        # at q = 0 both partners are -k^2 on the default window (0, 2 pi/k):
        # the paper's square well, with its closed form T
        spec = SuperpotentialSpec(family, k, 0.0)
        window = (0.0, 2 * math.pi / k)
        energies = [m * k * k for m in PLANE_ENERGIES]
        for res in plane_partner_sweep(spec, partner, window, energies):
            reference = square_barrier_transmission(-k * k, window[1], res.energy)
            assert abs(res.transmission - reference) <= 1e-13

    @pytest.mark.parametrize("point", list(SERIES_REFERENCE))
    def test_sweep_matches_the_series_at_sixty_digits(self, point):
        # the default sweep once accepted r and t off by 3.6e-6 at q = 12
        family, partner, k, q, alpha, window, energy = point
        want_r, want_t = SERIES_REFERENCE[point]
        spec = SuperpotentialSpec(family, k, q, alpha)
        res = plane_partner_sweep(spec, partner, window, [energy])[0]
        assert abs(res.r - want_r) <= 1e-9
        assert abs(res.t - want_t) <= 1e-9

    @pytest.mark.parametrize("family", [Family.PLANE_RIGHT, Family.PLANE_LEFT])
    @pytest.mark.parametrize("partner", list(Partner))
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_bragg_energies_match_a_midpoint_reference(self, family, partner, q):
        # kappa = n alpha / 2, n = 3 to 6, where one series has a zero
        # denominator; the circle mean goes around it
        spec = SuperpotentialSpec(family, 1.0, q)
        field = partner_field(spec, partner)
        energies = [(n / 2) ** 2 - 1.0 for n in range(3, 7)]
        window = (0.0, 2 * math.pi)
        for res in plane_partner_sweep(spec, partner, window, energies):
            r, t = midpoint_richardson(field, *window, res.energy, 2 ** 16)
            assert abs(res.r - r) <= 1e-9 and abs(res.t - t) <= 1e-9

    def test_circle_mean_does_not_depend_on_its_node_count(self, monkeypatch):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        energies = [0.5, 1.0, 3.0]
        res = plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), energies)
        # a complex partner does not conserve flux, but at E = 3 (Bragg) the
        # full period is transparent
        assert all(r.flux_defect != 0.0 and math.isfinite(r.flux_defect) for r in res[:2])
        monkeypatch.setattr(scattering, "_CIRCLE", np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32))
        again = plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), energies)
        for one, other in zip(res, again):
            assert abs(one.r - other.r) <= 1e-12 and abs(one.t - other.t) <= 1e-12

    def test_left_right_equal_on_full_period_window(self):
        # V_L(x) = V_R(pi/k - x); a window spanning whole periods makes the
        # two restrictions differ by translation + mirror, so T must agree
        k = 1.0
        window = (-math.pi / k, math.pi / k)
        tl, tr = (plane_partner_sweep(SuperpotentialSpec(fam, k, 1.0), Partner.V1, window,
                                      [0.5, 1.7])
                  for fam in (Family.PLANE_LEFT, Family.PLANE_RIGHT))
        for one, other in zip(tl, tr):
            assert abs(one.transmission - other.transmission) < 1e-12

    def test_left_right_mirrored_windows_agree(self):
        # the sharper statement: mirroring the window as well makes the two
        # problems one read from either side
        k = 1.0
        left = SuperpotentialSpec(Family.PLANE_LEFT, k, 1.0)
        right = SuperpotentialSpec(Family.PLANE_RIGHT, k, 1.0)
        a, b = 0.3, 2.2
        tl = plane_partner_sweep(left, Partner.V1, (a, b), [1.7])[0]
        tr = plane_partner_sweep(right, Partner.V1, (math.pi / k - b, math.pi / k - a), [1.7])[0]
        assert abs(tl.transmission - tr.transmission) < 1e-12
        # on the PT-centred window pi/2 -+ pi, its own mirror image, the
        # sweeps of the two families agree: T, and R from the left of one
        # family against R from the right of the other
        window = (-math.pi / 2, 3 * math.pi / 2)
        for q in (0.5, 1.0, 1.5):
            specs = [SuperpotentialSpec(fam, k, q) for fam in (Family.PLANE_LEFT,
                                                               Family.PLANE_RIGHT)]
            for which in Partner:
                lefts, rights = (plane_partner_sweep(spec, which, window, PLANE_ENERGIES)
                                 for spec in specs)
                for res_l, res_r in zip(lefts, rights):
                    assert abs(res_l.transmission - res_r.transmission) < 1e-10
                    for one, other in ((res_l, res_r), (res_r, res_l)):
                        gap = abs(one.reflection - abs(other.r_right) ** 2)
                        assert gap < 1e-10 * max(1.0, one.reflection)

    def test_conjugate_matrix_relation(self):
        # V_L = conj(V_R) pointwise, so conjugating the ODE swaps the
        # plane-wave basis vectors: M_L = sx conj(M_R) sx
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        mr, ml = (matrix(plane_partner_sweep(SuperpotentialSpec(fam, 1.0, 1.0), Partner.V1,
                                             (-1.0, 1.0), [0.5])[0])
                  for fam in (Family.PLANE_RIGHT, Family.PLANE_LEFT))
        assert np.max(np.abs(ml - sx @ np.conj(mr) @ sx)) < 1e-12

    def test_requires_plane_family(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        with pytest.raises(ValueError):
            plane_partner_sweep(spec, Partner.V1, (0.0, 1.0), [1.0])

    @pytest.mark.parametrize("family", [Family.PLANE_RIGHT, Family.PLANE_LEFT])
    def test_default_sweep_matches_a_midpoint_reference(self, family):
        # the scatter defaults: k = 1, q = 1, partner V1, window (0, 2 pi)
        spec = SuperpotentialSpec(family, 1.0, 1.0)
        field = partner_field(spec, Partner.V1)
        energies = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
        window = (0.0, 2 * math.pi)
        for res in plane_partner_sweep(spec, Partner.V1, window, energies):
            r, t = midpoint_richardson(field, *window, res.energy, 2 ** 16)
            assert abs(res.transmission - abs(t) ** 2) <= 1e-10
            assert abs(res.reflection - abs(r) ** 2) <= 1e-8


class TestSeriesGuard:
    @pytest.mark.parametrize("partner", list(Partner))
    @pytest.mark.parametrize("q", [20.0, 200.0])
    def test_growing_coefficients_are_refused(self, q, partner):
        # q = 200 would read T = 0 with no guard
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, q)
        with pytest.raises(ConvergenceFailure) as err:
            plane_partner_sweep(spec, partner, (0.0, 2 * math.pi), [0.5])
        assert growth(err.value)[0] == 0.5
        assert growth(err.value)[1] > SERIES_GROWTH

    def test_coefficients_that_stop_being_finite_are_refused(self):
        # q^2 is in range, but the coefficients overflow: no RuntimeWarning
        spec = SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1e80)
        with pytest.raises(ConvergenceFailure) as err:
            plane_partner_sweep(spec, Partner.V2, (0.0, 2 * math.pi), [1.0])
        assert growth(err.value) == (1.0, math.inf)

    @pytest.mark.parametrize("family", [Family.PLANE_RIGHT, Family.PLANE_LEFT])
    @pytest.mark.parametrize("alpha", [0.02, 0.2, 2.0])
    def test_series_covers_q_up_to_five_alpha(self, alpha, family):
        # the range the series gives up: the slice sweep it replaced settled
        # every one of these sweeps, q = 50 alpha included
        window = (0.0, 2 * math.pi)
        for partner in Partner:
            passing = SuperpotentialSpec(family, 1.0, 5 * alpha, alpha)
            assert len(plane_partner_sweep(passing, partner, window, PLANE_ENERGIES)) == 7
            refused = SuperpotentialSpec(family, 1.0, 50 * alpha, alpha)
            with pytest.raises(ConvergenceFailure, match=GROWTH.pattern):
                plane_partner_sweep(refused, partner, window, PLANE_ENERGIES)

    def test_guard_sits_between_q_12_and_q_20(self):
        window = (0.0, 2 * math.pi)
        passing = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 12.0)
        assert len(plane_partner_sweep(passing, Partner.V1, window, PLANE_ENERGIES)) == 7
        refused = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 20.0)
        for energy in PLANE_ENERGIES:
            with pytest.raises(ConvergenceFailure, match=GROWTH.pattern):
                plane_partner_sweep(refused, Partner.V1, window, [energy])


def outcome(call):
    """(results, None) of call(), or (None, the exception it raised)."""
    try:
        return call(), None
    except Exception as exc:  # the exception is the outcome
        return None, exc


def one_at_a_time(scatter, energies):
    """The per-energy loop that a batch must reproduce: scatter(energy) for
    each energy in order, stopping at the first that raises."""
    return outcome(lambda: [scatter(energy) for energy in energies])


def assert_same_outcome(got, want):
    """The same results, or an exception of the same type and message."""
    (results, exc), (ref_results, ref_exc) = got, want
    assert results == ref_results
    assert (type(exc), str(exc)) == (type(ref_exc), str(ref_exc))


# barrier energies: |u| <= 0.04 about v0 and anywhere from near 0 to 40
near_top = st.floats(-0.04, 0.04)
far = st.floats(0.05, 40.0)


class TestEnergyBatches:
    @settings(max_examples=60, deadline=None)
    @given(v0=st.floats(-8.0, 8.0), width=st.floats(0.3, 2.0),
           picks=st.lists(st.one_of(st.tuples(st.just("near"), near_top),
                                    st.tuples(st.just("far"), far)), min_size=1, max_size=12))
    def test_barrier_sweep_is_the_one_energy_loop(self, v0, width, picks):
        # unsorted, repeated, and thin rows beside thick ones in one batch
        energies = [v0 + d / width ** 2 if kind == "near" else d for kind, d in picks]
        energies = [e if e > 0.0 else 0.05 for e in energies] + energies[:2]
        assert_same_outcome(outcome(lambda: barrier_sweep(v0, width, energies)),
                            one_at_a_time(lambda e: barrier_sweep(v0, width, [e])[0], energies))

    def test_barrier_batch_mixes_series_and_trig_rows(self):
        # rows on both sides of |u| = 0.04, where the kernel once switched
        # from a series in u to trig
        energies = [4.0, 1.0, 4.01, 9.0, 3.99, 1.0]
        series = [abs((e - 4.0) * 1.3 ** 2) <= 0.04 for e in energies]
        assert any(series) and not all(series)
        assert barrier_sweep(4.0, 1.3, energies) == [barrier_sweep(4.0, 1.3, [e])[0]
                                                      for e in energies]

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from([Family.PLANE_RIGHT, Family.PLANE_LEFT]),
           partner=st.sampled_from(list(Partner)), q=st.sampled_from([0.5, 1.0, 1.5, 12.0]),
           energies=st.lists(st.sampled_from([0.3, 0.45, 1.0, 1.2, 2.5, 3.0, 5.0, -1.0]),
                             min_size=1, max_size=6))
    def test_plane_sweep_is_the_one_energy_loop(self, family, partner, q, energies):
        # each energy stops summing on its own, so its bits do not depend on
        # the energies beside it; at q = 12 V2 refuses some energies
        spec = SuperpotentialSpec(family, 1.0, q)
        window = (0.0, 2 * math.pi)
        assert_same_outcome(
            outcome(lambda: plane_partner_sweep(spec, partner, window, energies)),
            one_at_a_time(lambda e: plane_partner_sweep(spec, partner, window, [e])[0],
                          energies))

    @pytest.mark.parametrize("energies,first", [
        ([2.0, 1.0, 5.0], 1.0), ([2.0, 5.0, 1.0], 5.0), ([2.0, 1.0, -1.0], 1.0),
        ([2.0, -1.0, 1.0], None), ([1e-30, 1.0], None)])
    def test_first_failing_energy_raises_in_a_plane_sweep(self, energies, first):
        # at q = 12, V2 passes the guard at E = 2 and fails it at 1 and 5; a
        # refused energy ahead of a bad one is what the sweep raises
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 12.0)
        window = (0.0, 2 * math.pi)
        got = outcome(lambda: plane_partner_sweep(spec, Partner.V2, window, energies))
        assert got[1] is not None
        if first is not None:
            assert growth(got[1])[0] == first
        assert_same_outcome(
            got, one_at_a_time(lambda e: plane_partner_sweep(spec, Partner.V2, window, [e])[0],
                               energies))

    @pytest.mark.parametrize("energies", [[0.25, 0.5], [0.5, 0.25], [0.3, 0.25, 0.5]])
    def test_first_overflowing_energy_raises_in_a_plane_sweep(self, energies):
        # at q = 200 every energy fails the guard, each with its own reading
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 200.0)
        window = (0.0, 2 * math.pi)
        got = outcome(lambda: plane_partner_sweep(spec, Partner.V1, window, energies))
        assert growth(got[1])[0] == energies[0]
        assert_same_outcome(
            got, one_at_a_time(lambda e: plane_partner_sweep(spec, Partner.V1, window, [e])[0],
                               energies))

    @pytest.mark.parametrize("v0,energies", [
        (4.0, [2.0, 1e-30, -1.0]),
        (4.0, [2.0, -1.0, 1e-30]),
        (490100.0, [490101.0, 50.0, 490200.0, 20.0]),
        (490100.0, [490101.0, 20.0, 490200.0, 50.0]),
        (1e8, [3.0, 1.0]),
    ])
    def test_first_failing_energy_raises_in_a_barrier_sweep(self, v0, energies):
        # below E = 100 the 490100 barrier passes |Im z| = 700 at some
        # energies of a batch and not at others
        width = 1.0 if v0 < 1e8 else 100.0
        got = outcome(lambda: barrier_sweep(v0, width, energies))
        assert got[1] is not None
        assert_same_outcome(got, one_at_a_time(lambda e: barrier_sweep(v0, width, [e])[0],
                                               energies))

    @pytest.mark.parametrize("q,energies", [(1.0, PLANE_ENERGIES), (12.0, (2.0, 1.0, 5.0)),
                                            (1.0, tuple(np.linspace(0.5, 5.0, 20)))])
    def test_a_plane_sweep_sums_each_series_once(self, monkeypatch, q, energies):
        # a passing sweep and a refused one (q = 12, V2) alike: one call per
        # block of 8 energies, and no replay
        calls = []
        steps = scattering._plane_steps

        def counted(spec, which, window, batch):
            calls.append(list(batch))
            return steps(spec, which, window, batch)

        monkeypatch.setattr(scattering, "_plane_steps", counted)
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, q)
        outcome(lambda: plane_partner_sweep(spec, Partner.V2, (0.0, 2 * math.pi), energies))
        assert calls == [list(energies[i:i + 8]) for i in range(0, len(energies), 8)]

    def test_a_passing_barrier_sweep_calls_the_kernel_once(self, monkeypatch):
        calls = []
        steps = scattering._constant_steps

        def counted(*args):
            calls.append(args)
            return steps(*args)

        monkeypatch.setattr(scattering, "_constant_steps", counted)
        results = barrier_sweep(4.0, 1.0, [0.4, 1.0, 2.0, 4.0, 6.0, 9.0])
        assert len(results) == 6
        assert len(calls) == 1

    def test_memory_does_not_grow_with_the_number_of_energies(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)

        def peak(count):
            energies = list(np.linspace(0.5, 5.0, count))
            tracemalloc.start()
            try:
                plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), energies)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the series of all 256 energies at once would take 3.3 MB; 248 more
        # results take a few hundred bytes each
        assert peak(256) - peak(8) < 256 * 1024


def sweep_csv(results) -> str:
    """The text that `scatter` writes for a sweep in csv."""
    return csv_text(SWEEP_HEADER, sweep_rows(results))


class TestSweepSerialization:
    def test_header_and_shape(self):
        text = sweep_csv(barrier_sweep(4.0, 1.0, [0.4, 2.0]))
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 3
        assert text.endswith("\n")
        assert "\r" not in text

    def test_byte_determinism(self):
        assert (sweep_csv(barrier_sweep(4.0, 1.0, [0.4, 2.0]))
                == sweep_csv(barrier_sweep(4.0, 1.0, [0.4, 2.0])))

    def test_roundtrip_values(self):
        res = barrier_sweep(4.0, 1.0, [2.0])
        row = sweep_csv(res).splitlines()[1].split(",")
        assert float(row[0]) == 2.0
        assert float(row[6]) == res[0].transmission
