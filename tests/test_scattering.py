"""Tests for the transfer-matrix machinery and the sweep plumbing."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from susywell import scattering
from susywell.cli import PLANE_ENERGIES
from susywell.errors import ConvergenceFailure
from susywell.gates import ORACLE_TOL
from susywell.scattering import (
    SERIES_MAX,
    SLICE_BLOCK,
    SWEEP_HEADER,
    Slab,
    _ordered_product,
    _series,
    _slice_entries,
    _slice_values,
    _transfer_matrices,
    plane_partner_sweep,
    square_barrier_transmission,
    sweep,
    sweep_csv,
)
from susywell.susy_core import Family, Partner, SuperpotentialSpec, partner_field

MATRIX_TOL = 1e-10
ORACLE_RTOL = 1e-8

# frozen closed-form values, evaluated by hand from the textbook expressions
T_TUNNEL_V4_A1_E1 = 0.0909668503958455
T_WELL_V5_A1_E2 = 0.9082214485068217
T_RESONANCE_V4_A1 = 0.5

# the whole messages of the scattering refusals, all ConvergenceFailure
OVERFLOW = re.compile(r"evanescent exponent (\S+) exceeds the overflow guard: "
                      r"the transfer matrix would leave the double range")
UNSETTLED = re.compile(r"transmission at E=(\S+) still changes by (\S+) after refining to "
                       r"(\d+) slices")


def overflow_exponent(exc) -> float:
    """The exponent that an overflow refusal names, a python float repr."""
    assert type(exc) is ConvergenceFailure
    return float(OVERFLOW.fullmatch(str(exc)).group(1))


def constant(value):
    """The field V(x) = value."""
    return lambda x: np.full(np.shape(x), value)


def barrier(v0=4.0, width=1.0):
    """The square barrier of height v0 on [0, width]: a constant field at one
    slice, which is the exact step of a constant slab."""
    return Slab(constant(v0), 0.0, width)


def stepped(values, a, b):
    """A slab on [a, b] of one slice per value whose field is that value on
    its slice, so that it jumps on slice boundaries only."""
    levels, width = np.asarray(values, dtype=complex), (b - a) / len(values)
    return Slab(lambda x: levels[np.clip(((x - a) // width).astype(int), 0, len(levels) - 1)],
                a, b, len(levels))


def sliced(spec, window, slices):
    """The V1 partner of spec on window as one Slab, V = 0 outside."""
    return Slab(partner_field(spec, Partner.V1), *window, slices)


def free_waves(k0, x):
    """(psi, psi') matrix of the free waves e^{+-ik0 x} at x."""
    e = cmath.exp(1j * k0 * x)
    return np.array([[e, 1 / e], [1j * k0 * e, -1j * k0 / e]])


def sequential_transfer_matrix(field, a, b, slices, energy):
    """Reference: one scalar Magnus step at a time, later slices on the left,
    matched to the free waves at a and b by inverting their (psi, psi')
    matrix. Slice i samples the field at its two Gauss nodes and takes
    exp(Omega) = cos z + sinc z Omega, Omega = [[d, w], [-(E - Vbar) w, -d]],
    d = sqrt(3) w^2 (V- - V+) / 12, z^2 = (E - Vbar) w^2 - d^2."""
    width = (b - a) / slices
    out = np.eye(2, dtype=complex)
    for i in range(slices):
        centre = a + width * (i + 0.5)
        lower, upper = (complex(v) for v in field(
            np.array([centre - width / (2 * math.sqrt(3)), centre + width / (2 * math.sqrt(3))])))
        ksq = energy - (lower + upper) / 2
        d = math.sqrt(3) / 12 * width ** 2 * (lower - upper)
        z = cmath.sqrt(ksq * width ** 2 - d ** 2)
        sinc = cmath.sin(z) / z
        omega = np.array([[d, width], [-ksq * width, -d]])
        out = (cmath.cos(z) * np.eye(2) + sinc * omega) @ out
    k0 = math.sqrt(energy)
    return np.linalg.inv(free_waves(k0, b)) @ out @ free_waves(k0, a)


def midpoint_richardson(field, a, b, energy, slices):
    """Reference (r, t) with no Gauss nodes: midpoint slices at slices and
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


class TestTransferMatrix:
    def test_zero_field_is_identity(self):
        m = _transfer_matrices(Slab(constant(0.0), 0.0, 2.0), [3.7])[0]
        assert np.max(np.abs(m - np.eye(2))) < MATRIX_TOL

    def test_zero_width_propagator_is_identity(self):
        # a Slab refuses an empty interval, but the slice kernel itself
        # degrades continuously to the identity
        m = np.reshape(_slice_entries([4.0], 0.0, 1.0), (2, 2))
        assert np.max(np.abs(m - np.eye(2))) == 0.0

    def test_unimodular(self):
        for E in (0.5, 1.0, 7.3):
            m = _transfer_matrices(barrier(), [E])[0]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) < MATRIX_TOL

    @pytest.mark.parametrize("energy", [0.4, 2.0, 5.0])
    def test_composition(self, energy):
        # a field that jumps from 2 to -1 on the boundary x = 1 of its slices
        # against the two constant slabs on either side of it: the free-wave
        # match at x = 1 cancels to rounding
        both = stepped([2.0, 2.0, -1.0, -1.0], 0.0, 2.0)
        left, right = Slab(constant(2.0), 0.0, 1.0, 2), Slab(constant(-1.0), 1.0, 2.0, 2)
        whole = _transfer_matrices(both, [energy])[0]
        combined = _transfer_matrices(right, [energy])[0] @ _transfer_matrices(left, [energy])[0]
        assert np.max(np.abs(combined - whole)) <= 1e-14 * np.max(np.abs(whole))

    def test_translation_only_shifts_phases(self):
        # |T| of a shifted copy of the structure is unchanged
        E = 2.0
        base = sweep(barrier(), [E])[0]
        moved = sweep(Slab(constant(4.0), 10.0, 11.0), [E])[0]
        assert moved.transmission == pytest.approx(base.transmission, abs=1e-12)
        assert moved.reflection == pytest.approx(base.reflection, abs=1e-12)

    @pytest.mark.parametrize("energy", [-0.5, 0.0, math.nan])
    def test_nonpositive_or_nan_energy_refused(self, energy):
        with pytest.raises(ValueError):
            _transfer_matrices(barrier(), [energy])[0]

    def test_vanishing_free_wave_wronskian(self):
        # E = 1e-30 puts 2 k0 = 2e-15 below WRONSKIAN_TOL
        with pytest.raises(ConvergenceFailure) as err:
            sweep(barrier(), [1e-30])[0]
        assert str(err.value) == ("free-wave matching at x=0.0 is degenerate: "
                                  "Wronskian 2 k0 = 2e-15 is below 1e-12")

    def test_vanishing_m22_prints_a_python_complex(self, monkeypatch):
        # no structure reaches |M22| < 1e-300 (det M = 1, M22 = 1/t), so the
        # matrix is given
        matrix = np.array([[1.0, 0.0], [0.0, 1e-310]], dtype=np.complex128)
        monkeypatch.setattr(scattering, "_transfer_matrices", lambda pot, energies: [matrix])
        with pytest.raises(ConvergenceFailure) as err:
            sweep(barrier(), [1.0])
        assert str(err.value) == ("free-wave matching at x=1.0 is degenerate: "
                                  "M22 = (1e-310+0j) is below 1e-300")

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 0.5), (0.0, math.nan)])
    def test_empty_interval_refused(self, a, b):
        with pytest.raises(ValueError, match="empty interval"):
            Slab(constant(1.0), a, b)

    @pytest.mark.parametrize("slices", [0, -2])
    def test_fewer_than_one_slice_refused(self, slices):
        with pytest.raises(ValueError, match="slices must be >= 1"):
            Slab(constant(1.0), 0.0, 1.0, slices)

    @pytest.mark.parametrize("field,slices", [
        (lambda x: 4.0, 3),
        (lambda x: np.full((len(x), 2), 4.0), 3),
        # right for every full chunk of SLICE_BLOCK nodes, short on the last
        (lambda x: np.full(SLICE_BLOCK, 4.0), 2 * SLICE_BLOCK + 1),
    ], ids=["scalar", "two-per-node", "last-chunk"])
    def test_field_of_the_wrong_shape_refused(self, field, slices):
        with pytest.raises(ValueError, match="one value per Gauss node"):
            sweep(Slab(field, 0.0, 1.0, slices), [1.0])

    def test_evanescent_overflow_guard(self):
        wide = Slab(constant(1e8), 0.0, 100.0)
        with pytest.raises(ConvergenceFailure, match=OVERFLOW.pattern):
            _transfer_matrices(wide, [1.0])[0]

    def test_slice_guard_reports_a_python_float(self):
        # the exponent of one slice over the guard is a float, so the message
        # reads like the summed ones, not np.float64(...)
        with pytest.raises(ConvergenceFailure) as err:
            _transfer_matrices(barrier(1e200, 1.0), [1.0])[0]
        assert overflow_exponent(err.value) == pytest.approx(1e100)
        assert "np.float64" not in str(err.value)

    @pytest.mark.parametrize("slices,folded", [(2, 2), (2 * SLICE_BLOCK + 1, 2 * SLICE_BLOCK)],
                             ids=["one-block", "across-blocks"])
    def test_overflow_across_slices(self, slices, folded):
        # kappa = 400 on [0, 2] passes each slice's guard, but the product of
        # the slices would overflow: refused with the exponent summed over
        # the blocks folded so far (a RuntimeWarning would fail the test, see
        # pyproject.toml), two slices in one block or the first two blocks
        pot = Slab(constant(160001.0), 0.0, 2.0, slices)
        with pytest.raises(ConvergenceFailure) as err:
            _transfer_matrices(pot, [1.0])[0]
        assert overflow_exponent(err.value) == pytest.approx(800.0 * folded / slices)

    def test_overflow_in_free_wave_match(self):
        # kappa w = 690 passes the running-product guard, but matching to the
        # free waves multiplies by ~1/k0 = 1e10: refused, with no RuntimeWarning
        with pytest.raises(ConvergenceFailure) as err:
            _transfer_matrices(barrier(690.0 ** 2), [1e-20])[0]
        assert overflow_exponent(err.value) == pytest.approx(690.0)


class TestSliceKernel:
    def test_series_matches_numpy_trig(self):
        # the real u axis on both sides of 0 and the circle |u| = SERIES_MAX
        axis = np.geomspace(1e-12, SERIES_MAX, 200)
        circle = SERIES_MAX * np.exp(2j * np.pi * np.arange(64) / 64)
        u = np.concatenate([axis, -axis, circle]).astype(complex)
        z = np.sqrt(u)
        cosz, sinc = _series(u)
        assert np.max(np.abs(cosz / np.cos(z) - 1.0)) <= 1e-15
        assert np.max(np.abs(sinc / (np.sin(z) / z) - 1.0)) <= 1e-15

    def test_series_of_one_slice_is_its_row_of_a_batch(self):
        # numpy rounds a complex multiply of one element otherwise than of
        # many unless both take the same broadcast, so a one-slice row of a
        # complex field must get the bits it gets in any batch
        rng = np.random.default_rng(7)
        u = SERIES_MAX / 2 * (rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64))
        batch = _series(u)
        for i in range(len(u)):
            assert _series(u[i:i + 1]).tolist() == batch[:, i:i + 1].tolist()

    def test_mixed_block_matches_single_slices(self):
        # thin slices (series) beside |u| >> 1 ones (trig) in one block,
        # E = V among them; no warning of any kind
        width, energy = 0.01, 2.0
        values = np.array([2.0, 1e6, 2.5 + 1j, -1e6, 3.0 - 2e4j, 1.0, 2.0 + 1e5j])
        with np.errstate(all="raise"):
            block = _slice_entries(values, width, energy)
            alone = [_slice_entries([v], width, energy) for v in values]
        u = np.abs((energy - values) * width ** 2)
        assert np.any(u <= SERIES_MAX) and np.any(u > 10.0)
        for i, entries in enumerate(alone):
            assert block[..., i].tolist() == entries[..., 0].tolist()

    def test_resonance_slice_is_exact(self):
        # E = V: the linear-solution pair, exactly
        w = 0.37
        m = np.reshape(_slice_entries([4.0], w, 4.0), (2, 2))
        assert np.array_equal(m, np.array([[1.0, w], [0.0, 1.0]]))

    @pytest.mark.parametrize("slices", [1, 11, 12])
    @pytest.mark.parametrize("energies", [(), (3,)], ids=["one energy", "energy axis"])
    def test_ordered_product_is_the_sequential_left_product(self, slices, energies):
        # random unimodular 2x2 matrices; 11 and 12 carry an odd slice at some level
        rng = np.random.default_rng(slices)
        shape = (*energies, slices, 2, 2)
        mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mats /= np.sqrt(np.linalg.det(mats))[..., None, None]
        want = np.eye(2)
        for m in np.moveaxis(mats, -3, 0):
            want = m @ want
        got = _ordered_product(np.moveaxis(mats, (-2, -1), (0, 1)))
        assert got.shape == (2, 2, *energies)
        assert_allclose(np.moveaxis(got, (0, 1), (-2, -1)), want, rtol=1e-12)


class TestBarrierOracle:
    def test_free_space(self):
        res = sweep(barrier(0.0), [1.0])[0]
        assert abs(res.r) < MATRIX_TOL
        assert abs(res.t - 1.0) < MATRIX_TOL
        assert abs(res.flux_defect) < MATRIX_TOL

    def test_tunneling_value(self):
        res = sweep(barrier(4.0, 1.0), [1.0])[0]
        assert res.transmission == pytest.approx(T_TUNNEL_V4_A1_E1,
                                                 rel=ORACLE_RTOL)
        assert square_barrier_transmission(4.0, 1.0, 1.0) == pytest.approx(
            T_TUNNEL_V4_A1_E1, rel=1e-12)

    def test_well_value(self):
        res = sweep(barrier(-5.0), [2.0])[0]
        assert res.transmission == pytest.approx(T_WELL_V5_A1_E2, rel=ORACLE_RTOL)
        assert abs(res.flux_defect) < 1e-10

    def test_resonance_branch(self):
        # E = V0 goes through the sinc limit in both code paths
        res = sweep(barrier(4.0, 1.0), [4.0])[0]
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
        res = sweep(barrier(4.0, 1.0), [E])[0]
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
        res = sweep(barrier(v0, width), [energy])[0]
        assert abs(res.flux_defect) < 1e-10
        ref = square_barrier_transmission(v0, width, energy)
        assert res.transmission == pytest.approx(ref, rel=ORACLE_RTOL)

    @pytest.mark.parametrize("energy", [1e-8, 1e-12, 1e-16, 1e-20])
    def test_oracle_near_zero_energy(self, energy):
        # the entries of M grow like 1/k0; t = 1/M22 does not rebuild
        # det M = 1 from them by cancellation
        res = sweep(barrier(4.0, 1.0), [energy])[0]
        ref = square_barrier_transmission(4.0, 1.0, energy)
        assert abs(res.transmission - ref) / ref < ORACLE_TOL
        assert abs(res.flux_defect) < 1e-10

    def test_stepped_slab_conserves_flux(self):
        pot = stepped([3.0, -1.0], 0.0, 2.0)
        for E in (0.4, 1.1, 6.0):
            res = sweep(pot, [E])[0]
            assert abs(res.flux_defect) < 1e-10

    def test_oracle_input_validation(self):
        with pytest.raises(ValueError):
            square_barrier_transmission(4.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            square_barrier_transmission(4.0, 1.0, 0.0)


class TestMagnusSlices:
    @pytest.mark.parametrize("value,width,energy", [
        (4.0, 1.0, 1.0), (4.0, 0.1, 4.0), (2.5 + 1j, 1.3, 0.7), (-5.0, 0.05, 2.0)])
    def test_constant_field_is_one_exact_step(self, value, width, energy):
        # one slice of a constant field is the value itself with delta = 0,
        # bit for bit, so its step is exp(Omega) of the constant slab
        slab = Slab(constant(value), 0.2, 0.2 + width)
        values, step, delta = _slice_values(slab)
        assert values.tolist() == [value] and delta.tolist() == [0j]
        assert step == slab.b - slab.a
        omega = np.array([[0.0, step], [-(energy - value) * step, 0.0]])
        want = np.linalg.inv(free_waves(math.sqrt(energy), slab.b)) @ expm(omega) @ free_waves(
            math.sqrt(energy), slab.a)
        assert_allclose(_transfer_matrices(slab, [energy])[0], want, rtol=1e-13, atol=1e-13)

    def test_thin_slices_match_exact_constant(self):
        const = _transfer_matrices(barrier(2.5, 1.3), [1.0])[0]
        sliced = _transfer_matrices(Slab(constant(2.5 + 0j), 0.0, 1.3, 500), [1.0])[0]
        assert np.max(np.abs(const - sliced)) < 1e-10

    @pytest.mark.parametrize("slices", [1, 2, 3, SLICE_BLOCK - 1, SLICE_BLOCK,
                                        SLICE_BLOCK + 1, 2 * SLICE_BLOCK + 1])
    def test_batched_product_matches_sequential_loop(self, slices):
        field = partner_field(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0), Partner.V1)
        got = _transfer_matrices(Slab(field, 0.0, 2.0, slices), [1.5])[0]
        ref = sequential_transfer_matrix(field, 0.0, 2.0, slices, 1.5)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_evanescent_overflow_guard(self):
        # one opaque slice in the last block is enough to refuse the slab
        def field(x):
            return np.where(x > 90.0, 1e12, 0.0)

        pot = Slab(field, 0.0, 100.0, 2 * SLICE_BLOCK + 1)
        with pytest.raises(ConvergenceFailure, match=OVERFLOW.pattern):
            _transfer_matrices(pot, [1.0])[0]

    def test_accumulated_overflow_guard(self, monkeypatch):
        # at q = 200 no slice reaches |Im z| = 700, but their product would
        # overflow: refused at the first slice count, with no RuntimeWarning
        monkeypatch.setattr(scattering, "START_SLICES", 2000)
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 200.0)
        width = 2 * math.pi / 2000
        values = partner_field(spec, Partner.V1)(width * (np.arange(2000) + 0.5))
        assert np.max(np.abs((np.sqrt(0.25 - values) * width).imag)) < 1.0
        with pytest.raises(ConvergenceFailure) as err:
            plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [0.25])
        assert overflow_exponent(err.value) > 700.0

    def test_slice_convergence_fourth_order(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        field = partner_field(spec, Partner.V1)

        def t_at(n):
            return sweep(Slab(field, 0.0, 2.0, n), [1.5])[0].transmission

        t_fine = t_at(2560)
        e1 = abs(t_at(20) - t_fine)
        e2 = abs(t_at(40) - t_fine)
        e3 = abs(t_at(80) - t_fine)
        assert 14.0 < e1 / e2 < 18.0
        assert 14.0 < e2 / e3 < 18.0

    @pytest.mark.parametrize("values,series", [
        ([2.0 + 0.5j, 1.5 - 0.2j, -1.0 + 1j], True),
        ([-40.0 + 8j, 60.0 - 30j, 30.0], False),
    ], ids=["series", "trig"])
    def test_magnus_slice_is_the_exponential_of_omega(self, values, series):
        width, energy = 0.1, 1.7
        delta = np.array([0.01 - 0.02j, 0.03j, -0.005])
        u = (energy - np.array(values)) * width ** 2 - delta ** 2
        assert np.all((np.abs(u) <= SERIES_MAX) == series)
        slices = _slice_entries(values, width, energy, delta)
        for i, (v, d) in enumerate(zip(values, delta)):
            omega = np.array([[d, width], [-(energy - v) * width, -d]])
            assert_allclose(slices[..., i], expm(omega), rtol=1e-14, atol=1e-14)


class TestPlaneFamilySweep:
    def test_zero_coupling_reduces_to_constant_well(self, monkeypatch):
        monkeypatch.setattr(scattering, "START_SLICES", 400)
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 0.0)
        res = plane_partner_sweep(spec, Partner.V1, (0.0, 1.0), [1.0])[0]
        ref = square_barrier_transmission(-1.0, 1.0, 1.0)
        assert res.transmission == pytest.approx(ref, rel=1e-6)

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
            assert abs(res.transmission - reference) <= 1e-11

    def test_complex_window_recorded_and_stable(self, monkeypatch):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        monkeypatch.setattr(scattering, "START_SLICES", 1000)
        res = plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [1.0])[0]
        assert res.flux_defect != 0.0
        assert math.isfinite(res.flux_defect)
        monkeypatch.setattr(scattering, "START_SLICES", 2000)
        again = plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [1.0])[0]
        assert res.transmission == pytest.approx(again.transmission, abs=2e-6)

    def test_left_right_equal_on_full_period_window(self):
        # V_L(x) = V_R(pi/k - x); a window spanning whole periods makes the
        # two restrictions differ by translation + mirror, so T must agree
        k = 1.0
        left = SuperpotentialSpec(Family.PLANE_LEFT, k, 1.0)
        right = SuperpotentialSpec(Family.PLANE_RIGHT, k, 1.0)
        window = (-math.pi / k, math.pi / k)
        for E in (0.5, 1.7):
            tl = sweep(sliced(left, window, 40000), [E])[0]
            tr = sweep(sliced(right, window, 40000), [E])[0]
            assert abs(tl.transmission - tr.transmission) < 1e-8

    def test_left_right_mirrored_windows_agree_exactly(self):
        # the sharper statement: mirroring the window as well makes the two
        # discretized problems identical slice by slice
        k = 1.0
        left = SuperpotentialSpec(Family.PLANE_LEFT, k, 1.0)
        right = SuperpotentialSpec(Family.PLANE_RIGHT, k, 1.0)
        a, b = 0.3, 2.2
        tl = sweep(sliced(left, (a, b), 1000), [1.7])[0]
        tr = sweep(sliced(right, (math.pi / k - b, math.pi / k - a), 1000), [1.7])[0]
        assert abs(tl.transmission - tr.transmission) < 1e-12
        # on the PT-centred window pi/2 -+ pi, its own mirror image, the
        # sweeps of the two families agree: T, and R from the left of one
        # family against R from the right of the other (|dT| <= 2.7e-12 and
        # 5.0e-13 max(1, R) at k = alpha = 1)
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
        right = partner_field(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0),
                              Partner.V1)
        left = partner_field(SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.0),
                             Partner.V1)
        mr = _transfer_matrices(Slab(right, -1.0, 1.0, 3000), [0.5])[0]
        ml = _transfer_matrices(Slab(left, -1.0, 1.0, 3000), [0.5])[0]
        assert np.max(np.abs(ml - sx @ np.conj(mr) @ sx)) < 1e-12

    def test_shared_samples_leave_results_unchanged(self):
        # one sweep integrates all its energies together at each slice count;
        # energies that double 0 to 3 times must match one-energy sweeps bit for bit
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.5)
        energies = [0.45, 0.6, 1.0, 1.2, 2.0]
        window = (0.0, 2 * math.pi)
        together = plane_partner_sweep(spec, Partner.V1, window, energies)
        alone = [plane_partner_sweep(spec, Partner.V1, window, [E])[0] for E in energies]
        assert together == alone

    def test_requires_plane_family(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        with pytest.raises(ValueError):
            plane_partner_sweep(spec, Partner.V1, (0.0, 1.0), [1.0])

    def test_slice_too_coarse(self, monkeypatch):
        # T still moves by about 1.6e-3 between 64 and 128 slices here, and
        # 128 is the last count the sweep integrates
        monkeypatch.setattr(scattering, "START_SLICES", 1)
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 10.0)
        with pytest.raises(ConvergenceFailure) as exc:
            plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [1000.0])
        energy, change, slices = UNSETTLED.fullmatch(str(exc.value)).groups()
        assert (energy, slices) == ("1000.0", "128")
        assert float(change) > scattering.STABILIZE_TOL

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


def doubling_reference(spec, which, window, energy):
    """One energy of plane_partner_sweep as a loop of one-energy sweeps:
    START_SLICES slices, doubled until T changes by at most STABILIZE_TOL,
    else the ConvergenceFailure of plane_partner_sweep with the last count
    integrated."""
    field = partner_field(spec, which)

    def at(m):
        return sweep(Slab(field, *window, m), [energy])[0]

    m = scattering.START_SLICES
    prev = at(m)
    for _ in range(scattering.MAX_DOUBLINGS + 1):
        m *= 2
        nxt = at(m)
        change = abs(nxt.transmission - prev.transmission)
        if change <= scattering.STABILIZE_TOL:
            return nxt
        prev = nxt
    raise ConvergenceFailure(f"transmission at E={energy!r} still changes by {change!r} "
                             f"after refining to {m} slices")


# barrier energies: the series range about v0 and anywhere from near 0 to 40
near_top = st.floats(-0.04, 0.04)
far = st.floats(0.05, 40.0)


class TestEnergyBatches:
    @settings(max_examples=60, deadline=None)
    @given(v0=st.floats(-8.0, 8.0), width=st.floats(0.3, 2.0),
           picks=st.lists(st.one_of(st.tuples(st.just("near"), near_top),
                                    st.tuples(st.just("far"), far)), min_size=1, max_size=12))
    def test_barrier_sweep_is_the_one_energy_loop(self, v0, width, picks):
        # unsorted, repeated, and series rows beside trig rows in one block
        energies = [v0 + d / width ** 2 if kind == "near" else d for kind, d in picks]
        energies = [e if e > 0.0 else 0.05 for e in energies] + energies[:2]
        pot = barrier(v0, width)
        assert_same_outcome(outcome(lambda: sweep(pot, energies)),
                            one_at_a_time(lambda e: sweep(pot, [e])[0], energies))

    def test_barrier_block_mixes_series_and_trig_rows(self):
        energies = [4.0, 1.0, 4.01, 9.0, 3.99, 1.0]
        series = [abs((e - 4.0) * 1.3 ** 2) <= SERIES_MAX for e in energies]
        assert any(series) and not all(series)
        pot = barrier(4.0, 1.3)
        assert sweep(pot, energies) == [sweep(pot, [e])[0] for e in energies]

    @settings(max_examples=20, deadline=None)
    @given(slices=st.sampled_from([1, 3, SLICE_BLOCK - 1, SLICE_BLOCK + 1, 2 * SLICE_BLOCK + 1]),
           v1=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
           energies=st.lists(st.sampled_from([0.3, 1.0, 2.0, 2.01, 1.99, 7.5]), min_size=1,
                             max_size=6))
    def test_field_sweep_is_the_one_energy_loop(self, slices, v1, energies):
        # a multi-block fold of a field that is flat at 2 on its left part, so
        # that its rows mix series (E near 2) and trig
        def field(x):
            return np.where(x < 0.7, 2.0, np.where(x < 2.0, 1.0 + v1 * np.exp(1.3j * x),
                                                   -3.0 + 0.5j))

        pot = Slab(field, 0.0, 2.4, slices)
        assert_same_outcome(outcome(lambda: sweep(pot, energies)),
                            one_at_a_time(lambda e: sweep(pot, [e])[0], energies))

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from([Family.PLANE_RIGHT, Family.PLANE_LEFT]),
           partner=st.sampled_from(list(Partner)), q=st.sampled_from([0.5, 1.0, 1.5]),
           energies=st.lists(st.sampled_from([0.3, 0.45, 1.0, 1.2, 2.5, 5.0]), min_size=1,
                             max_size=6))
    def test_plane_sweep_is_the_one_energy_loop(self, family, partner, q, energies):
        spec = SuperpotentialSpec(family, 1.0, q)
        window = (0.0, 2 * math.pi)
        assert_same_outcome(
            outcome(lambda: plane_partner_sweep(spec, partner, window, energies)),
            one_at_a_time(lambda e: doubling_reference(spec, partner, window, e), energies))

    def test_energies_settle_at_different_counts_in_input_order(self):
        # on (0, 40 pi) at q = 2, E = 0.5 and 5 settle at 4096 slices and
        # E = 2 at 8192: two doublings and a fold over two blocks of slices
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 2.0)
        window = (0.0, 40 * math.pi)
        energies = [2.0, 5.0, 0.5, 2.0]
        got = plane_partner_sweep(spec, Partner.V1, window, energies)
        counts = {2.0: 8192, 5.0: 4096, 0.5: 4096}
        assert got == [sweep(sliced(spec, window, counts[e]), [e])[0] for e in energies]
        assert got == [doubling_reference(spec, Partner.V1, window, e) for e in energies]

    @pytest.mark.parametrize("energies", [[1000.0, -1.0], [-2.0, 1000.0, -1.0],
                                          [1000.0, float("nan")]])
    def test_first_failing_energy_raises_in_a_plane_sweep(self, monkeypatch, energies):
        # E = 1000 fails last in time (unsettled at 128 slices) but
        # first in order, so it is what the sweep raises
        monkeypatch.setattr(scattering, "START_SLICES", 1)
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 10.0)
        window = (0.0, 2 * math.pi)
        got = outcome(lambda: plane_partner_sweep(spec, Partner.V1, window, energies))
        assert got[1] is not None
        assert_same_outcome(
            got, one_at_a_time(lambda e: doubling_reference(spec, Partner.V1, window, e),
                               energies))

    @pytest.mark.parametrize("energies", [[0.25, 0.5], [0.5, 0.25], [0.3, 0.25, 0.5]])
    def test_first_overflowing_energy_raises_in_a_plane_sweep(self, energies):
        # at q = 200 every energy overflows, each with its own exponent
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 200.0)
        window = (0.0, 2 * math.pi)
        got = outcome(lambda: plane_partner_sweep(spec, Partner.V1, window, energies))
        assert overflow_exponent(got[1]) > 700.0
        assert_same_outcome(
            got, one_at_a_time(lambda e: doubling_reference(spec, Partner.V1, window, e),
                               energies))

    @pytest.mark.parametrize("v0,energies", [
        (4.0, [2.0, 1e-30, -1.0]),
        (4.0, [2.0, -1.0, 1e-30]),
        (490100.0, [490101.0, 50.0, 490200.0, 20.0]),
        (490100.0, [490101.0, 20.0, 490200.0, 50.0]),
        (1e8, [3.0, 1.0]),
    ])
    def test_first_failing_energy_raises_in_a_structure_sweep(self, v0, energies):
        # below E = 100 the 490100 slab passes |Im z| = 700 in some rows of
        # a block and not in others
        pot = barrier(v0, 1.0 if v0 < 1e8 else 100.0)
        got = outcome(lambda: sweep(pot, energies))
        assert got[1] is not None
        assert_same_outcome(got, one_at_a_time(lambda e: sweep(pot, [e])[0], energies))

    def test_a_passing_plane_sweep_integrates_each_energy_once(self, monkeypatch):
        # the scatter defaults settle at 512 against 1024 slices: 7 energies
        # x (512 + 1024) slice-energy pairs, and no replay
        pairs = []
        entries = scattering._slice_entries

        def counted(*args):
            out = entries(*args)
            pairs.append(out[0, 0].size)
            return out

        monkeypatch.setattr(scattering, "_slice_entries", counted)
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), PLANE_ENERGIES)
        assert sum(pairs) == 7 * (512 + 1024) == 10752

    def test_a_passing_barrier_sweep_calls_the_kernel_once(self, monkeypatch):
        calls = []
        entries = scattering._slice_entries

        def counted(*args):
            calls.append(args)
            return entries(*args)

        monkeypatch.setattr(scattering, "_slice_entries", counted)
        results = sweep(barrier(), [0.4, 1.0, 2.0, 4.0, 6.0, 9.0])
        assert len(results) == 6
        assert len(calls) == 1

    def test_memory_does_not_grow_with_energies_times_slices(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)

        def peak(count):
            energies = list(np.linspace(0.5, 5.0, count))
            tracemalloc.start()
            try:
                plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), energies)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one array of 256 energies x 1024 slices would take 4 MiB; 248 more
        # results take a few hundred bytes each
        assert peak(256) - peak(8) < 256 * 1024


class TestSweepSerialization:
    def test_header_and_shape(self):
        text = sweep_csv(sweep(barrier(), [0.4, 2.0]))
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 3
        assert text.endswith("\n")
        assert "\r" not in text

    def test_byte_determinism(self):
        assert sweep_csv(sweep(barrier(), [0.4, 2.0])) == sweep_csv(sweep(barrier(), [0.4, 2.0]))

    def test_roundtrip_values(self):
        res = sweep(barrier(), [2.0])
        row = sweep_csv(res).splitlines()[1].split(",")
        assert float(row[0]) == 2.0
        assert float(row[6]) == res[0].transmission
