import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcct
from bcct.boundary_calculus import (
    AnalyticSeries,
    BoundaryGrid,
    analytic_projection,
    cauchy_quadrature,
    conjugate_function,
    evaluate_in_disk,
    fejer_means,
    fourier_coefficients,
    grid_angles,
    indicator_mask,
    sup_norm_bound,
    synthesize,
    synthesize_analytic,
)
from bcct.circle_sets import TWO_PI, Arc, validate_set
from bcct.errors import BandTooLarge, OutsideDomain
from bcct.fixtures import taper_weight, two_gap

G = 10  # 1024-point grid for most checks


def random_trig_poly(rng, degree, log2_size):
    coeffs = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)
    return coeffs, synthesize(coeffs, log2_size)


class TestFourier:
    def test_single_negative_mode(self):
        grid = BoundaryGrid.from_function(G, lambda t: np.exp(-3j * t))
        c = fourier_coefficients(grid, 5)
        expect = np.zeros(11, dtype=complex)
        expect[5 - 3] = 1.0
        assert np.max(np.abs(c - expect)) <= 1e-12

    def test_cosine(self):
        grid = BoundaryGrid.from_function(G, lambda t: 2.0 * np.cos(t))
        c = fourier_coefficients(grid, 2)
        assert abs(c[2 + 1] - 1.0) <= 1e-12
        assert abs(c[2 - 1] - 1.0) <= 1e-12
        assert abs(c[2]) <= 1e-12

    def test_random_polynomial_round_trip(self):
        rng = np.random.default_rng(7)
        coeffs, grid = random_trig_poly(rng, 20, G)
        back = fourier_coefficients(grid, 20)
        assert np.max(np.abs(back - coeffs)) <= 1e-12

    def test_band_too_large(self):
        grid = BoundaryGrid.from_function(G, lambda t: np.cos(t))
        with pytest.raises(BandTooLarge):
            fourier_coefficients(grid, 512)

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            BoundaryGrid(4, np.zeros(16, dtype=complex))

    def test_import_loads_numpy_fft(self):
        # numpy loads numpy.fft lazily; a signal handler that calls np.fft
        # while that first import runs recurses, so importing bcct loads it.
        env = dict(os.environ, PYTHONPATH=str(Path(bcct.__file__).parents[1]))
        code = "import sys, bcct; sys.exit('numpy.fft' not in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_norm_h2_does_not_follow_blas_threads(self):
        # np.linalg.norm is a BLAS dot, whose summation order follows
        # OpenBLAS's thread count; verdicts must not depend on the CPUs.
        code = (
            "import numpy as np; from bcct.boundary_calculus import AnalyticSeries; "
            "r = np.random.default_rng(0); c = r.normal(size=1 << 18) + 1j * r.normal(size=1 << 18); "
            "print(repr(AnalyticSeries(c).norm_h2()))"
        )
        norms = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(bcct.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            norms.add(proc.stdout)
        assert len(norms) == 1
        re, im = np.random.default_rng(1).normal(size=(2, 5000))
        c = re + 1j * im
        exact = math.sqrt(math.fsum(x.real**2 + x.imag**2 for x in c))
        assert AnalyticSeries(c).norm_h2() == pytest.approx(exact, rel=1e-15)


class TestProjection:
    def test_negative_mode_killed(self):
        c = np.zeros(3, dtype=complex)
        c[0] = 1.0  # index -1
        s = analytic_projection(c)
        assert np.max(np.abs(s.coeffs)) == 0.0

    def test_mixed_modes(self):
        c = np.zeros(7, dtype=complex)
        c[3] = 2.0
        c[6] = 1j
        s = analytic_projection(c)
        assert np.allclose(s.coeffs, [2.0, 0.0, 0.0, 1j])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        once = analytic_projection(c)
        padded = np.concatenate([np.zeros(4), once.coeffs])
        twice = analytic_projection(padded)
        assert np.allclose(once.coeffs, twice.coeffs)


class TestConjugate:
    def test_cosine_to_sine(self):
        t = grid_angles(G)
        out = conjugate_function(np.cos(t))
        assert np.max(np.abs(out - np.sin(t))) <= 1e-12

    def test_constant_to_zero(self):
        out = conjugate_function(np.full(1 << G, 3.7))
        assert np.max(np.abs(out)) <= 1e-12

    def test_exponential_analyticity(self):
        rng = np.random.default_rng(3)
        t = grid_angles(G)
        u = np.zeros(1 << G)
        for n in range(1, 6):
            u += rng.normal() * np.cos(n * t) + rng.normal() * np.sin(n * t)
        u *= 0.3
        f = np.exp(u + 1j * conjugate_function(u))
        c = np.fft.fft(f) / len(f)
        negative = np.abs(c[len(c) // 2 :])
        assert np.max(negative) <= 1e-10

    def test_involution_up_to_mean(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=1 << G)
        twice = conjugate_function(conjugate_function(u))
        # double conjugation flips the sign after removing mean and Nyquist
        c = np.fft.fft(u)
        c[0] = 0.0
        c[len(u) // 2] = 0.0
        u0 = np.real(np.fft.ifft(c))
        assert np.max(np.abs(twice + u0)) <= 1e-12

    @pytest.mark.parametrize("log2", [8, 11, 13, 16])
    def test_real_transforms_match_complex_path(self, log2):
        # the complex FFT pair that the real one replaced
        def complex_path(u):
            n = len(u)
            mult = np.zeros(n, dtype=complex)
            mult[1 : n // 2] = -1j
            mult[n // 2 + 1 :] = 1j
            return np.real(np.fft.ifft(np.fft.fft(u) * mult))

        w = taper_weight(two_gap(), log2)
        taper = np.where(w.mask, np.log(np.where(w.mask, w.values, 1.0)), 0.0)
        random = np.random.default_rng(log2).normal(size=1 << log2)
        for u in (random, taper):
            err = np.max(np.abs(conjugate_function(u) - complex_path(u)))
            assert err <= 1e-14 * np.max(np.abs(u))

    def test_odd_length_keeps_its_top_frequency(self):
        # an odd grid has no Nyquist index: every k != 0 gets -i sign(k)
        n = 255
        t = TWO_PI * np.arange(n) / n
        out = conjugate_function(np.cos(127 * t) + 2.0)
        assert np.max(np.abs(out - np.sin(127 * t))) <= 1e-12


class TestFejer:
    def test_constant_unchanged(self):
        s = fejer_means(AnalyticSeries([5.0]), 4)
        assert s.coeffs[0] == pytest.approx(5.0)

    def test_degree_one_halves_z(self):
        s = fejer_means(AnalyticSeries([0.0, 1.0]), 1)
        assert np.allclose(s.coeffs, [0.0, 0.5])

    def test_sup_norm_never_grows(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            c = rng.normal(size=33) + 1j * rng.normal(size=33)
            h = AnalyticSeries(c)
            vals = synthesize_analytic(h, G)
            scale = np.max(np.abs(vals))
            reg = fejer_means(h, 16)
            reg_vals = synthesize_analytic(reg, G)
            assert np.max(np.abs(reg_vals)) <= scale * (1.0 + 1e-10)


class TestEvaluation:
    def test_ones_at_zero(self):
        s = AnalyticSeries(np.ones(12))
        assert evaluate_in_disk(s, 0.0) == pytest.approx(1.0)

    def test_truncated_geometric(self):
        d = 10
        s = AnalyticSeries(np.ones(d + 1))
        val = evaluate_in_disk(s, 0.5)
        assert val == pytest.approx(2.0 - 2.0 ** (-d), abs=1e-14)

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            evaluate_in_disk(AnalyticSeries([1.0]), 1.0)
        with pytest.raises(OutsideDomain):
            cauchy_quadrature(BoundaryGrid.from_function(G, np.cos), 0.99)

    def test_projection_evaluation_matches_quadrature(self):
        # smooth boundary data: both routes agree to 1e-6 at 64 points
        grid = BoundaryGrid.from_function(
            G, lambda t: np.exp(0.4 * np.cos(t)) + 1j * np.sin(2 * t) * 0.2
        )
        series = analytic_projection(fourier_coefficients(grid, 200))
        rng = np.random.default_rng(23)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(1j * rng.uniform(0, TWO_PI, 64))
        direct = cauchy_quadrature(grid, z)
        series_vals = evaluate_in_disk(series, z)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - series_vals)) <= 1e-6 * scale


class TestCauchy:
    def test_constant_full_circle(self):
        grid = BoundaryGrid.from_function(12, lambda t: np.ones_like(t, dtype=complex))
        z = np.array([0.0, 0.3 + 0.4j, -0.9j])
        assert np.max(np.abs(cauchy_quadrature(grid, z) - 1.0)) <= 1e-12

    def test_conjugate_coordinate_vanishes(self):
        grid = BoundaryGrid.from_function(12, lambda t: np.exp(-1j * t))
        z = np.array([0.1, 0.5j, -0.4 + 0.2j])
        assert np.max(np.abs(cauchy_quadrature(grid, z))) <= 1e-12

    def test_coordinate_reproduced(self):
        grid = BoundaryGrid.from_function(12, lambda t: np.exp(1j * t))
        z = np.array([0.25, -0.3 + 0.1j])
        assert np.max(np.abs(cauchy_quadrature(grid, z) - z)) <= 1e-12


def dense_cauchy_sum(vals, z):
    """(1/n) sum_m vals_m / (1 - z conj(zeta_m)), summed over the explicit kernel."""
    n = len(vals)
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    z = np.atleast_1d(z)
    return np.sum(vals[None, :] / (1.0 - z[:, None] * np.conj(zeta)[None, :]), axis=1) / n


class TestCauchyOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(8, 12),
        st.booleans(),
        st.floats(0.0, 0.95),
    )
    # 2^8 points at |z| = 0.95: the truncation keeps all n terms and the
    # (1 - z^n)^{-1} factor (0.95^256 ~ 2e-6) is what makes the sum exact
    @example(seed=0, log2=8, masked=False, radius=0.95)
    @example(seed=1, log2=8, masked=True, radius=0.0)
    def test_matches_dense_sum(self, seed, log2, masked, radius):
        rng = np.random.default_rng(seed)
        n = 1 << log2
        grid = BoundaryGrid(log2, rng.normal(size=n) + 1j * rng.normal(size=n))
        mask = rng.uniform(size=n) < 0.5 if masked else None
        vals = grid.samples if mask is None else grid.samples * mask
        phi = rng.uniform(0, TWO_PI, 16)
        r = radius * np.sqrt(rng.uniform(0, 1, 16))
        r[0], r[1], phi[1] = 0.0, radius, 0.0  # z = 0, and z = radius exactly
        z = r * np.exp(1j * phi)
        got = cauchy_quadrature(grid, z, mask)
        ref = dense_cauchy_sum(vals, z)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # a scalar point gives a complex scalar
        one = cauchy_quadrature(grid, z[1], mask)
        assert isinstance(one, complex)
        assert abs(one - ref[1]) <= 1e-13 * np.max(np.abs(ref))


class TestMaskAndSup:
    def test_indicator_mask_counts(self):
        E = validate_set([Arc(0.0, math.pi)])  # lower half circle is the set
        mask = indicator_mask(E, G)
        n = 1 << G
        # interior of the gap excluded, endpoints kept
        assert np.count_nonzero(~mask) == n // 2 - 1
        assert mask[0] and mask[n // 2]

    def test_sup_norm_bound_certifies(self):
        rng = np.random.default_rng(29)
        c = rng.normal(size=17) + 1j * rng.normal(size=17)
        s = AnalyticSeries(c)
        bound = sup_norm_bound(s, 12)
        dense = np.abs(synthesize_analytic(s, 16))
        assert np.max(dense) <= bound * (1.0 + 1e-12)
