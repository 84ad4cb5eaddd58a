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
    _cauchy_sum,
    _spectrum,
    analytic_coefficients,
    conjugate_function,
    evaluate_in_disk,
    fejer_means,
    grid_angles,
    indicator_mask,
    sup_norm_bound,
    synthesize_analytic,
)
from bcct.circle_sets import TWO_PI, Arc, validate_set
from bcct.errors import BandTooLarge, OutsideDomain
from bcct.fixtures import taper_weight, two_gap

G = 10  # 1024-point grid for most checks


class TestFourier:
    def test_single_negative_mode(self):
        c = _spectrum(np.exp(-3j * grid_angles(G)))
        expect = np.zeros(1 << G, dtype=complex)
        expect[-3] = 1.0
        assert np.max(np.abs(c - expect)) <= 1e-12

    def test_cosine(self):
        c = _spectrum(2.0 * np.cos(grid_angles(G)))
        assert abs(c[1] - 1.0) <= 1e-12
        assert abs(c[-1] - 1.0) <= 1e-12
        assert abs(c[0]) <= 1e-12

    def test_random_polynomial_round_trip(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=21) + 1j * rng.normal(size=21)
        samples = synthesize_analytic(AnalyticSeries(coeffs), G)
        back = analytic_coefficients(samples, 20)
        assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-12
        assert np.max(np.abs(_spectrum(samples)[21:])) <= 1e-12

    def test_band_too_large(self):
        samples = np.cos(grid_angles(G))
        with pytest.raises(BandTooLarge):
            analytic_coefficients(samples, len(samples) // 2)

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
        z = np.exp(1j * grid_angles(G))
        s = analytic_coefficients(np.conj(z), 1)
        assert np.max(np.abs(s.coeffs)) <= 1e-15

    def test_mixed_modes(self):
        # 2 + i z^3 with negative modes 5 conj(z) + 0.5 conj(z)^2 on top
        z = np.exp(1j * grid_angles(G))
        samples = 2.0 + 1j * z**3 + 5.0 * np.conj(z) + 0.5 * np.conj(z) ** 2
        s = analytic_coefficients(samples, 3)
        assert np.allclose(s.coeffs, [2.0, 0.0, 0.0, 1j], rtol=0.0, atol=1e-12)


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
            _cauchy_sum(_spectrum(np.cos(grid_angles(G))), 1.0 - 1e-7)

    def test_projection_evaluation_matches_quadrature(self):
        # smooth boundary data: both routes agree to 1e-6 at 64 points
        t = grid_angles(G)
        v = np.exp(0.4 * np.cos(t)) + 1j * np.sin(2 * t) * 0.2
        series = analytic_coefficients(v, 200)
        rng = np.random.default_rng(23)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(1j * rng.uniform(0, TWO_PI, 64))
        direct = _cauchy_sum(_spectrum(v), z)
        series_vals = evaluate_in_disk(series, z)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - series_vals)) <= 1e-6 * scale


class TestCauchy:
    def test_constant_full_circle(self):
        c = _spectrum(np.ones(1 << 12, dtype=complex))
        z = np.array([0.0, 0.3 + 0.4j, -0.9j])
        assert np.max(np.abs(_cauchy_sum(c, z) - 1.0)) <= 1e-12

    def test_conjugate_coordinate_vanishes(self):
        c = _spectrum(np.exp(-1j * grid_angles(12)))
        z = np.array([0.1, 0.5j, -0.4 + 0.2j])
        assert np.max(np.abs(_cauchy_sum(c, z))) <= 1e-12

    def test_coordinate_reproduced(self):
        c = _spectrum(np.exp(1j * grid_angles(12)))
        z = np.array([0.25, -0.3 + 0.1j])
        assert np.max(np.abs(_cauchy_sum(c, z) - z)) <= 1e-12


def dense_cauchy_sum(vals, z):
    """(1/n) sum_m vals_m / (1 - z conj(zeta_m)), summed over the explicit kernel."""
    n = len(vals)
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    z = np.atleast_1d(z)
    return np.sum(vals[None, :] / (1.0 - z[:, None] * np.conj(zeta)[None, :]), axis=1) / n


class TestCauchyOracle:
    # the trapezoid Cauchy sum that flip_check and herglotz_exp use, against
    # the sum over the explicit kernel
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
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        if masked:
            vals = vals * (rng.uniform(size=n) < 0.5)
        phi = rng.uniform(0, TWO_PI, 16)
        r = radius * np.sqrt(rng.uniform(0, 1, 16))
        r[0], r[1], phi[1] = 0.0, radius, 0.0  # z = 0, and z = radius exactly
        z = r * np.exp(1j * phi)
        c = _spectrum(vals)
        got = _cauchy_sum(c, z)
        ref = dense_cauchy_sum(vals, z)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        one = _cauchy_sum(c, z[1])
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
