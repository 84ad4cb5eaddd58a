import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcct
from bcct.boundary_calculus import (
    AnalyticSeries,
    _cauchy_sum,
    _fast_length,
    _fft_convolve,
    _fft_correlate,
    _spectrum,
    analytic_coefficients,
    conjugate_function,
    evaluate_in_disk,
    fejer_means,
    grid_angles,
    grid_points,
    indicator_mask,
    sup_norm_bound,
    synthesize_analytic,
)
from bcct.circle_sets import TWO_PI, Arc, validate_set
from bcct.errors import BandTooLarge, OutsideDomain
from bcct.factors import _atomic_inner_coefficients
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


def _bits(x):
    """The 64-bit words of a float or complex array, so that np.array_equal
    tells -0.0 from +0.0."""
    return np.ascontiguousarray(x).view(np.uint64)


class TestSameBitsInFewerPasses:
    """The transforms apply the 1/n scaling themselves (norm="forward"), and
    the grid arrays are built in place.  On power-of-two lengths each result
    is, bit for bit, the expression with separate passes that it replaced."""

    @pytest.mark.parametrize("log2", range(5, 17))
    def test_grid_angles_and_points(self, log2):
        n = 1 << log2
        t = TWO_PI * np.arange(n) / n
        assert np.array_equal(_bits(grid_angles(log2)), _bits(t))
        assert np.array_equal(_bits(grid_points(log2)), _bits(np.exp(1j * t)))

    @pytest.mark.parametrize("log2", range(5, 17))
    def test_spectrum_is_fft_over_n(self, log2):
        n = 1 << log2
        rng = np.random.default_rng(log2)
        # magnitudes from 1e-300 to 1; scaled by 1e-5 more, the spectrum
        # reaches the subnormal range, where a product and a quotient still
        # round the same exact value
        x = 10.0 ** rng.uniform(-300.0, 0.0, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        for v in (x, x.real, 1e-5 * x):
            assert np.array_equal(_bits(_spectrum(v)), _bits(np.fft.fft(v) / n))

    @pytest.mark.parametrize("log2", range(5, 17))
    def test_synthesis_is_ifft_times_n(self, log2):
        n = 1 << log2
        coeffs = _random_complex(np.random.default_rng(log2), n // 2)
        padded = np.zeros(n, dtype=complex)
        padded[: n // 2] = coeffs
        assert np.array_equal(_bits(synthesize_analytic(AnalyticSeries(coeffs), log2)),
                              _bits(np.fft.ifft(padded) * n))


class TestSpectrumInPlace:
    """A masked product built only to be transformed is transformed in its
    own buffer; the result is the out-of-place transform bit for bit."""

    @pytest.mark.parametrize("n", [1 << 10, 1 << 16, 1 << 21, 3 * 5 * 7 * (1 << 10)])
    def test_masked_spectrum_is_the_out_of_place_one(self, n):
        rng = np.random.default_rng(n)
        values = _random_complex(rng, n)
        mask = rng.random(n) < 0.7
        kept = values.copy()
        got = _spectrum(values, mask)
        assert np.array_equal(_bits(got), _bits(np.fft.fft(values * mask, norm="forward")))
        assert np.array_equal(_bits(values), _bits(kept))  # the input is untouched
        with pytest.raises(ValueError):
            got[0] = 0.0
        series = analytic_coefficients(values, 17, mask=~mask)
        assert np.array_equal(_bits(series.coeffs), _bits(analytic_coefficients(values * ~mask, 17).coeffs))


def _sparse_series(rng, n, degrees):
    """A series with unit-size coefficients at the given degrees, 0 elsewhere."""
    c = np.zeros(max(degrees) + 1, dtype=complex)
    c[list(degrees)] = _random_complex(rng, len(degrees))
    return AnalyticSeries(c)


def _ifft_samples(series, log2):
    padded = np.zeros(1 << log2, dtype=complex)
    padded[: len(series.coeffs)] = series.coeffs
    return np.fft.ifft(padded) * (1 << log2)


class TestSparseSynthesis:
    """A monomial is formed from root tables, any other series by the
    inverse FFT.  The tables agree with the inverse FFT to 16 eps |f_k|; at
    2^21, measured, within 1.8e-15 for a unit coefficient."""

    @pytest.mark.parametrize("log2", range(5, 22))
    def test_monomials(self, log2):
        n = 1 << log2
        rng = np.random.default_rng(log2)
        for k in sorted({0, 1, 2, 3, 5, n // 4 + 1, n // 2 - 1}):
            series = _sparse_series(rng, n, [k])
            got = synthesize_analytic(series, log2)
            tol = 16 * np.finfo(float).eps * abs(series.coeffs[k])
            assert np.max(np.abs(got - _ifft_samples(series, log2))) <= tol

    @pytest.mark.parametrize("log2", range(5, 22))
    def test_two_or_more_terms_take_the_inverse_fft(self, log2):
        n = 1 << log2
        rng = np.random.default_rng(log2)
        for count in (2, 3, log2 - 1, log2):
            series = _sparse_series(rng, n, rng.choice(n // 2, size=count, replace=False))
            assert np.array_equal(_bits(synthesize_analytic(series, log2)), _bits(_ifft_samples(series, log2)))

    def test_zero_series_and_roots_of_unity(self):
        assert np.array_equal(synthesize_analytic(AnalyticSeries([0.0, 0.0]), 6), np.zeros(64))
        # z^1 is the grid points themselves, to rounding: a product of two
        # roots, each within about 2 eps of exact
        z = synthesize_analytic(AnalyticSeries([0.0, 1.0]), 12)
        assert np.max(np.abs(z - grid_points(12))) <= 8 * np.finfo(float).eps

    def test_degree_above_nyquist(self):
        with pytest.raises(BandTooLarge):
            synthesize_analytic(AnalyticSeries(np.eye(1, 9, 8)[0]), 4)


def _is_11_smooth(m):
    for p in (2, 3, 5, 7, 11):
        while m % p == 0:
            m //= p
    return m == 1


def _random_complex(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class TestFftLengths:
    def test_least_11_smooth_length(self):
        # brute force: count up from n to the first 2^a 3^b 5^c 7^d 11^e
        for n in range(1, 4097):
            m = n
            while not _is_11_smooth(m):
                m += 1
            assert _fast_length(n) == m, n
            assert m <= 1 << (n - 1).bit_length(), n

    @pytest.mark.parametrize(
        "n, m",
        [
            (270337, 271040),  # verify-default's autocorrelation, 2^6 5 7 11^2
            (163841, 164025),  # K1 at band 2^17, 3^8 5^2
            (294913, 295245),  # permanence on the carrier, 3^10 5
            (98305, 98415),  # permanence off the carrier, 3^9 5
            (1179649, 1180980),  # K2 at band 2^20, 2^2 3^10 5
        ],
    )
    def test_workload_lengths(self, n, m):
        assert _fast_length(n) == m
        assert m < 1 << (n - 1).bit_length()  # below the power of two

    @pytest.mark.parametrize("la, lb", [(13, 84), (1, 1), (5, 6), (40, 61)])
    def test_convolve_matches_numpy(self, la, lb):
        # the summed lengths 97, 2, 11 and 101 are prime; 97 and 101 are
        # not 11-smooth, so their transforms are 98 and 105 points long
        rng = np.random.default_rng(la * lb)
        a, b = _random_complex(rng, la), _random_complex(rng, lb)
        got = _fft_convolve(a, b)
        ref = np.convolve(a, b)
        assert len(got) == _fast_length(la + lb)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got[: len(ref)] - ref)) <= 1e-13 * scale
        assert np.max(np.abs(got[len(ref) :]), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "la, lb, lags",
        [
            (13, 84, 5),  # transform length len(b) = 84 = 2^2 3 7
            (40, 50, 20),  # len(a) + lags - 1 = 59 > len(b): terms past b absent
            (97, 97, 97),  # 193 -> 196 points; the last lag keeps one term
            (7, 3, 4),  # a longer than b, 10 points
        ],
    )
    def test_correlate_matches_direct_sum(self, la, lb, lags):
        rng = np.random.default_rng(la + lb + lags)
        a, b = _random_complex(rng, la), _random_complex(rng, lb)
        got = _fft_correlate(a, b, lags)
        assert got.shape == (lags,)
        ref = np.array(
            [sum(np.conj(a[m]) * b[m + l] for m in range(la) if m + l < lb) for l in range(lags)]
        )
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("la, lb, lags", [(13, 84, 5), (40, 50, 20), (97, 97, 97), (7, 3, 4)])
    def test_real_correlate_matches_direct_sum_and_complex_path(self, la, lb, lags):
        # the lengths of test_correlate_matches_direct_sum, on real data
        rng = np.random.default_rng(la + lb + lags)
        a, b = rng.standard_normal(la), rng.standard_normal(lb)
        got = _fft_correlate(a, b, lags)
        assert got.dtype == np.float64 and got.shape == (lags,)
        ref = np.array(
            [math.fsum(a[m] * b[m + l] for m in range(la) if m + l < lb) for l in range(lags)]
        )
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale
        via_complex = _fft_correlate(a.astype(complex), b.astype(complex), lags)
        assert np.max(np.abs(got - via_complex)) <= 1e-14 * scale

    def test_real_correlate_at_an_odd_length(self):
        # len(b) = 75 = 3 5^2 is its own transform length, an odd one, which
        # irfft must be given: by default it would return 74 points
        rng = np.random.default_rng(75)
        a, b = rng.standard_normal(20), rng.standard_normal(75)
        assert _fast_length(75) == 75
        got = _fft_correlate(a, b, 56)
        ref = np.array([np.dot(a, b[l : l + 20]) for l in range(56)])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)


def _direct_correlation(a, b, lags):
    """sum_m conj(a_m) b_{m+l} for l < lags, terms past b absent; each lag's
    real and imaginary parts summed exactly by math.fsum."""
    out = np.zeros(lags, dtype=complex)
    for l in range(lags):
        n = max(0, min(len(a), len(b) - l))
        terms = np.conj(a[:n]) * b[l : l + n]
        out[l] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


class TestBlockCorrelation:
    """_fft_correlate runs over blocks of B = _fast_length(lags) entries of a."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize(
        "la, lb, lags",
        [
            (50, 60, 1),  # B = 1: fifty blocks of one entry
            (50, 80, 7),  # B = 7: eight blocks, the last of one entry
            (200, 300, 75),  # B = 75, an odd block length; P = 150
            (31, 45, 9),  # B = 9, odd; four blocks
            (100, 60, 30),  # b shorter than a: whole blocks of b absent
            (100, 110, 30),  # len(b) < len(a) + lags - 1: the top lags lose terms
            (20, 5000, 12),  # b far longer than len(a) + lags
        ],
    )
    def test_blocks_match_direct_sum(self, la, lb, lags, kind):
        rng = np.random.default_rng(la * lb + lags)
        if kind == "real":
            a, b = rng.standard_normal(la), rng.standard_normal(lb)
        else:
            a, b = _random_complex(rng, la), _random_complex(rng, lb)
        got = _fft_correlate(a, b, lags)
        assert got.shape == (lags,)
        assert got.dtype == (np.float64 if kind == "real" else np.complex128)
        ref = _direct_correlation(a, b, lags)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("copy", [False, True])
    def test_prefix_matches_direct_sum(self, kind, copy):
        # a = b[:97] with B = 35: blocks 0 and 1 reuse b's spectra (as views
        # of b or as an equal copy), the last block of 27 entries does not
        rng = np.random.default_rng(97)
        b = rng.standard_normal(140) if kind == "real" else _random_complex(rng, 140)
        a = b[:97].copy() if copy else b[:97]
        got = _fft_correlate(a, b, 34)
        ref = _direct_correlation(a, b, 34)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_prefix_transforms_each_block_of_b_once(self, monkeypatch):
        # b is read up to len(a) + lags - 1 = 333 entries: blocks 0..9 of
        # B = 35.  a = b[:300] has eight whole blocks, equal to b's, and a
        # last block of 20 entries, the one transform of a
        rng = np.random.default_rng(300)
        b = rng.standard_normal(400)
        a, lags, B = b[:300], 34, 35
        assert _fast_length(lags) == B
        inputs = []
        rfft = np.fft.rfft

        def spy(x, n=None, *args, **kwargs):
            inputs.append(np.array(x))
            assert n == 2 * B
            return rfft(x, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        _fft_correlate(a, b, lags)
        blocks = [b[lo : min(lo + B, 333)] for lo in range(0, 333, B)]
        assert len(blocks) == 10
        for block in blocks:
            assert sum(np.array_equal(x, block) for x in inputs) == 1
        assert len(inputs) == len(blocks) + 1
        assert any(np.array_equal(x, a[280:]) for x in inputs)

    def test_k2_shape_matches_one_shot(self):
        # model-space-deep's K2 job: theta's autocorrelation over
        # m <= 2^20 - 32, lags 0..2^17 + 32, eight blocks of 131220 entries;
        # the reference is one real transform pair over the whole band
        a = _atomic_inner_coefficients(0.1, (1 << 20) + (1 << 17) - 1)
        head, lags = a[: (1 << 20) - 31], 131104
        got = _fft_correlate(head, a, lags)
        n = _fast_length(max(len(a), len(head) + lags - 1))
        ref = np.fft.irfft(np.conj(np.fft.rfft(head, n)) * np.fft.rfft(a, n), n)[:lags]
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.linalg.norm(head) * np.linalg.norm(a)

    def test_memory_follows_the_lags(self):
        # With the lags fixed, the traced peak does not grow with len(a): the
        # loop holds a few spectra of 2B points, about 12 MB here.
        rng = np.random.default_rng(18)
        lags, peaks = 131104, []
        for la in ((1 << 18) - 31, (1 << 20) - 31):
            b = rng.standard_normal(la + lags)
            tracemalloc.start()
            try:
                _fft_correlate(b[:la], b, lags)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * min(peaks)


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

    @pytest.mark.parametrize(
        "z", [math.nan, complex(math.nan, 0.0), np.array([0.5, math.nan, 0.2j])],
        ids=["nan", "complex_nan", "array_with_nan"],
    )
    def test_nan_point_outside_domain(self, z):
        # a NaN point fails |z| <= r as well as |z| > r
        with pytest.raises(OutsideDomain):
            evaluate_in_disk(AnalyticSeries([1.0, 2.0]), z)
        with pytest.raises(OutsideDomain):
            _cauchy_sum(_spectrum(np.cos(grid_angles(G))), z)

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

    @pytest.mark.parametrize("log2, k", [(8, 0), (8, 1), (8, 255), (12, 3), (12, 3900)])
    def test_shift_reads_the_rolled_spectrum(self, log2, k):
        # the sum for conj(zeta)^k v from v's own spectrum is the sum of
        # np.roll(c, -k), bit for bit: its head is read from index k on and
        # gathered round to c_0 past the end.  At 2^8 every term is kept, so
        # each k >= 1 wraps; at 2^12, k = 3900 does.
        rng = np.random.default_rng(log2 + k)
        n = 1 << log2
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        c = _spectrum(vals)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 8)) * np.exp(1j * rng.uniform(0, TWO_PI, 8))
        got = _cauchy_sum(c, z, k)
        assert np.array_equal(got, _cauchy_sum(np.roll(c, -k), z))
        # against the explicit kernel, on the sum's own scale mean|v| / (1 - |z|)
        ref = dense_cauchy_sum(vals * np.exp(-1j * k * grid_angles(log2)), z)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.mean(np.abs(vals)) / (1.0 - 0.9)


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
