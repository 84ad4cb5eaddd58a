import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcct.transforms
from bcct.boundary_calculus import (
    AnalyticSeries,
    _fft_convolve,
    _fft_correlate,
    analytic_coefficients,
    grid_angles,
)
from bcct.circle_sets import TWO_PI, Arc, rotate_set, validate_set
from bcct.cutoff import build_cutoff, boundary_samples
from bcct.errors import IngredientMismatch
from bcct.factors import Atom, InnerFunction, SingularMeasure, outer_from_weight
from bcct.fixtures import (
    endpoint_atom,
    monomial,
    point_atom,
    standard_member,
    taper_weight,
    two_gap,
)
from bcct.spaces import annihilator_check
from bcct.transforms import (
    apply_backshift_poly,
    backshift_identity,
    build_member,
    flip_check,
    model_space_orthogonality,
    smooth_transform,
    split_transform,
    _max_orthogonality,
    transform_coefficients_exact,
)

G = 14


@pytest.fixture(scope="module")
def E():
    return two_gap()


@pytest.fixture(scope="module")
def member_k(E):
    return standard_member("K", monomial(0), G, k_max=12)


class TestBuildMember:
    def test_family_k_structure(self, E, member_k):
        # s0 = conj(zeta g W) sampled: rebuild the factors independently
        w = taper_weight(E, G)
        W = outer_from_weight(w)
        g = build_cutoff(E, k_max=12)
        t = grid_angles(G)
        expect = np.conj(np.exp(1j * t) * boundary_samples(g, G) * W.boundary)
        assert np.max(np.abs(member_k.samples - expect)) <= 1e-12

    def test_vanishing_mean(self):
        # the sampled mean sits at the aliasing floor of the grid; the
        # acceptance-scale configuration pushes it below 1e-8
        m = standard_member("K", monomial(0), 16, k_max=10)
        assert abs(np.mean(m.samples)) <= 1e-6

    def test_ingredient_mismatch_wrong_set(self, E):
        other = validate_set([Arc(0.1, 0.6)])
        w = taper_weight(E, G)
        W = outer_from_weight(w)
        g_other = build_cutoff(other, k_max=6)
        with pytest.raises(IngredientMismatch):
            build_member("K", monomial(0), cutoff=g_other, cutoff_set=other, outer=W)

    def test_k1_needs_measure_zero_carrier(self, E):
        g = build_cutoff(E, k_max=6)
        theta = InnerFunction((), SingularMeasure((Atom(1.0, 0.1),)))
        with pytest.raises(IngredientMismatch):
            build_member("K1", monomial(0), cutoff=g, cutoff_set=E, theta=theta,
                         grid_log2=G)

    def test_k1_smooth_across_carrier(self):
        # spectral decay oracle: the coefficients of s drop fast
        m = standard_member("K1", monomial(0), G, k_max=10)
        c = np.fft.fft(m.samples) / m.size
        mags = np.abs(c)
        peak = mags.max()
        band = np.concatenate([mags[2000:4000], mags[-4000:-2000]])
        assert np.max(band) <= 1e-4 * peak

    def test_members_share_the_weight_mask(self, E):
        # one read-only indicator of E per grid, held by the weight and its members
        W = outer_from_weight(taper_weight(E, G))
        g = build_cutoff(E, k_max=6)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
        for family, th in (("K", None), ("K2", theta)):
            m = build_member(family, monomial(0), cutoff=g, cutoff_set=E, outer=W, theta=th)
            assert m.e_mask is W.weight.mask
            assert not m.e_mask.flags.writeable

    def test_degenerate_full_circle_excluded(self):
        with pytest.raises(ValueError):
            validate_set([])  # no gaps means the set is the whole circle


class TestSmoothTransform:
    def test_transform_nonzero(self, member_k):
        res = smooth_transform(member_k, fit_window=(64, 1024))
        assert res.nonzero
        assert res.series.norm_h2() > 1e-4

    def test_linearity_in_p(self, E):
        m0 = standard_member("K", monomial(0), G, k_max=12)
        m1 = standard_member("K", monomial(1), G, k_max=12)
        p_mixed = AnalyticSeries([1.0, 2.0])
        m_mixed = standard_member("K", p_mixed, G, k_max=12)
        s0 = smooth_transform(m0).series.coeffs
        s1 = smooth_transform(m1).series.coeffs
        sm = smooth_transform(m_mixed).series.coeffs
        assert np.max(np.abs(sm - (s0 + 2.0 * s1))) <= 1e-10

    def test_slope_improves_under_refinement(self):
        coarse = smooth_transform(
            standard_member("K", monomial(0), 14, k_max=12), fit_window=(64, 1024)
        ).decay_fit
        fine = smooth_transform(
            standard_member("K", monomial(0), 16, k_max=12), fit_window=(64, 1024)
        ).decay_fit
        assert fine <= coarse + 0.5


class TestSpectrum:
    def test_one_fft_of_the_member(self, monkeypatch):
        # The four checks read one spectrum; only the flip's complement side
        # and the backshift's shifted side take FFTs of their own inputs.
        m = standard_member("K", monomial(0), 10, k_max=8)
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        smooth_transform(m)
        flip_check(m)
        backshift_identity(m, 1)
        annihilator_check(m, k_max=0)
        assert len(calls) == 3

    def test_read_only(self, member_k):
        with pytest.raises(ValueError):
            member_k.spectrum[0] = 1.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 14), st.integers(0, (1 << 14) - 1))
    @example(14, 1)
    @example(12, 37)
    @example(13, (1 << 13) // 3)
    def test_rotation_equivariance(self, log2, j):
        # Rotating E by phi maps s = conj(zeta g W) to e^{-i phi} s(e^{-i phi} zeta),
        # so coefficient r of the Cauchy transform picks up e^{-i (r+1) phi}.
        n = 1 << log2
        phi = TWO_PI * (j % n) / n
        base = standard_member("K", monomial(0), log2, k_max=10)
        rot = standard_member("K", monomial(0), log2, k_max=10, E=rotate_set(two_gap(), phi))
        r = np.arange(n // 2)
        expect = np.exp(-1j * (r + 1) * phi) * base.spectrum[: n // 2]
        err = np.max(np.abs(rot.spectrum[: n // 2] - expect))
        assert err <= 1e-11 * np.max(np.abs(base.spectrum[: n // 2]))


class TestFlip:
    def test_flip_small_at_module_scale(self, member_k):
        # the two quadratures agree at the resolution of this grid;
        # the tight certification runs at the acceptance configuration
        assert flip_check(member_k) <= 1e-2

    def test_flip_coefficient_form(self, member_k):
        # coefficients of the set side equal minus the complement side
        n = member_k.size
        full = np.fft.fft(member_k.samples)[: n // 2] / n
        on_e = np.fft.fft(member_k.samples * member_k.e_mask)[: n // 2] / n
        off_e = full - on_e
        scale = np.max(np.abs(on_e))
        assert np.max(np.abs(on_e + off_e)) <= 2e-2 * scale

    def test_negative_control_mean_offset(self, E, member_k):
        from dataclasses import replace

        bad = replace(member_k, samples=member_k.samples + 0.05)
        assert flip_check(bad) > 1e-2

    def test_family_guard(self):
        m1 = standard_member("K1", monomial(0), G)
        with pytest.raises(IngredientMismatch):
            flip_check(m1)


class TestBackshift:
    def test_first_shift(self, member_k):
        assert backshift_identity(member_k, 1) <= 1e-10

    def test_zero_shift_identity(self, member_k):
        assert backshift_identity(member_k, 0) <= 1e-15

    def test_shift_range(self, member_k):
        for k in range(1, 9):
            assert backshift_identity(member_k, k) <= 1e-10

    def test_polynomial_in_shift_linearity(self, E):
        # p(L) applied to the base transform equals the transform of the
        # member built with p, for p = 1 + 2z
        p = AnalyticSeries([1.0, 2.0])
        base = smooth_transform(standard_member("K", monomial(0), G, k_max=12)).series
        lhs = apply_backshift_poly(base, p).coeffs
        rhs = smooth_transform(standard_member("K", p, G, k_max=12)).series.coeffs
        valid = len(lhs) - p.degree  # the final entries lack shifted input
        assert np.max(np.abs(lhs[:valid] - rhs[:valid])) <= 1e-10


class TestModelSpace:
    def test_theta_one_kills_k1_transform(self):
        F, _ = point_atom()
        g_F = build_cutoff(F, k_max=8)
        m = build_member("K1", monomial(0), cutoff=g_F, cutoff_set=F,
                         theta=InnerFunction(), grid_log2=G)
        series = transform_coefficients_exact(m, band=1024)
        assert series.norm_h2() <= 1e-8

    def test_atomic_theta_orthogonality(self):
        m = standard_member("K1", monomial(0), G)
        assert model_space_orthogonality(m, max_k=32, band=8192) <= 1e-8

    def test_blaschke_theta_orthogonality(self):
        theta = InnerFunction((0.5,))
        m = standard_member("K1", monomial(1), G, theta=theta)
        assert model_space_orthogonality(m, max_k=32, band=4096) <= 1e-8

    def test_k2_endpoint_atom(self):
        # module-scale bound; the acceptance suite certifies 1e-7 at the
        # fine-grid configuration
        m = standard_member("K2", monomial(0), G, k_max=12)
        assert model_space_orthogonality(m, max_k=32, band=1 << 17) <= 1e-4

    def test_theta_coefficients_computed_once(self, monkeypatch):
        m = standard_member("K2", monomial(0), 12, k_max=8)
        bands = []
        coefficients = InnerFunction.coefficients

        def counted(theta, band):
            bands.append(band)
            return coefficients(theta, band)

        monkeypatch.setattr(InnerFunction, "coefficients", counted)
        model_space_orthogonality(m, max_k=32, band=4096)
        assert len(bands) == 1

    @pytest.mark.parametrize("theta", [None, InnerFunction((0.5,))], ids=["atom", "blaschke"])
    def test_lag_sums_match_fft_correlation(self, theta):
        # The full cross-correlation of the transform with theta, by FFT;
        # its rounding error is of order eps |c_s| |theta|, which sets the scale.
        kw = {} if theta is None else {"theta": theta}
        m = standard_member("K2" if theta is None else "K1", monomial(0), 12, k_max=8, **kw)
        band = 4096
        c_s = transform_coefficients_exact(m, band).coeffs
        th = m.theta.coefficients(band)
        r = np.abs(_fft_convolve(c_s, np.conj(th[band::-1]))[band : band + 33])
        scale = np.linalg.norm(c_s) * np.linalg.norm(th[: band + 1])
        assert abs(model_space_orthogonality(m, max_k=32, band=band) - np.max(r)) <= 1e-13 * scale


def _permanence_members(grid_log2):
    # the four K2 members of the permanence check, p = z^0..z^3, on one theta
    E = two_gap()
    W = outer_from_weight(taper_weight(E, grid_log2))
    g = build_cutoff(E, k_max=8)
    theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
    return [
        build_member("K2", monomial(j), cutoff=g, cutoff_set=E, outer=W, theta=theta)
        for j in range(4)
    ]


def _lag_sum_residual(members, max_k, band):
    # The direct lag sums r_k = sum_{m=0}^{band-k} conj(theta_m) c_{m+k},
    # with c_n = sum_j conj(q_j) theta_{n+j} by one FFT convolution per
    # member.  Returns max |r_k| and the scale |c_s| |theta| of its rounding.
    resid, scale = [], 0.0
    for m in members:
        q_band = min(band, m.size // 2 - 1)
        q = analytic_coefficients(m.q_samples, q_band).coeffs
        if m.theta.is_trivial:
            resid.append(abs(q[0]))
            scale = max(scale, abs(q[0]))
            continue
        th = m.theta.coefficients(band + q_band + 1)
        c = _fft_convolve(th, np.conj(q[::-1]))[q_band : q_band + band + 1]
        r = [np.vdot(th[: band + 1 - k], c[k:]) for k in range(min(max_k, band) + 1)]
        resid.append(np.max(np.abs(r)))
        scale = max(scale, np.linalg.norm(c) * np.linalg.norm(th[: band + 1]))
    return max(resid), scale


ORTHOGONALITY_CASES = {
    "one_member": lambda: ([standard_member("K2", monomial(0), 12, k_max=8)], 4096),
    "permanence_members": lambda: (_permanence_members(12), 4096),
    "band_below_max_k": lambda: ([standard_member("K2", monomial(0), 12, k_max=8)], 16),
    # q_band = 2^10/2 - 1 = 511 < band
    "k1_q_band_below_band": lambda: ([standard_member("K1", monomial(0), 10, k_max=8)], 4096),
    "blaschke": lambda: (
        [standard_member("K1", monomial(1), 12, k_max=8, theta=InnerFunction((0.5,)))], 4096),
    "trivial": lambda: (
        [standard_member("K1", monomial(0), 12, k_max=8, theta=InnerFunction())], 1024),
}


class TestAutocorrelationResidual:
    @pytest.mark.parametrize("case", sorted(ORTHOGONALITY_CASES))
    def test_matches_direct_lag_sums(self, case):
        members, band = ORTHOGONALITY_CASES[case]()
        ref, scale = _lag_sum_residual(members, 32, band)
        assert abs(_max_orthogonality(members, 32, band) - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("M", [0, 1, 17, 40, 64])
    def test_correlation_matches_mpmath(self, M):
        # B_l = sum_{m=0}^{M} conj(theta_m) theta_{m+l}, l = 0..band, for one
        # atom of mass 0.3 at angle 0.7 and band 64, with the terms past
        # theta_band absent; theta_n = e^{-0.7 i n} e^{-0.3}
        # (L_n(0.6) - L_{n-1}(0.6)) at 40 digits.
        band = 64
        th = InnerFunction((), SingularMeasure((Atom(0.7, 0.3),))).coefficients(band)
        got = _fft_correlate(th[: M + 1], th, band + 1)
        assert got.shape == (band + 1,)
        with mpmath.workdps(40):
            mass, x = mpmath.mpf(0.3), mpmath.mpf(0.6)
            laguerre = [mpmath.laguerre(n, 0, x) for n in range(band + 1)]
            ref = [mpmath.exp(-mass) * mpmath.expj(-mpmath.mpf(0.7) * n)
                   * (laguerre[n] - (laguerre[n - 1] if n else 0)) for n in range(band + 1)]
            for k in range(band + 1):
                b = mpmath.fsum(
                    mpmath.conj(ref[m]) * ref[m + k] for m in range(min(M, band - k) + 1)
                )
                assert abs(got[k] - complex(b)) <= 1e-14, k

    def test_one_correlation_for_four_members(self, monkeypatch):
        members = _permanence_members(12)
        calls = []

        def counted(a, b, lags):
            calls.append((len(a), len(b), lags))
            return _fft_correlate(a, b, lags)

        monkeypatch.setattr(bcct.transforms, "_fft_correlate", counted)
        _max_orthogonality(members, 32, 4096)
        # theta's autocorrelation over m <= band - 32, lags 0..q_band + 32
        assert calls == [(4096 - 32 + 1, 4096 + 2047 + 2, 2047 + 33)]

    def test_nan_theta_coefficients_propagate(self, monkeypatch):
        m = standard_member("K2", monomial(0), 12, k_max=8)
        coefficients = InnerFunction.coefficients

        def with_nan(theta, band):
            c = coefficients(theta, band).copy()
            c[5] = np.nan
            return c

        monkeypatch.setattr(InnerFunction, "coefficients", with_nan)
        assert math.isnan(model_space_orthogonality(m, max_k=32, band=4096))


class TestSplit:
    def test_additivity(self, E):
        m = standard_member("K2", monomial(0), G, k_max=12)
        res = split_transform(m)
        assert res.additivity_residual <= 1e-10

    def test_smooth_piece_decay(self):
        m = standard_member("K2", monomial(0), 16, k_max=14)
        res = split_transform(m)
        assert res.u1_decay <= -3.0

    def test_u2_functional_constants(self, E):
        w = taper_weight(E, G)
        m = standard_member("K2", monomial(0), G, k_max=12)
        res = split_transform(m, weight_values=w.values)
        consts = res.u2_functional_constants
        assert len(consts) == 33
        # fitted constants stabilize: later maxima do not outgrow early ones
        assert np.max(consts[9:]) <= 2.0 * np.max(consts[:9])

    def test_family_guard(self, member_k):
        with pytest.raises(IngredientMismatch):
            split_transform(member_k)
