import numpy as np
import pytest

from bcct.boundary_calculus import AnalyticSeries, _fft_convolve, grid_angles
from bcct.circle_sets import Arc, validate_set
from bcct.cutoff import build_cutoff, boundary_samples
from bcct.errors import IngredientMismatch
from bcct.factors import Atom, InnerFunction, SingularMeasure, outer_from_weight
from bcct.fixtures import (
    monomial,
    point_atom,
    standard_member,
    taper_weight,
    two_gap,
)
from bcct.transforms import (
    apply_backshift_poly,
    backshift_identity,
    build_member,
    flip_check,
    model_space_orthogonality,
    smooth_transform,
    split_transform,
    _exact_coefficients,
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
        c_s, th = _exact_coefficients(m, band)
        r = np.abs(_fft_convolve(c_s, np.conj(th[band::-1]))[band : band + 33])
        scale = np.linalg.norm(c_s) * np.linalg.norm(th[: band + 1])
        assert abs(model_space_orthogonality(m, max_k=32, band=band) - np.max(r)) <= 1e-13 * scale


class TestSplit:
    def test_additivity(self, E):
        m = standard_member("K2", monomial(0), G, k_max=12)
        res = split_transform(m)
        assert res.additivity_residual <= 1e-10

    def test_smooth_piece_decay(self):
        m = standard_member("K2", monomial(0), 16, k_max=14)
        res = split_transform(m, fit_window=(64, 1024))
        assert res.u1_decay <= -3.0

    def test_u2_functional_constants(self, E):
        w = taper_weight(E, G)
        m = standard_member("K2", monomial(0), G, k_max=12)
        res = split_transform(m, weight_values=w.values, max_k=32)
        consts = res.u2_functional_constants
        assert len(consts) == 33
        # fitted constants stabilize: later maxima do not outgrow early ones
        assert np.max(consts[9:]) <= 2.0 * np.max(consts[:9])

    def test_family_guard(self, member_k):
        with pytest.raises(IngredientMismatch):
            split_transform(member_k)
