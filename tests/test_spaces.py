import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcct.boundary_calculus import AnalyticSeries, synthesize_analytic
from bcct.errors import LengthMismatch, RangeExhausted, WeightNotLogIntegrable
from bcct.fixtures import monomial, standard_member, taper_weight, two_gap
from bcct.factors import boundary_weight
from bcct.circle_sets import TWO_PI, Arc, validate_set
from bcct.spaces import (
    DualSequence,
    WeightSequence,
    annihilator_check,
    d_space_gram,
    moments_beta,
    moments_beta_quadrature,
    pairing,
    rapid_weight,
    toeplitz_truncation,
    weighted_operator_norm,
    x_norm,
)

G = 14


def oracle_k_indices(coeffs, n_max):
    """Independent direct-tail-summation construction of the K(N) indices."""
    mags = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    d = len(mags) - 1
    out = []
    for N in range(1, n_max + 1):
        found = None
        for K in range(d + 2):
            tail = sum((k**N) * mags[k] for k in range(K, d + 1))
            if tail < 2.0 ** (-N):
                found = K
                break
        out.append(found)
    return out


class TestRapidWeight:
    def test_geometric_coefficients_against_oracle(self):
        coeffs = AnalyticSeries(2.0 ** -np.arange(40, dtype=float))
        seq = rapid_weight(coeffs, 4)
        oracle = oracle_k_indices(coeffs.coeffs, 4)
        assert list(seq.k_indices) == oracle
        total = float(np.sum(seq.alpha * np.abs(coeffs.coeffs) ** 2))
        assert total <= coeffs.norm_h2() ** 2 + 1.0 + 1e-12
        assert seq.increasing

    def test_unit_vector_degenerate_tails(self):
        coeffs = AnalyticSeries(np.eye(1, 32, 0).ravel())
        seq = rapid_weight(coeffs, 4)
        k = np.arange(32, dtype=float)
        cap = k**np.sqrt(k)
        cap[0] = 1.0
        expect = np.minimum(np.maximum(k, 0.0) ** 4, cap)
        expect[0] = 1.0
        assert np.allclose(seq.alpha[1:], expect[1:], rtol=1e-12)
        assert seq.increasing

    def test_growth_cap(self):
        coeffs = AnalyticSeries(2.0 ** -np.arange(64, dtype=float))
        seq = rapid_weight(coeffs, 6)
        k = np.arange(2, 64, dtype=float)
        assert np.all(seq.alpha[2:] <= k**np.sqrt(k) * (1 + 1e-12))
        assert seq.root_limit_certified

    def test_rapid_orders_flag(self):
        coeffs = AnalyticSeries(2.0 ** -np.arange(128, dtype=float))
        seq = rapid_weight(coeffs, 4)
        assert seq.rapid_orders_certified >= 3

    def test_range_exhausted(self):
        heavy = AnalyticSeries(np.ones(8))
        with pytest.raises(RangeExhausted):
            rapid_weight(heavy, 6)


class TestNormsAndPairing:
    def test_monomial_norm(self):
        seq = WeightSequence(np.array([1.0, 4.0, 9.0]))
        assert x_norm(monomial(2), seq) == pytest.approx(3.0)

    def test_unit_weights_recover_h2(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        f = AnalyticSeries(c)
        assert x_norm(f, np.ones(8)) == pytest.approx(f.norm_h2())

    def test_pythagoras_disjoint_support(self):
        seq = WeightSequence(np.arange(1.0, 9.0))
        f = AnalyticSeries([1.0, 0.0, 2.0, 0.0])
        g = AnalyticSeries([0.0, 3.0, 0.0, 1.0])
        fg = AnalyticSeries(f.coeffs + g.coeffs)
        assert x_norm(fg, seq) ** 2 == pytest.approx(
            x_norm(f, seq) ** 2 + x_norm(g, seq) ** 2
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            x_norm(AnalyticSeries(np.ones(5)), np.ones(3))

    def test_kronecker_pairing(self):
        assert pairing(monomial(3), monomial(3)) == pytest.approx(1.0)
        assert pairing(monomial(2), monomial(3)) == pytest.approx(0.0)

    def test_dual_termwise_product(self):
        seq = WeightSequence(np.array([1.0, 2.0, 5.0]))
        dual = DualSequence(seq)
        assert np.allclose(seq.alpha * dual.alpha, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cauchy_schwarz_duality(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        alpha = WeightSequence(np.exp(rng.uniform(-2, 2, n)))
        f = AnalyticSeries(rng.normal(size=n) + 1j * rng.normal(size=n))
        g = AnalyticSeries(rng.normal(size=n) + 1j * rng.normal(size=n))
        lhs = abs(pairing(f, g))
        rhs = x_norm(f, alpha) * x_norm(g, DualSequence(alpha))
        assert lhs <= rhs * (1 + 1e-12)

    def test_pairing_matches_grid_inner_product(self):
        rng = np.random.default_rng(9)
        f = AnalyticSeries(rng.normal(size=33) + 1j * rng.normal(size=33))
        g = AnalyticSeries(rng.normal(size=17) + 1j * rng.normal(size=17))
        n = 1 << 12
        fv = synthesize_analytic(f, 12)
        gv = synthesize_analytic(g, 12)
        grid_ip = complex(np.sum(fv * np.conj(gv)) / n)
        assert abs(pairing(f, g) - grid_ip) <= 1e-10


class TestToeplitz:
    def test_backward_shift_contraction(self):
        seq = rapid_weight(AnalyticSeries(2.0 ** -np.arange(80, dtype=float)), 4)
        M = toeplitz_truncation(monomial(1), 64, "co-analytic")
        assert np.allclose(M, np.eye(65, k=1))
        assert weighted_operator_norm(M, seq) <= 1.0 + 1e-12

    def test_constant_symbol(self):
        M = toeplitz_truncation(AnalyticSeries([2.5]), 8, "multiplier")
        assert np.allclose(M, 2.5 * np.eye(9))
        assert weighted_operator_norm(M, np.ones(9)) == pytest.approx(2.5)

    def test_random_symbols_bounded_by_sup(self):
        from bcct.boundary_calculus import fejer_means, sup_norm_bound

        rng = np.random.default_rng(4)
        seq = rapid_weight(AnalyticSeries(2.0 ** -np.arange(80, dtype=float)), 4)
        dual = DualSequence(seq)
        for _ in range(3):
            raw = AnalyticSeries(rng.normal(size=65) + 1j * rng.normal(size=65))
            h = fejer_means(raw, 64)
            sup = sup_norm_bound(h, 14)
            co = weighted_operator_norm(toeplitz_truncation(h, 64, "co-analytic"), seq)
            mu = weighted_operator_norm(toeplitz_truncation(h, 64, "multiplier"), dual)
            assert co <= sup + 1e-8
            assert mu <= sup + 1e-8


@pytest.fixture(scope="module")
def k_member():
    return standard_member("K", monomial(0), G, k_max=12)


class TestAnnihilator:

    def test_k_zero(self, k_member):
        assert annihilator_check(k_member, k_max=0)[0] <= 1e-8

    def test_all_k(self, k_member):
        assert np.max(annihilator_check(k_member, k_max=32)) <= 1e-7

    def test_negative_control(self, k_member):
        resid = annihilator_check(k_member, k_max=1, perturbation=monomial(1))
        assert resid[1] == pytest.approx(1.0, abs=1e-6)


class TestMoments:
    def test_closed_forms(self):
        b1 = moments_beta(1.0, 16)
        k = np.arange(17, dtype=float)
        assert np.allclose(b1, 1.0 / ((k + 1) * (k + 2)), rtol=1e-13)
        b0 = moments_beta(0.0, 16)
        assert np.allclose(b0, 1.0 / (k + 1), rtol=1e-13)

    def test_recursion(self):
        for C in (0.0, 1.0, 2.5):
            b = moments_beta(C, 64)
            k = np.arange(64, dtype=float)
            lhs = b[1:] / b[:-1]
            rhs = (k + 1) / (k + C + 2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_quadrature_cross_check(self):
        for C in (0.0, 1.0, 2.5):
            exact = moments_beta(C, 32)
            quad = moments_beta_quadrature(C, 32)
            assert np.max(np.abs(exact - quad) / exact) <= 1e-8

    def test_tail_ratio_stabilizes(self):
        k = np.arange(64, 1025)
        for C in (0.0, 1.0, 2.5):
            vals = moments_beta(C, 1024)[64:] * k.astype(float) ** (C + 1)
            center = math.exp(np.mean(np.log(vals)))
            assert np.max(np.abs(vals / center - 1.0)) <= 0.10

    def test_tail_ratio_anchored_for_small_exponents(self):
        k = np.arange(64, 1025)
        for C in (0.0, 1.0):
            vals = moments_beta(C, 1024)[64:] * k.astype(float) ** (C + 1)
            assert np.max(np.abs(vals / math.gamma(C + 1) - 1.0)) <= 0.10

    def test_domain(self):
        with pytest.raises(ValueError):
            moments_beta(-1.0, 4)


class TestGram:
    def test_zero_weight_rejected(self):
        E = two_gap()
        with pytest.raises(WeightNotLogIntegrable):
            boundary_weight(E, 0.0, 10)

    def test_near_full_circle_identity(self):
        # a sub-cell gap: the snapped indicator covers the whole grid and
        # the monomial Gram is exactly the identity, so G = 2 I
        E = validate_set([Arc(0.0, 0.25 * TWO_PI / (1 << 10))])
        w = boundary_weight(E, 1.0, 10)
        Gm = d_space_gram(np.ones(9), w, 8)
        assert np.max(np.abs(Gm - 2.0 * np.eye(9))) <= 1e-12

    def test_positive_definite(self):
        E = two_gap()
        w = taper_weight(E, 12)
        seq = rapid_weight(AnalyticSeries(2.0 ** -np.arange(40, dtype=float)), 4)
        Gm = d_space_gram(DualSequence(seq), w, 16)
        eigs = np.linalg.eigvalsh(Gm)
        assert eigs.min() > 0.0

    def test_h2_embedding_reproduces_coefficients(self):
        E = two_gap()
        w = taper_weight(E, 12)
        alpha_inv = 1.0 / (1.0 + np.arange(25, dtype=float)) ** 2
        d = 12
        Gm = d_space_gram(alpha_inv, w, d)
        rng = np.random.default_rng(3)
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        n = 1 << w.grid_log2
        hatw = np.fft.fft(np.where(w.mask, w.values, 0.0)) / n
        rhs = np.zeros(d + 1, dtype=complex)
        for j in range(d + 1):
            if j < len(f):
                rhs[j] += alpha_inv[j] * f[j]
            for k in range(len(f)):
                rhs[j] += f[k] * hatw[(j - k) % n]
        # rhs_j pairs (f, f) against the j-th tuple, i.e. against the second
        # slot of the Gram entries, so the solve runs on the conjugate matrix
        sol = np.linalg.solve(np.conj(Gm), rhs)
        expect = np.concatenate([f, np.zeros(d + 1 - len(f))])
        assert np.max(np.abs(sol - expect)) <= 1e-8


class TestMeasureMu:
    def test_build_and_spread(self):
        E = two_gap()
        w = taper_weight(E, 10)
        from bcct.spaces import MeasureMu

        mu = MeasureMu.build(1.0, w, k_max=1024)
        assert mu.betas[0] == pytest.approx(0.5)
        assert mu.tail_ratio_spread() <= 0.10
