import mpmath
import numpy as np
import pytest

from bcct.circle_sets import TWO_PI
from bcct.dbr import (
    build_symbol,
    j_relation_check,
    j_relation_residuals,
    kernel_difference_psd,
    kernel_eval,
    kernel_tuple,
    permanence_functional_check,
    restricted_symbol,
)
from bcct.errors import NotADivisor
from bcct.factors import InnerFunction, SingularMeasure
from bcct.fixtures import (
    const_weight,
    dbr_divisor_pair,
    dbr_symbol,
    e_arc_subset,
    endpoint_atom,
    interior_gap_atom,
    geometric_gaps,
    taper_weight,
    two_gap,
)
from bcct.transforms import interior_lattice

G = 13


class TestKernel:
    def test_zero_symbol_gives_szego(self):
        K = lambda z: np.zeros_like(np.asarray(z, dtype=complex))
        lam, z = 0.3 + 0.1j, -0.2 + 0.45j
        assert kernel_eval(K, lam, z) == pytest.approx(
            1.0 / (1.0 - np.conj(lam) * z), abs=1e-15
        )

    def test_center_with_vanishing_symbol_is_one(self):
        K = lambda z: 0.7 * np.asarray(z, dtype=complex)
        assert kernel_eval(K, 0.0, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_hermitian_symmetry(self):
        b = dbr_symbol(G)
        K = b.eval
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam, z = [complex(*p) * 0.7 for p in rng.uniform(-1, 1, (2, 2))]
            left = kernel_eval(K, lam, z)
            right = np.conj(kernel_eval(K, z, lam))
            assert left == pytest.approx(right, abs=1e-12)

    def test_diagonal_nonnegative_and_matches_formula(self):
        b = dbr_symbol(G)
        K = b.eval
        rng = np.random.default_rng(1)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 1000)) * np.exp(1j * rng.uniform(0, TWO_PI, 1000))
        vals = np.asarray(b.eval(z))
        diag = np.real(kernel_eval(K, z, z))
        expect = (1.0 - np.abs(vals) ** 2) / (1.0 - np.abs(z) ** 2)
        assert np.min(diag) >= 0.0
        assert np.max(np.abs(diag - expect)) <= 1e-10

    def test_symbol_invariants(self):
        b = dbr_symbol(G)
        assert b.extreme_flagged
        assert np.max(np.abs(b.delta**2 + np.abs(b.boundary) ** 2 - 1.0)) <= 1e-10
        assert np.max(np.abs(b.boundary)) <= 1.0 + 1e-12


class TestKernelDifference:
    def test_same_symbol_zero_matrix(self):
        b = dbr_symbol(G)
        assert abs(kernel_difference_psd(b, b)) <= 1e-12

    def test_divisor_recipe_psd(self):
        b, b_n = dbr_divisor_pair(G)
        assert kernel_difference_psd(b, b_n) >= -1e-10

    def test_outer_only_divisor(self):
        # divisor that keeps the atom but restricts the outer modulus
        b = dbr_symbol(G)
        sub = e_arc_subset(b.support, 1)
        b_n = restricted_symbol(b, sub)
        assert kernel_difference_psd(b, b_n) >= -1e-10

    def test_points_outside_open_disk_rejected(self):
        b = dbr_symbol(G)
        with pytest.raises(ValueError):
            kernel_eval(b.eval, np.array([0.5, 1.0 + 0j]), 0.5)

    def test_least_eigenvalue_mpmath_oracle(self):
        # Entry (i, j) of the Gram difference is
        # (conj(b_n(z_i)) b_n(z_j) - conj(b(z_i)) b(z_j)) / (1 - conj(z_i) z_j),
        # rebuilt at 40 digits from the same symbol values.
        b, b_n = dbr_divisor_pair(14)
        pts = interior_lattice(32, 0.85)
        with mpmath.workdps(40):
            z = [mpmath.mpc(p) for p in pts]
            vb = [mpmath.mpc(v) for v in b.eval(pts)]
            vn = [mpmath.mpc(v) for v in b_n.eval(pts)]
            gram = mpmath.matrix(32, 32)
            for i in range(32):
                for j in range(32):
                    num = mpmath.conj(vn[i]) * vn[j] - mpmath.conj(vb[i]) * vb[j]
                    gram[i, j] = num / (1 - mpmath.conj(z[i]) * z[j])
            oracle = float(min(mpmath.eigh(gram, eigvals_only=True)))
        assert abs(kernel_difference_psd(b, b_n) - oracle) <= 1e-13

    def test_swapped_roles_fail(self):
        b, b_n = dbr_divisor_pair(G)
        with pytest.raises(NotADivisor):
            kernel_difference_psd(b_n, b)

    def test_pointwise_convergence_proxy(self):
        # |b_n - b| decreases at fixed interior points as the kept part grows
        E = geometric_gaps(3)
        nu = SingularMeasure((endpoint_atom(E, 0.08, "K"),))
        theta = InnerFunction((), nu)
        b = build_symbol(theta, const_weight(E, G, 0.5))
        pts = interior_lattice(20, 0.7)
        gaps = []
        from bcct.fixtures import _e_arcs
        from bcct.circle_sets import Arc, validate_set

        arcs = _e_arcs(E)
        prev = None
        errs = []
        for keep in range(1, len(arcs) + 1):
            if keep == len(arcs):
                sub = E
            else:
                # complement of the first `keep` arcs of E
                kept = arcs[:keep]
                tail_start = kept[-1][0] + kept[-1][1]
                sub = validate_set([Arc(tail_start, kept[0][0] + TWO_PI)])
            b_n = restricted_symbol(b, sub, inner_part=InnerFunction() if keep < len(arcs) else theta)
            errs.append(float(np.max(np.abs(np.asarray(b_n.eval(pts)) - np.asarray(b.eval(pts))))))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-10


class TestJRelation:
    def test_fejer_tuple_residuals(self):
        b = dbr_symbol(G)
        rep = j_relation_check(b, lam=0.3, k_max=32)
        assert rep.annihilator_residual <= 1e-8
        assert rep.direct_residual <= 1e-8

    def test_blaschke_inner_direct(self):
        # inner symbol: the relation reduces to membership in the model space
        E = two_gap()
        theta = InnerFunction((0.5, -0.3 + 0.2j))
        b = build_symbol(theta, const_weight(E, G, 1.0))
        # unimodular up to rounding; the square root amplifies eps to ~1e-8
        assert np.max(b.delta) <= 1e-7
        rep = j_relation_check(b, lam=0.3, k_max=32, mode="direct")
        assert rep.annihilator_residual <= 1e-8
        assert rep.direct_residual <= 1e-8

    def test_zero_tuple(self):
        b = dbr_symbol(G)
        n = b.size
        ann, direct = j_relation_residuals(
            b.boundary, b.delta, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex),
            k_max=8, band=n // 2 - 1,
        )
        assert ann == 0.0 and direct == 0.0

    def test_tuple_construction_consistency(self):
        b = dbr_symbol(G)
        n = b.size
        bc = np.fft.fft(b.boundary)[: n // 8 + 1] / n
        f, g = kernel_tuple(bc, b.delta, 0.25, b.grid_log2)
        assert f.shape == (n,) and g.shape == (n,)


class TestPermanence:
    def test_trivial_inner(self):
        E = two_gap()
        w = taper_weight(E, G)
        rep = permanence_functional_check(InnerFunction(), E, w)
        assert rep.trivial
        assert rep.orthogonality_residual <= 1e-4

    def test_atom_on_carrier_stable(self):
        # module-scale run; the acceptance configuration certifies 1e-7
        E = two_gap()
        w = taper_weight(E, 14)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
        rep = permanence_functional_check(theta, E, w, cutoff_kmax=12, orth_band=1 << 17)
        assert rep.orthogonality_residual <= 1e-4
        assert rep.alpha_orders >= 3
        assert rep.stable_within(2.0)

    def test_theta_coefficients_once_for_all_members(self, monkeypatch):
        from bcct.cutoff import build_cutoff
        from bcct.factors import outer_from_weight
        from bcct.fixtures import monomial
        from bcct.transforms import build_member, model_space_orthogonality

        E = two_gap()
        w = taper_weight(E, 12)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
        W = outer_from_weight(w)
        gE = build_cutoff(E, k_max=8)
        separate = max(
            model_space_orthogonality(
                build_member("K2", monomial(j), cutoff=gE, cutoff_set=E, outer=W, theta=theta),
                max_k=32,
                band=4096,
            )
            for j in range(4)
        )
        calls = []
        coefficients = InnerFunction.coefficients

        def counted(th, band):
            calls.append(band)
            return coefficients(th, band)

        monkeypatch.setattr(InnerFunction, "coefficients", counted)
        rep = permanence_functional_check(theta, E, w, cutoff_kmax=8, orth_band=4096)
        assert len(calls) == 1
        assert rep.orthogonality_residual == pytest.approx(separate, rel=1e-12)

    def test_atom_off_carrier_degrades(self):
        # build the compliant weight sequence from the ON-carrier member,
        # then watch the off-carrier u1 constants drift against it
        from bcct.boundary_calculus import AnalyticSeries
        from bcct.cutoff import build_cutoff
        from bcct.factors import outer_from_weight
        from bcct.fixtures import monomial
        from bcct.spaces import rapid_weight
        from bcct.transforms import build_member, split_transform

        E = two_gap()
        w = taper_weight(E, 16)
        on = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
        off = InnerFunction((), SingularMeasure((interior_gap_atom(E, 0.1, "K"),)))
        base = permanence_functional_check(on, E, w, cutoff_kmax=12, orth_band=1 << 16)
        assert base.stable_within(2.0)

        W = outer_from_weight(w)
        gE = build_cutoff(E, k_max=12)
        m_on = build_member("K2", monomial(0), cutoff=gE, cutoff_set=E, outer=W, theta=on)
        alpha_ref = rapid_weight(AnalyticSeries(split_transform(m_on).u1.coeffs[:4096]), 4)
        rep_shared = permanence_functional_check(
            off, E, w, alpha=alpha_ref, cutoff_kmax=12, orth_band=1 << 16
        )
        assert rep_shared.u1_stability > base.u1_stability
        assert rep_shared.u1_stability > 2.0
        assert rep_shared.u2_stability <= 2.0
