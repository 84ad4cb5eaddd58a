from dataclasses import fields

import mpmath
import numpy as np
import pytest

from bcct.boundary_calculus import _spectrum
from bcct.circle_sets import TWO_PI
from bcct.dbr import (
    SymbolB,
    divisor_psd,
    j_relation_check,
    j_relation_residuals,
    kernel_eval,
    kernel_tuple,
    PermanenceReport,
    permanence_functional_check,
    permanence_report,
    restricted_symbol,
)
from bcct.errors import NotADivisor, OutsideDomain
from bcct.factors import InnerFunction, SingularMeasure, outer_from_weight
from bcct.fixtures import (
    Scale,
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
from bcct.transforms import MemberIngredients, interior_lattice

G = 13
# the symbol's inputs at the CLI's defaults: the two-gap set and an atom of
# mass 0.1 at one of its gap endpoints
TWO_GAP = two_gap()
NU = SingularMeasure((endpoint_atom(TWO_GAP),))


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
        b = dbr_symbol(TWO_GAP, NU, G)
        K = b.eval
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam, z = [complex(*p) * 0.7 for p in rng.uniform(-1, 1, (2, 2))]
            left = kernel_eval(K, lam, z)
            right = np.conj(kernel_eval(K, z, lam))
            assert left == pytest.approx(right, abs=1e-12)

    def test_diagonal_nonnegative_and_matches_formula(self):
        b = dbr_symbol(TWO_GAP, NU, G)
        K = b.eval
        rng = np.random.default_rng(1)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 1000)) * np.exp(1j * rng.uniform(0, TWO_PI, 1000))
        vals = np.asarray(b.eval(z))
        diag = np.real(kernel_eval(K, z, z))
        expect = (1.0 - np.abs(vals) ** 2) / (1.0 - np.abs(z) ** 2)
        assert np.min(diag) >= 0.0
        assert np.max(np.abs(diag - expect)) <= 1e-10

    def test_symbol_invariants(self):
        b = dbr_symbol(TWO_GAP, NU, G)
        assert b.extreme_flagged
        assert np.max(np.abs(b.delta**2 + np.abs(b.boundary) ** 2 - 1.0)) <= 1e-10
        assert np.max(np.abs(b.boundary)) <= 1.0 + 1e-12

    def test_symbol_is_its_inner_factor_and_modulus(self):
        assert [f.name for f in fields(SymbolB)] == ["inner", "modulus"]

    def test_symbol_arrays_formed_once_and_read_only(self):
        b = dbr_symbol(TWO_GAP, NU, G)
        for name in ("boundary", "delta"):
            values = getattr(b, name)
            assert getattr(b, name) is values
            with pytest.raises(ValueError):
                values[0] = 0.0


class TestKernelDifference:
    def test_same_symbol_zero_matrix(self):
        b = dbr_symbol(TWO_GAP, NU, G)
        assert abs(divisor_psd(b, b)[0]) <= 1e-12

    def test_divisor_recipe_psd(self):
        b, b_n = dbr_divisor_pair(TWO_GAP, NU, G)
        assert divisor_psd(b, b_n)[0] >= -1e-10

    def test_outer_only_divisor(self):
        # divisor that keeps the atom but restricts the outer modulus
        b = dbr_symbol(TWO_GAP, NU, G)
        sub = e_arc_subset(b.modulus.support, 1)
        b_n = restricted_symbol(b, sub)
        assert divisor_psd(b, b_n)[0] >= -1e-10

    def test_points_outside_open_disk_rejected(self):
        b = dbr_symbol(TWO_GAP, NU, G)
        with pytest.raises(OutsideDomain):
            kernel_eval(b.eval, np.array([0.5, 1.0 + 0j]), 0.5)

    def test_least_eigenvalue_mpmath_oracle(self):
        # Entry (i, j) of the Gram difference is
        # (conj(b_n(z_i)) b_n(z_j) - conj(b(z_i)) b(z_j)) / (1 - conj(z_i) z_j),
        # rebuilt at 40 digits from the same symbol values.
        b, b_n = dbr_divisor_pair(TWO_GAP, NU, 14)
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
        assert abs(divisor_psd(b, b_n)[0] - oracle) <= 1e-13

    def test_gram_matrix_is_the_kernel_difference(self):
        # one evaluation per lattice gives the bits of kernel_eval's b(lam) on
        # (32, 1) and b(z) on (1, 32)
        b, b_n = dbr_divisor_pair(TWO_GAP, NU, G)
        pts = interior_lattice(32, 0.85)
        lam, z = pts[:, None], pts[None, :]
        gram = kernel_eval(b.eval, lam, z) - kernel_eval(b_n.eval, lam, z)
        want = float(np.min(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))))
        assert divisor_psd(b, b_n) == (want, True)

    def test_each_symbol_evaluated_once_per_lattice(self, monkeypatch):
        # the divisor test, its swap control and the Gram matrix read the
        # values of b and b_n on the 1024-point and the 32-point lattice
        b, b_n = dbr_divisor_pair(TWO_GAP, NU, G)
        calls = []
        evaluate = SymbolB.eval

        def counting(symbol, z):
            calls.append(("b" if symbol is b else "b_n", np.shape(z)))
            return evaluate(symbol, z)

        monkeypatch.setattr(SymbolB, "eval", counting)
        divisor_psd(b, b_n)
        assert calls == [("b", (1024,)), ("b_n", (1024,)), ("b", (32,)), ("b_n", (32,))]

    def test_swapped_roles_fail(self):
        b, b_n = dbr_divisor_pair(TWO_GAP, NU, G)
        with pytest.raises(NotADivisor):
            divisor_psd(b_n, b)

    def test_swap_control_passes_a_pair_that_divides_both_ways(self):
        # b divides itself, so the swapped pair is not refused: the control
        # reads False, and the least eigenvalue is that of the zero matrix
        b = dbr_divisor_pair(TWO_GAP, NU, 12)[0]
        assert divisor_psd(b, b) == (0.0, False)

    def test_pointwise_convergence_proxy(self):
        # |b_n - b| decreases at fixed interior points as the kept part grows
        E = geometric_gaps(3)
        nu = SingularMeasure((endpoint_atom(E, 0.08, "K"),))
        theta = InnerFunction((), nu)
        b = SymbolB(theta, const_weight(E, G, 0.5))
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
        b = dbr_symbol(TWO_GAP, NU, G)
        rep = j_relation_check(b, lam=0.3, k_max=32)
        assert rep.annihilator_residual <= 1e-8
        assert rep.direct_residual <= 1e-8

    def test_blaschke_inner_direct(self):
        # inner symbol: the relation reduces to membership in the model space
        E = two_gap()
        theta = InnerFunction((0.5, -0.3 + 0.2j))
        b = SymbolB(theta, const_weight(E, G, 1.0))
        # unimodular up to rounding; the square root amplifies eps to ~1e-8
        assert np.max(b.delta) <= 1e-7
        # the raw boundary samples of b, its coefficients up to size/4
        n = b.size
        f, g = kernel_tuple(_spectrum(b.boundary)[: n // 4 + 1], b.delta, 0.3, b.grid_log2)
        ann, direct = j_relation_residuals(b.boundary, b.delta, f, g, 32, n // 2 - 1)
        assert ann <= 1e-8
        assert direct <= 1e-8

    def test_zero_tuple(self):
        b = dbr_symbol(TWO_GAP, NU, G)
        n = b.size
        ann, direct = j_relation_residuals(
            b.boundary, b.delta, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex),
            k_max=8, band=n // 2 - 1,
        )
        assert ann == 0.0 and direct == 0.0

    def test_tuple_construction_consistency(self):
        b = dbr_symbol(TWO_GAP, NU, G)
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
        from bcct.fixtures import monomial
        from bcct.transforms import model_space_orthogonality

        E = two_gap()
        ingredients = Scale(E, 12, 8).ingredients
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
        separate = max(
            model_space_orthogonality(ingredients.member(monomial(j), theta), max_k=32, band=4096)
            for j in range(4)
        )
        calls = []
        frame = InnerFunction.coefficient_frame

        def counted(th, band):
            calls.append(band)
            return frame(th, band)

        monkeypatch.setattr(InnerFunction, "coefficient_frame", counted)
        rep = permanence_report(theta, ingredients, None, 4096)
        assert len(calls) == 1
        assert rep.orthogonality_residual == pytest.approx(separate, rel=1e-12)

    def test_theta_sampled_once_per_report(self, monkeypatch):
        E = two_gap()
        ingredients = Scale(E, 12, 8).ingredients
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
        calls = []
        sample = InnerFunction.boundary_samples

        def counted(th, grid_log2):
            calls.append(grid_log2)
            return sample(th, grid_log2)

        monkeypatch.setattr(InnerFunction, "boundary_samples", counted)
        permanence_report(theta, ingredients, None, 4096)
        assert calls == [12]

    def test_check_is_the_report_on_its_ingredients(self):
        # the (theta, E, w) form builds w's outer factor and the cut-off of E
        # at cutoff_kmax, and hands them to permanence_report
        from bcct.cutoff import build_cutoff

        E = two_gap()
        w = taper_weight(E, 12)
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
        got = permanence_functional_check(theta, E, w, cutoff_kmax=8, orth_band=4096)
        ingredients = MemberIngredients(E, outer_from_weight(w), build_cutoff(E, k_max=8))
        want = permanence_report(theta, ingredients, None, 4096)
        for f in fields(PermanenceReport):
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name

    def test_atom_off_carrier_degrades(self):
        # build the compliant weight sequence from the ON-carrier member,
        # then watch the off-carrier u1 constants drift against it
        from bcct.boundary_calculus import AnalyticSeries
        from bcct.fixtures import monomial
        from bcct.spaces import rapid_weight
        from bcct.transforms import split_transform

        E = two_gap()
        ingredients = Scale(E, 16, 12).ingredients
        on = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
        off = InnerFunction((), SingularMeasure((interior_gap_atom(E, 0.1, "K"),)))
        base = permanence_report(on, ingredients, None, 1 << 16)
        assert base.stable_within(2.0)

        m_on = ingredients.member(monomial(0), on)
        alpha_ref = rapid_weight(AnalyticSeries(split_transform(m_on).u1.coeffs[:4096]), 4)
        rep_shared = permanence_report(off, ingredients, alpha_ref, 1 << 16)
        assert rep_shared.u1_stability > base.u1_stability
        assert rep_shared.u1_stability > 2.0
        assert rep_shared.u2_stability <= 2.0
