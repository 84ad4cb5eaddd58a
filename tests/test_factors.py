import functools
import hashlib
import inspect
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcct.transforms
from bcct import _expderiv, factors
from bcct._expderiv import _BLOCK_ENTRIES, pole_sum
from bcct.boundary_calculus import (
    _fast_length,
    conjugate_function,
    grid_angles,
    grid_points,
    herglotz_at_nodes,
)
from bcct.circle_sets import TWO_PI, Arc, distances_to_set, point_carrier, rotate_set, validate_set
from bcct.cutoff import _g_and_h_derivs, boundary_samples, build_cutoff, eval_g, eval_h
from bcct.dbr import SymbolB, kernel_eval
from bcct.errors import OutsideDomain, ResolutionError, WeightNotLogIntegrable
from bcct.factors import (
    _LAGUERRE_CHUNK,
    Atom,
    InnerFunction,
    _atomic_inner_coefficients,
    _blaschke_factor_coefficients,
    SingularMeasure,
    boundary_weight,
    certify_theta_derivatives,
    certify_W_derivatives,
    herglotz_exp,
    outer_from_weight,
)
from bcct.fixtures import (
    _e_arcs,
    cantor_set,
    const_weight,
    geometric_gaps,
    taper_weight,
    two_gap,
)
from bcct.transforms import interior_lattice

G = 13


@pytest.fixture(scope="module")
def E():
    return two_gap()


class TestBoundaryWeight:
    def test_rejects_zero_weight(self, E):
        with pytest.raises(WeightNotLogIntegrable):
            boundary_weight(E, 0.0, G)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_one_bad_sample_on_the_carrier_is_refused(self, E, bad):
        # the check reads the carrier's least and greatest samples, with no
        # gathered copy: one bad carrier node is refused, the same value off
        # the carrier is accepted and changes nothing the weight derives, and
        # neither raises a numpy warning
        clean = taper_weight(E, G)
        on = np.flatnonzero(clean.mask)[[0, -1]]
        off = np.flatnonzero(~clean.mask)[[0, -1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for node in on:
                vals = clean.values.copy()
                vals[node] = bad
                with pytest.raises(WeightNotLogIntegrable):
                    boundary_weight(E, vals, G)
            for node in off:
                vals = clean.values.copy()
                vals[node] = bad
                w = boundary_weight(E, vals, G)
                assert np.array_equal(w.log_values, clean.log_values)
                assert w.log_integral == clean.log_integral

    def test_log_integral_quadrature(self, E):
        w = boundary_weight(E, 0.25, G)
        frac = np.count_nonzero(w.mask) / (1 << G)
        assert w.log_integral == pytest.approx(frac * math.log(0.25), abs=1e-13)

    @pytest.mark.parametrize("grid_log2", [5, 10, 16])
    def test_one_log_per_weight(self, E, grid_log2):
        # u = log(max(w, 1e-320)) on the carrier and 0 off it, read-only; the
        # log integral sums its carrier entries, the bits of the log taken
        # over the carrier samples alone, and the outer factor shares u
        bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
        n = 1 << grid_log2
        for w in (taper_weight(E, grid_log2), const_weight(E, grid_log2, 0.3)):
            on = w.values[w.mask]
            u = np.where(w.mask, np.log(np.maximum(w.values, 1e-320)), 0.0)
            assert np.array_equal(bits(w.log_values), bits(u))
            assert not w.log_values.flags.writeable
            old = float(np.sum(np.log(np.maximum(on, 1e-320))) / n)
            assert w.log_integral.hex() == old.hex()
            assert outer_from_weight(w).log_modulus is w.log_values

    @pytest.mark.parametrize("grid_log2", [10, 12, 14])
    def test_taper_weight_closed_form(self, E, grid_log2):
        # E = [1/8, 1/2] u [19/32, 1] in turns: exp(-2 sin^2(pi u / span)) is
        # 1 at each arc's ends and exp(-2) at its midpoint; w = 1 off E
        n = 1 << grid_log2
        w = taper_weight(E, grid_log2)
        assert np.all(w.values[~w.mask] == 1.0)
        assert np.all(w.values[[n // 8, n // 2, 19 * n // 32, 0]] == 1.0)
        assert np.all(w.values[[5 * n // 16, 51 * n // 64]] == math.exp(-2.0))
        assert np.all((w.values >= math.exp(-2.0)) & (w.values <= 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["two_gap", "geometric_gaps", "cantor_set"]),
        st.integers(0, 5),
        st.floats(0.0, 1.0),
        st.integers(5, 16),
        st.floats(0.5, 3.0),
    )
    @example(name="two_gap", arc=1, through=0.0, grid_log2=5, depth=2.0)
    @example(name="geometric_gaps", arc=3, through=1.0, grid_log2=10, depth=2.0)
    @example(name="cantor_set", arc=1, through=0.0, grid_log2=8, depth=2.0)
    @example(name="two_gap", arc=1, through=1.0, grid_log2=21, depth=2.0)
    def test_taper_weight_on_arc_slices_is_the_whole_grid_formula(
        self, name, arc, through, grid_log2, depth
    ):
        # E rotated so that angle 0 lies a fraction ``through`` along one of
        # its arcs (at an end for 0 and 1), so that arc takes two slices;
        # cantor_set(6) has arcs shorter than a cell on the coarse grids.
        # two_gap's second arc ends at angle 0, so the rotation at its end is
        # by exactly 0: that example is criterion 3's own set and grid
        E = {"two_gap": two_gap, "geometric_gaps": lambda: geometric_gaps(4),
             "cantor_set": lambda: cantor_set(6)}[name]()
        a, span = _e_arcs(E)[arc % len(_e_arcs(E))]
        E = rotate_set(E, -(a + through * span) % TWO_PI)
        w = taper_weight(E, grid_log2, depth)
        assert np.array_equal(w.values, _whole_grid_taper(E, grid_log2, depth))

    def test_taper_weight_on_an_arc_that_covers_the_grid(self):
        E = validate_set([Arc(1.0, 1.0 + TWO_PI / (1 << G))])  # one hairline gap
        assert np.array_equal(taper_weight(E, G).values, _whole_grid_taper(E, G, 2.0))


def _whole_grid_taper(E, grid_log2, depth):
    """The taper values as formed before the arc slices: each arc's profile
    over the whole grid, kept where u <= span."""
    t = grid_angles(grid_log2)
    vals = np.ones_like(t)
    for a, span in _e_arcs(E):
        u = np.mod(t - a, TWO_PI)
        prof = np.exp(-depth * np.sin(np.pi * np.clip(u / span, 0.0, 1.0)) ** 2)
        np.copyto(vals, prof, where=u <= span)
    return vals


class TestOuter:
    def test_nearly_full_circle_constant(self):
        # a hairline gap: the outer function of w = 1/2 is essentially 1/2
        E = validate_set([Arc(0.0, TWO_PI / (1 << G))])
        w = boundary_weight(E, 0.5, G)
        W = outer_from_weight(w)
        z = np.array([0.0, 0.3 + 0.2j, -0.5j])
        assert np.max(np.abs(W.eval(z) - 0.5)) <= 1e-2

    def test_half_circle_center_value(self):
        E = validate_set([Arc(math.pi, TWO_PI)])
        w = boundary_weight(E, 0.25, G)
        W = outer_from_weight(w)
        # mean of log: |W(0)| = exp(0.5 log(1/4)) = 1/2, up to O(1/size)
        assert abs(W.eval(0.0)) == pytest.approx(0.5, abs=4.0 / (1 << G))
        # exact quadrature identity
        assert abs(W.eval(0.0)) == pytest.approx(math.exp(w.log_integral), abs=1e-10)

    def test_boundary_modulus_contract(self, E):
        w = taper_weight(E, G)
        W = outer_from_weight(w)
        assert np.max(np.abs(np.abs(W.boundary[w.mask]) - w.values[w.mask])) <= 1e-12
        assert np.max(np.abs(np.abs(W.boundary[~w.mask]) - 1.0)) <= 1e-12

    def test_analyticity_of_boundary_samples(self, E):
        w = taper_weight(E, 14)
        W = outer_from_weight(w)
        n = len(W.boundary)
        c = np.fft.fft(W.boundary) / n
        assert np.max(np.abs(c[n // 2 + 1 :])) <= 1e-8

    def test_multiplicativity(self, E):
        w1 = taper_weight(E, G, depth=1.0)
        w2 = taper_weight(E, G, depth=2.0)
        w12 = boundary_weight(E, w1.values * w2.values, G)
        rng = np.random.default_rng(1)
        z = 0.8 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        left = outer_from_weight(w12).eval(z)
        right = np.asarray(outer_from_weight(w1).eval(z)) * np.asarray(
            outer_from_weight(w2).eval(z)
        )
        assert np.max(np.abs(left - right) / np.abs(left)) <= 1e-6

    def test_series_matches_interior(self, E):
        from bcct.boundary_calculus import AnalyticSeries, evaluate_in_disk

        n = 1 << 14
        W = outer_from_weight(taper_weight(E, 14))
        z = np.array([0.2, -0.4 + 0.3j, 0.1 - 0.6j])
        series_vals = evaluate_in_disk(AnalyticSeries(W.spectrum[: n // 2]), z)
        herglotz_vals = W.eval(z)
        assert np.max(np.abs(series_vals - herglotz_vals)) <= 1e-6

    @pytest.mark.parametrize("grid_log2", range(5, 17))
    def test_built_in_place_with_the_bits_of_the_whole_grid_expressions(self, E, grid_log2):
        # u is the log on the carrier only; the boundary is exp(complex(u, v))
        bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
        for w in (taper_weight(E, grid_log2), const_weight(E, grid_log2, 0.3)):
            W = outer_from_weight(w)
            u = np.where(w.mask, np.log(np.maximum(w.values, 1e-320)), 0.0)
            assert np.array_equal(bits(W.log_modulus), bits(u))
            assert np.array_equal(bits(W.boundary), bits(np.exp(u + 1j * conjugate_function(u))))

    def test_spectrum_is_cached_and_read_only(self, E):
        W = outer_from_weight(taper_weight(E, G))
        assert W.spectrum is W.spectrum
        assert len(W.spectrum) == 1 << G
        with pytest.raises(ValueError):
            W.spectrum[0] = 0.0


def _grid_pole_sum(u, z, m_max=0):
    """Reference [H, H', ..., H^(m_max)] of the discrete Herglotz integral

        H(z) = (1/n) sum_m u_m (zeta_m + z)/(zeta_m - z)
             = sum_m (2 zeta_m u_m / n) / (zeta_m - z) - (1/n) sum_m u_m,

    as a pole sum over the grid nodes where u is nonzero, at any points z."""
    out = pole_sum(*_grid_poles(u), z, m_max)
    out[0] -= np.sum(u[np.nonzero(u)]) / len(u)
    return out


def _grid_poles(u):
    """The poles zeta_m and weights 2 zeta_m u_m / n of _grid_pole_sum."""
    nz = np.nonzero(u)[0]
    zeta = np.exp(1j * TWO_PI * nz / len(u))
    return zeta, 2.0 * zeta * u[nz] / len(u)


class TestHerglotzExp:
    """herglotz_exp is the spectral Cauchy sum on |z| <= 1 - 1e-6 and
    refuses points nearer the circle."""

    def test_interior_matches_pole_sum_and_mpmath(self):
        u = outer_from_weight(taper_weight(two_gap(), 10)).log_modulus
        n = len(u)
        z = interior_lattice(1024, 0.95)[-12:]  # the lattice's outermost points
        spectral = herglotz_exp(u, z)
        by_poles = np.exp(_grid_pole_sum(u, z)[0])
        assert np.max(np.abs(spectral - by_poles) / np.abs(by_poles)) <= 1e-13
        nodes = np.exp(1j * grid_angles(10))
        with mpmath.workdps(30):
            terms = [(mpmath.mpc(zeta), mpmath.mpf(um)) for zeta, um in zip(nodes, u) if um]
            for zi, val in zip(z, spectral):
                zm = mpmath.mpc(zi)
                H = mpmath.fsum(um * (zeta + zm) / (zeta - zm) for zeta, um in terms) / n
                ref = complex(mpmath.exp(H))
                assert abs(val - ref) <= 1e-13 * abs(ref), zi

    @staticmethod
    def _evaluator(name):
        w = taper_weight(two_gap(), 10)
        W = outer_from_weight(w)
        b = SymbolB(InnerFunction((0.3,)), w)
        return {
            "herglotz_exp": lambda z: herglotz_exp(W.log_modulus, z),
            "outer_eval": W.eval,
            "symbol_eval": b.eval,
            "kernel_eval": lambda z: kernel_eval(b.eval, 0.5, z),
            "kernel_eval_lam": lambda z: kernel_eval(b.eval, z, 0.1),
        }[name]

    @pytest.mark.parametrize(
        "evaluator", ["herglotz_exp", "outer_eval", "symbol_eval", "kernel_eval"]
    )
    def test_near_circle_raises(self, evaluator):
        call = self._evaluator(evaluator)
        z_edge = (1.0 - 1e-7) * np.exp(0.3j)
        for z in (z_edge, np.array([0.5, z_edge])):
            with pytest.raises(OutsideDomain):
                call(z)

    @pytest.mark.parametrize(
        "z", [math.nan, complex(math.nan, 0.0), np.array([0.5, math.nan, 0.2j])],
        ids=["nan", "complex_nan", "array_with_nan"],
    )
    @pytest.mark.parametrize(
        "evaluator", ["herglotz_exp", "outer_eval", "symbol_eval", "kernel_eval", "kernel_eval_lam"]
    )
    def test_nan_point_raises(self, evaluator, z):
        # a NaN point fails |z| <= r as well as |z| > r
        with pytest.raises(OutsideDomain):
            self._evaluator(evaluator)(z)


def _certificate_nodes(grid_log2: int, windows: int = 4) -> np.ndarray:
    """Grid indices of the deepest dyadic windows off two_gap() that
    certify_W_derivatives evaluates (four of them), at distance
    [2^-l, 2^(1-l)) from E."""
    dist = distances_to_set(grid_angles(grid_log2), two_gap())
    d_min = 2.0 ** (3 - grid_log2)
    return np.flatnonzero((dist >= d_min) & (dist < 2.0**windows * d_min))


_WEIGHTS = {
    "const": lambda g: const_weight(two_gap(), g, 0.5),
    "taper": lambda g: taper_weight(two_gap(), g),
}


class TestHerglotzAtNodes:
    """The cot-kernel correlation against the pole sum of _grid_pole_sum and
    against exact nodes in mpmath."""

    @staticmethod
    def _against_pole_sum(u, nodes, m_max):
        z = np.exp(1j * grid_angles(int(math.log2(len(u))))[nodes])
        pairs = zip(herglotz_at_nodes(u, nodes, m_max), _grid_pole_sum(u, z, m_max))
        for j, (ours, ref) in enumerate(pairs):
            assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-11, j

    @pytest.mark.parametrize("weight", sorted(_WEIGHTS))
    @pytest.mark.parametrize("grid_log2", [10, 12, 14, 16])
    def test_matches_pole_sum(self, weight, grid_log2):
        u = outer_from_weight(_WEIGHTS[weight](grid_log2)).log_modulus
        # the certificate's windows and every 97th node off the carrier
        nodes = np.union1d(_certificate_nodes(grid_log2), np.flatnonzero(u == 0.0)[::97])
        self._against_pole_sum(u, nodes, 3)

    def test_third_derivative_on_2p18(self):
        # with only the offsets |d| < 16 summed directly (not n/64), the
        # deepest window misses 1e-11 here by a factor of 200
        u = outer_from_weight(taper_weight(two_gap(), 18)).log_modulus
        self._against_pole_sum(u, _certificate_nodes(18, windows=1), 3)

    @pytest.mark.parametrize("weight", sorted(_WEIGHTS))
    def test_exact_nodes_mpmath(self, weight):
        u = outer_from_weight(_WEIGHTS[weight](10)).log_modulus
        n = len(u)
        window = _certificate_nodes(10)
        nodes = np.array([window[0], window[len(window) // 2], window[-1], 64, 560])  # and two gap middles
        ours = herglotz_at_nodes(u, nodes, 3)
        with mpmath.workdps(30):
            zeta = [mpmath.expjpi(mpmath.mpf(2 * m) / n) for m in range(n)]
            terms = [(zeta[m], mpmath.mpf(u[m])) for m in np.flatnonzero(u)]
            mean = mpmath.fsum(um for _, um in terms) / n
            for i, k in enumerate(nodes):
                for j in range(4):
                    ref = 2 * math.factorial(j) * mpmath.fsum(
                        um * zm / (zm - zeta[k]) ** (j + 1) for zm, um in terms
                    ) / n - (mean if j == 0 else 0)
                    ref = complex(ref)
                    assert abs(ours[j][i] - ref) <= 1e-13 * abs(ref), (k, j)

    def test_refuses_a_node_on_the_carrier(self):
        u = outer_from_weight(const_weight(two_gap(), 10, 0.5)).log_modulus
        on = np.flatnonzero(u)[:1]
        off = np.flatnonzero(u == 0.0)[:3]
        with pytest.raises(OutsideDomain):
            herglotz_at_nodes(u, np.concatenate([off, on]), 1)


class TestWDerivatives:
    def test_trivial_weight_flat(self, E):
        w = boundary_weight(E, 1.0, G)
        W = outer_from_weight(w)
        rep = certify_W_derivatives(W, E, orders_m=(0, 1, 2))
        assert rep.constants[0][-1] == pytest.approx(1.0, abs=1e-12)
        assert max(rep.constants[1]) <= 1e-10
        assert max(rep.constants[2]) <= 1e-8

    def test_modulus_one_off_support(self, E):
        w = taper_weight(E, G)
        W = outer_from_weight(w)
        rep = certify_W_derivatives(W, E, orders_m=(0,))
        assert all(c == pytest.approx(1.0, abs=1e-10) for c in rep.constants[0])

    def test_first_order_stability(self, E):
        # smooth on E with a genuine edge value: |W'| grows like 1/dist and
        # the fitted constants drift by about 2 per level, inside the factor
        w = boundary_weight(E, 0.5, 14)
        W = outer_from_weight(w)
        rep = certify_W_derivatives(W, E, orders_m=(1,))
        assert rep.stable(1)


class TestSingularInner:
    def test_value_at_center(self):
        nu = SingularMeasure((Atom(0.3, 0.2), Atom(2.0, 0.05, "K")))
        assert InnerFunction((), nu).eval(0.0) == pytest.approx(math.exp(-0.25), abs=1e-14)

    def test_single_atom_on_real_axis(self):
        nu = SingularMeasure((Atom(0.0, 0.3),))
        for x in (-0.5, 0.0, 0.25, 0.9):
            expect = math.exp(-0.3 * (1 + x) / (1 - x))
            assert InnerFunction((), nu).eval(x) == pytest.approx(expect, rel=1e-13)

    def test_radial_limit_away_from_atom(self):
        nu = SingularMeasure((Atom(0.0, 0.1),))
        z = (1.0 - 1e-6) * np.exp(1j * np.linspace(0.5, TWO_PI - 0.5, 64))
        vals = np.abs(InnerFunction((), nu).eval(z))
        assert np.min(vals) >= 1.0 - 1e-3

    def test_bounded_and_multiplicative(self):
        nu1 = SingularMeasure((Atom(0.3, 0.2),))
        nu2 = SingularMeasure((Atom(2.0, 0.1),))
        both = SingularMeasure(nu1.atoms + nu2.atoms)
        rng = np.random.default_rng(2)
        z = 0.97 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(1j * rng.uniform(0, TWO_PI, 400))
        v1 = np.asarray(InnerFunction((), nu1).eval(z))
        v2 = np.asarray(InnerFunction((), nu2).eval(z))
        v = np.asarray(InnerFunction((), both).eval(z))
        assert np.max(np.abs(v)) <= 1.0
        assert np.max(np.abs(v - v1 * v2)) <= 1e-10

    def test_carrier_tag_enforced(self):
        F = point_carrier(1.0)
        with pytest.raises(ValueError):
            SingularMeasure((Atom(2.0, 0.1, "C"),), carrier_C=F)
        nu = SingularMeasure((Atom(1.0, 0.1, "C"),), carrier_C=F)
        assert [(a.angle, a.mass, a.part) for a in nu.atoms] == [(1.0, 0.1, "C")]


class TestClosedDiskDomain:
    """eval_h, eval_g and theta's eval take |z| <= 1 + 1e-12 and raise
    OutsideDomain elsewhere."""

    @staticmethod
    def _evaluator(name):
        c = build_cutoff(two_gap(), 8)
        theta = InnerFunction((0.3 + 0.2j,), SingularMeasure((Atom(0.7, 0.15),)))
        return {
            "eval_h": lambda z: eval_h(c, z),
            "eval_g": lambda z: eval_g(c, z),
            "theta_eval": theta.eval,
        }[name]

    @pytest.mark.parametrize(
        "z",
        [math.nan, complex(math.nan, 0.0), np.array([0.5, math.nan, 0.2j]), 1.5],
        ids=["nan", "complex_nan", "array_with_nan", "1.5"],
    )
    @pytest.mark.parametrize("evaluator", ["eval_h", "eval_g", "theta_eval"])
    def test_outside_raises(self, evaluator, z):
        # a NaN point fails |z| <= r as well as |z| > r
        with pytest.raises(OutsideDomain):
            self._evaluator(evaluator)(z)

    @pytest.mark.parametrize("evaluator", ["eval_h", "eval_g", "theta_eval"])
    def test_rounded_circle_points_accepted(self, evaluator):
        z = np.array([(1.0 + 1e-13) * np.exp(0.3j), 1.0, -1j, 0.5])
        assert np.all(np.isfinite(self._evaluator(evaluator)(z)))


class TestInnerFunction:
    def test_unimodular_boundary(self):
        theta = InnerFunction((0.9,), SingularMeasure((Atom(1.5, 0.2),)))
        b = theta.boundary_samples(G)
        t = grid_angles(G)
        off_atom = np.abs(np.exp(1j * t) - np.exp(1.5j)) > 1e-12
        assert np.max(np.abs(np.abs(b[off_atom]) - 1.0)) <= 1e-10

    def test_blaschke_modulus_exact(self):
        theta = InnerFunction((0.9,))
        b = theta.boundary_samples(G)
        assert np.max(np.abs(np.abs(b) - 1.0)) <= 1e-10

    def test_bounded_in_disk(self):
        theta = InnerFunction((0.5, -0.2 + 0.4j), SingularMeasure((Atom(0.7, 0.15),)))
        rng = np.random.default_rng(3)
        z = 0.99 * np.sqrt(rng.uniform(0, 1, 1000)) * np.exp(1j * rng.uniform(0, TWO_PI, 1000))
        assert np.max(np.abs(theta.eval(z))) <= 1.0 + 1e-12

    def test_eval_against_mpmath(self):
        # theta's closed form in 40 digits, at theta's own double atom points:
        # next to an atom the phase moves by about 3e5 per unit of zeta, so
        # the rounding of cos/sin of the angle is not theta's error
        atoms = (Atom(0.7, 0.15), Atom(2.5, 0.05))
        zeros = (0.3 + 0.2j, 0.0)
        theta = InnerFunction(zeros, SingularMeasure(atoms))

        def oracle(z):
            with mpmath.workdps(40):
                z = mpmath.mpc(z)
                acc = -mpmath.fsum(a.mass * (mpmath.mpc(a.point) + z) / (mpmath.mpc(a.point) - z)
                                   for a in atoms)
                out = mpmath.exp(acc) * z
                a = mpmath.mpc(zeros[0])
                out *= (abs(a) / a) * (a - z) / (1 - mpmath.conj(a) * z)
                return complex(out)

        rng = np.random.default_rng(11)
        z = 0.99 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(1j * rng.uniform(0, TWO_PI, 200))
        ref = np.array([oracle(p) for p in z])
        assert np.max(np.abs(theta.eval(z) - ref) / np.abs(ref)) <= 1e-14
        near = (1.0 - 1e-6) * np.exp(1j * (0.7 + np.array([-1e-3, 1e-4, 1e-3, 1e-2])))
        ref = np.array([oracle(p) for p in near])
        assert np.max(np.abs(theta.eval(near) - ref)) <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert theta.eval(atoms[0].point) == 0.0

    def test_coefficients_match_evaluation(self):
        theta = InnerFunction((0.3 - 0.1j,), SingularMeasure((Atom(0.9, 0.12),)))
        co = theta.coefficients(2048)
        for z in (0.2, -0.3 + 0.4j, 0.55j):
            series = np.polyval(co[::-1], z)
            assert series == pytest.approx(complex(theta.eval(z)), abs=1e-10)

    def test_coefficients_match_grid_spectrum(self):
        # Laguerre-recurrence coefficients against the FFT of boundary samples
        theta = InnerFunction((), SingularMeasure((Atom(1.0, 0.1),)))
        co = theta.coefficients(64)
        n = 1 << 16
        c_fft = np.fft.fft(theta.boundary_samples(16)) / n
        assert np.max(np.abs(co[:64] - c_fft[:64])) <= 1e-4  # slow tail aliases
        assert np.max(np.abs(co[:8] - c_fft[:8])) <= 1e-4

    @pytest.mark.parametrize(
        "zeros, atoms",
        [((), (Atom(1.5, 0.2),)), ((0.9, 0j), ()), ((-0.3 + 0.2j,), (Atom(0.0, 0.1), Atom(2.0, 0.3)))],
        ids=["atom", "blaschke", "both"],
    )
    def test_boundary_samples_take_grid_points_only_for_blaschke_zeros(self, zeros, atoms, monkeypatch):
        # the bits of the formula that formed z = exp(1j * t) on every grid
        theta = InnerFunction(zeros, SingularMeasure(atoms))
        t = grid_angles(G)
        out, hit = np.ones(len(t), dtype=complex), np.zeros(len(t), dtype=bool)
        for atom in atoms:
            half = 0.5 * (t - atom.angle)
            near = np.abs(np.sin(half)) < 1e-15
            hit |= near
            out = out * np.exp(-1j * (atom.mass / np.tan(np.where(near, 1.0, half))))
        expect = np.where(hit, 0.0, theta._times_blaschke(out, np.exp(1j * t)))
        calls = []
        monkeypatch.setattr(factors, "grid_points", lambda g: calls.append(g) or grid_points(g))
        got = theta.boundary_samples(G)
        bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
        assert np.array_equal(bits(got), bits(expect))
        assert calls == ([G] if zeros else [])

    def test_atom_hit_is_zero(self):
        theta = InnerFunction((), SingularMeasure((Atom(0.0, 0.1),)))
        assert theta.boundary_samples(G)[0] == 0.0

    def test_coefficients_match_direct_convolution_chain(self):
        atoms = (Atom(1.2, 0.15), Atom(3.5, 0.05))
        zeros = (0j, 0.5 + 0j, -0.3 + 0.2j)
        band = 256
        k = np.arange(band + 1)
        factors = [_atomic_inner_coefficients(a.mass, band) * np.exp(-1j * a.angle * k) for a in atoms]
        factors += [_blaschke_factor_coefficients(a, band) for a in zeros]
        direct = np.ones(1, dtype=complex)
        for fac in factors:
            direct = np.convolve(direct, fac)[: band + 1]
        co = InnerFunction(zeros, SingularMeasure(atoms)).coefficients(band)
        assert np.max(np.abs(co - direct)) <= 1e-13
        assert co.flags.owndata  # not a view that keeps the FFT buffer alive

    def test_two_factor_coefficients_at_a_non_smooth_length(self):
        # the product's transform has 2 (band + 1) = 2 * 4099 entries to hold,
        # 4099 prime, so it runs at the next 11-smooth length, not at 2^13
        band = 4098
        atom, zero = Atom(0.9, 0.12), 0.3 - 0.1j
        fac = _atomic_inner_coefficients(0.12, band) * np.exp(-0.9j * np.arange(band + 1))
        direct = np.convolve(fac, _blaschke_factor_coefficients(zero, band))[: band + 1]
        co = InnerFunction((zero,), SingularMeasure((atom,))).coefficients(band)
        assert _fast_length(2 * (band + 1)) not in (2 * (band + 1), 1 << 14)
        assert np.max(np.abs(co - direct)) <= 1e-13

    def test_coefficients_of_one_factor_and_of_none(self):
        atom = Atom(0.7, 0.3)
        co = InnerFunction((), SingularMeasure((atom,))).coefficients(64)
        fac = _atomic_inner_coefficients(0.3, 64) * np.exp(-0.7j * np.arange(65))
        assert np.array_equal(co, fac)
        assert np.array_equal(InnerFunction().coefficients(4), np.eye(1, 5).ravel())

    @pytest.mark.parametrize(
        "theta",
        [
            InnerFunction((), SingularMeasure((Atom(2.5, 0.3),))),
            InnerFunction((), SingularMeasure((Atom(0.0, 0.1),))),
            InnerFunction((), SingularMeasure((Atom(0.7, 0.3), Atom(2.0, 0.1)))),
            InnerFunction((0.5,), SingularMeasure((Atom(0.7, 0.3),))),
            InnerFunction((0.5,)),
            InnerFunction(),
        ],
        ids=["atom", "atom_at_0", "two_atoms", "atom_and_zero", "blaschke", "trivial"],
    )
    def test_coefficient_frame(self, theta):
        # theta_m = e^{-i phi m} a_m: a single atom keeps its real Laguerre
        # sequence, every other theta its own coefficients at phi = 0
        band = 300
        phi, a = theta.coefficient_frame(band)
        co = theta.coefficients(band)
        single = len(theta.singular.atoms) == 1 and not theta.blaschke_zeros
        assert np.isrealobj(a) == single
        if single:
            assert phi == theta.singular.atoms[0].angle
        else:
            assert phi == 0.0
        assert np.array_equal(a * np.exp(-1j * phi * np.arange(band + 1)), co)


class TestThetaDerivatives:
    def test_trivial_inner(self, E):
        theta = InnerFunction()
        rep = certify_theta_derivatives(theta, E, orders_m=(0, 1), grid_log2=G)
        assert max(rep.constants[1]) <= 1e-12

    def test_single_atom_stability(self):
        F = point_carrier(0.0)
        theta = InnerFunction((), SingularMeasure((Atom(0.0, 0.1),)))
        rep = certify_theta_derivatives(theta, F, orders_m=(1,), grid_log2=14)
        assert rep.stable(1)

    def test_constants_match_mpmath(self, E, monkeypatch):
        # C_m per window, max |d^m theta(e^{it})/dt^m| dist^{2m}, against
        # 40-digit derivatives (mpmath.diffs) of the closed form of theta at
        # the exact nodes 2 pi k/n, with the window distances the certificate
        # used.  Two atoms at gap endpoints and one Blaschke zero, on 2^14
        # (479 nodes).  Measured: up to 6.8e-13 relative over orders 0 to 2
        # and the four windows, at order 0 in the deepest one, where a node's
        # 1e-16 distance from the circle moves |theta| by about that much.
        atoms = (Atom(E.gaps[0].start, 0.1), Atom(E.gaps[1].end, 0.05))
        zero = 0.3 + 0.2j
        theta = InnerFunction((zero,), SingularMeasure(atoms))
        seen = {}
        windows_of = _expderiv._dyadic_level_points

        def recorded(carrier, grid_log2, levels, factor, m_max):
            def spy(z, nodes, m):
                seen["nodes"] = nodes
                return factor(z, nodes, m)

            seen["windows"] = windows_of(carrier, grid_log2, levels, spy, m_max)
            return seen["windows"]

        monkeypatch.setattr("bcct.factors._dyadic_level_points", recorded)
        rep = certify_theta_derivatives(theta, E, orders_m=(0, 1, 2), grid_log2=14)
        n = 1 << 14
        cuts = np.cumsum([len(dist) for _, dist, _ in seen["windows"]])[:-1]
        with mpmath.workdps(40):
            a = mpmath.mpc(zero)
            points = [(mpmath.expj(mpmath.mpf(atom.angle)), atom.mass) for atom in atoms]

            def theta_at(t):
                z = mpmath.expj(t)
                acc = -mpmath.fsum(m * (p + z) / (p - z) for p, m in points)
                return mpmath.exp(acc) * (abs(a) / a) * (a - z) / (1 - mpmath.conj(a) * z)

            for level, (nodes, (_, dist, _)) in enumerate(
                zip(np.split(seen["nodes"], cuts), seen["windows"])
            ):
                derivs = [list(mpmath.diffs(theta_at, 2 * mpmath.pi * int(k) / n, 2)) for k in nodes]
                for m in (0, 1, 2):
                    ref = float(max(abs(d[m]) * mpmath.mpf(float(dw)) ** (2 * m)
                                    for d, dw in zip(derivs, dist)))
                    assert abs(rep.constants[m][level] - ref) <= 2e-12 * ref, (m, level)

    def test_atom_outside_carrier_rejected(self):
        F = point_carrier(0.0)
        theta = InnerFunction((), SingularMeasure((Atom(1.0, 0.1),)))
        with pytest.raises(ValueError):
            certify_theta_derivatives(theta, F)


class TestJsonInterfaces:
    """What an atom of a measure file must be; tests/test_cli.py reads the
    files themselves."""

    @pytest.mark.parametrize("angle, mass", [(0.0, math.nan), (0.0, math.inf), (math.inf, 0.1),
                                             (math.nan, 0.1), (0.0, 0.0)])
    def test_atom_needs_finite_angle_and_positive_finite_mass(self, angle, mass):
        with pytest.raises(ValueError):
            Atom(angle, mass)


# ---------------------------------------------------------------------------
# oracle: closed-form pole-sum derivatives against mpmath differentiation
# ---------------------------------------------------------------------------

# |z| = 0.999, away from the branch cuts of the logs in the theta oracle.
ORACLE_Z = 0.999 * np.exp(1j * np.array([0.9, 2.3, 4.1, 5.4]))


def _cutoff_h_case():
    c = build_cutoff(two_gap(), k_max=4)
    terms = [(mpmath.mpc(p), mpmath.mpc(w)) for p, w in zip(c.poles, c.weights)]
    oracle = lambda z: -mpmath.fsum(w / (p - z) for p, w in terms)
    return (lambda z: _g_and_h_derivs(c, z, 3)[1]), oracle


def _herglotz_case():
    W = outer_from_weight(boundary_weight(two_gap(), 0.5, 8))
    n = len(W.log_modulus)
    # The nodes are the grid points as doubles: their 1e-16 offsets from
    # e^{2 pi i m/n} alone would move third derivatives by ~5e-13 here.
    nodes = np.exp(1j * grid_angles(8))
    terms = [
        (mpmath.mpc(zeta), mpmath.mpf(u))
        for zeta, u in zip(nodes, W.log_modulus)
        if u != 0.0
    ]
    oracle = lambda z: mpmath.fsum(u * (zeta + z) / (zeta - z) for zeta, u in terms) / n
    return (lambda z: _grid_pole_sum(W.log_modulus, z, 3)[1:]), oracle


def _theta_case():
    atoms = (Atom(1.2, 0.15), Atom(3.5, 0.05))
    zeros = (0j, 0.5 + 0j, -0.3 + 0.2j)
    theta = InnerFunction(zeros, SingularMeasure(atoms))

    def oracle(z):
        # log theta up to an additive constant: the unimodular factors drop.
        acc = -mpmath.fsum(
            a.mass * (mpmath.expj(a.angle) + z) / (mpmath.expj(a.angle) - z) for a in atoms
        )
        acc += mpmath.log(z)
        for a in map(mpmath.mpc, zeros[1:]):
            acc += mpmath.log(a - z) - mpmath.log(1 - mpmath.conj(a) * z)
        return acc

    return (lambda z: theta.log_z_derivs(z, 3)), oracle


@pytest.mark.parametrize("case", [_cutoff_h_case, _herglotz_case, _theta_case],
                         ids=["cutoff_h", "herglotz_log", "log_theta"])
def test_pole_sum_derivatives_match_mpmath(case):
    ours, oracle = case()
    derivs = ours(ORACLE_Z)
    with mpmath.workdps(40):
        for i, z in enumerate(ORACLE_Z):
            for k in (1, 2, 3):
                ref = complex(mpmath.diff(oracle, mpmath.mpc(z), k))
                assert abs(derivs[k - 1][i] - ref) <= 1e-12 * abs(ref), (k, z)


# ---------------------------------------------------------------------------
# pole_sum in cache-sized blocks against the loop it replaced, bit for bit
# ---------------------------------------------------------------------------

def _reference_pole_sum(poles, weights, z, m_max=0):
    # blocks of 2 * 10^6 entries and fresh temporaries for every product
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = [np.zeros(flat.shape, dtype=complex) for _ in range(m_max + 1)]
    step = max(1, 2_000_000 // max(1, len(poles)))
    for i in range(0, len(flat), step):
        diff = poles - flat[i : i + step, None]
        power = diff
        fact = 1.0
        for k in range(m_max + 1):
            if k:
                fact *= k
                power = power * diff
            out[k][i : i + step] = fact * np.sum(weights / power, axis=1)
    return [o.reshape(z.shape) for o in out]


def _cutoff_poles():
    c = build_cutoff(two_gap(), k_max=16)  # 66 poles
    return c.poles, -c.weights


def _herglotz_poles():
    u = outer_from_weight(boundary_weight(two_gap(), 0.5, 14)).log_modulus  # 12802 poles
    return _grid_poles(u)


def _assert_pole_sums_equal(poles, weights, z):
    for m_max in range(4):
        ours = pole_sum(poles, weights, z, m_max)
        ref = _reference_pole_sum(poles, weights, z, m_max)
        for k, (a, b) in enumerate(zip(ours, ref)):
            assert a.shape == b.shape == np.shape(z)
            assert np.array_equal(a, b), (m_max, k)


@pytest.mark.parametrize("poles, z", [
    (_cutoff_poles, lambda: np.exp(1j * grid_angles(16))),
    (_herglotz_poles, lambda: 0.999 * np.exp(1j * np.linspace(0.0, TWO_PI, 300, endpoint=False))),
], ids=["66_poles_2p16_points", "12802_poles_300_points"])
def test_pole_sum_bit_identical_to_reference(poles, z):
    _assert_pole_sums_equal(*poles(), z())


def test_pole_sum_block_edges_and_shapes():
    poles, weights = _cutoff_poles()
    step = _BLOCK_ENTRIES // len(poles)
    rng = np.random.default_rng(5)
    for n in (step - 1, step, step + 1):
        _assert_pole_sums_equal(poles, weights, np.exp(1j * rng.uniform(0.0, TWO_PI, n)))
    for z in (0.3 - 0.2j, 0.9 * np.exp(1j * rng.uniform(0.0, TWO_PI, (3, 5))), np.zeros(0)):
        _assert_pole_sums_equal(poles, weights, z)
    # more poles than a block holds: one point per block
    n_poles = _BLOCK_ENTRIES + 5
    poles = 1.01 * np.exp(1j * rng.uniform(0.0, TWO_PI, n_poles))
    weights = rng.normal(size=n_poles) + 1j * rng.normal(size=n_poles)
    _assert_pole_sums_equal(poles, weights, 0.95 * np.exp(1j * rng.uniform(0.0, TWO_PI, 9)))


# ---------------------------------------------------------------------------
# one thread: every pass runs on the calling thread
# ---------------------------------------------------------------------------

def test_pole_sum_worker_count_is_not_a_setting():
    # no parameter or environment variable chooses how a pass runs
    assert list(inspect.signature(pole_sum).parameters) == ["poles", "weights", "z", "m_max"]
    source = inspect.getsource(_expderiv)
    assert "environ" not in source and "getenv" not in source


def test_pole_sum_from_many_threads():
    # callers on more threads than cores must each get their own rows back
    poles, weights = _cutoff_poles()
    rng = np.random.default_rng(11)
    zs = [np.exp(1j * rng.uniform(0.0, TWO_PI, 70_000 + 13 * i)) for i in range(6)]
    expect = [pole_sum(poles, weights, z, 1) for z in zs]
    got = [None] * len(zs)

    def run(i):
        got[i] = pole_sum(poles, weights, zs[i], 1)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(zs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for g, e in zip(got, expect):
        assert all(np.array_equal(a, b) for a, b in zip(g, e))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _k2_window_inputs(complex_x):
    """x and one member's u at K2's shape at band 2^20: 33 rows of 2^17-term
    dots."""
    rng = np.random.default_rng(12)
    us = rng.normal(size=(1, 1 << 17)) + 1j * rng.normal(size=(1, 1 << 17))
    x = rng.normal(size=(1 << 17) + 40)
    if complex_x:
        x = x + 1j * rng.normal(size=len(x))
    return x, us


def _small_window_inputs(complex_x, count, length, rows):
    rng = np.random.default_rng(5)
    us = rng.normal(size=(count, length)) + 1j * rng.normal(size=(count, length))
    x = rng.normal(size=length + rows - 1)
    if complex_x:
        x = x + 1j * rng.normal(size=len(x))
    return x, us


def _two_products(a, b):
    """(p, e) with p + e = a b exactly, by Veltkamp's split (Dekker,
    Numer. Math. 18, 1971), elementwise."""

    def split(v):
        c = v * 134217729.0  # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _assert_exact_window_dots(dots, x, us):
    """dots[c, i] is sum_j u_j x_{i+j} for u = us[c] within 4 eps of
    sum_j |u_j x_{i+j}|, against each part's exact products summed by
    math.fsum, which rounds once."""
    rows, length = dots.shape[1], us.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(x, length)[:rows]
    for c, u in enumerate(us):
        scale = np.abs(windows) @ np.abs(u)
        for i, w in enumerate(windows):
            re = [*_two_products(u.real, w.real), *_two_products(-u.imag, np.imag(w))]
            im = [*_two_products(u.imag, w.real), *_two_products(u.real, np.imag(w))]
            exact = complex(math.fsum(np.concatenate(re)), math.fsum(np.concatenate(im)))
            assert abs(dots[c, i] - exact) <= 4 * np.finfo(float).eps * scale[i], (c, i)


@pytest.mark.parametrize("block", [6, 1 << 13])
@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
def test_window_dots_match_exact_sums(monkeypatch, complex_x, count, block):
    # 7 rows of 45-term dots; blocks of 6 doubles per window row split them
    # into 8 blocks, the last one partial (15 of 3 terms for a complex x)
    monkeypatch.setattr(bcct.transforms, "_WINDOW_BLOCK", block)
    x, us = _small_window_inputs(complex_x, count, 45, 7)
    dots = bcct.transforms._window_dots(x, us, 7)
    assert dots.shape == (count, 7)
    _assert_exact_window_dots(dots, x, us)


@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
def test_window_dots_of_four_members_are_each_members(complex_x):
    # one product for four members, over 3 blocks of 2^13 doubles per row
    # (5 for a complex x), against one call per member
    x, us = _small_window_inputs(complex_x, 4, 20000, 33)
    together = bcct.transforms._window_dots(x, us, 33)
    windows = np.lib.stride_tricks.sliding_window_view(np.abs(x), 20000)[:33]
    for u, row in zip(us, together):
        alone = bcct.transforms._window_dots(x, u[None], 33)[0]
        assert np.all(np.abs(row - alone) <= 4 * np.finfo(float).eps * (windows @ np.abs(u)))


@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
def test_window_dots_memory_at_k2_shape(complex_x):
    # one copy of K2's whole 33 x 2^17 window matrix is 34 MB (69 MB for a
    # complex x); a block of it is about 2 MB, beside the 2 MB (4 MB) of the
    # product's left side
    x, us = _k2_window_inputs(complex_x)
    tracemalloc.start()
    try:
        bcct.transforms._window_dots(x, us, 33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


def test_the_package_starts_no_thread(monkeypatch):
    # the largest passes whose rows do not depend on one another: the outer
    # factor's exp at 2^18, K2's window dots and a pole sum of 2^16 x 66
    # entries
    def refused(self):
        raise AssertionError(f"a thread was started: {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refused)
    outer_from_weight(taper_weight(two_gap(), 18))
    bcct.transforms._window_dots(*_k2_window_inputs(False), 33)
    poles, weights = _cutoff_poles()
    pole_sum(poles, weights, np.exp(1j * grid_angles(16)))


def _outputs_on_one_and_all_cpus(code):
    """What ``code`` prints in fresh interpreters on all CPUs under
    OPENBLAS_NUM_THREADS=1 and =2, and on one CPU (as under taskset), as a
    set."""
    prelude = (
        "import os, sys\n"
        "if sys.argv[1] == 'one-cpu':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    )
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(bcct.__file__).parents[1])
    runs = [("threads", {"OPENBLAS_NUM_THREADS": "1"}), ("threads", {"OPENBLAS_NUM_THREADS": "2"})]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("one-cpu", {}))
    return {
        subprocess.run([sys.executable, "-c", prelude + code, mode], env=dict(base, **env),
                       capture_output=True, text=True, check=True).stdout
        for mode, env in runs
    }


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_boundary_samples_same_bits_on_one_and_two_cpus():
    # g's grid samples take their spectrum from one real BLAS product
    # (pole_sum_on_grid), on OpenBLAS's threads: the bits must follow neither
    # its thread count nor the CPUs the process may use, at 2^10, 2^16 and
    # criterion 3's 2^21, and match this process.
    code = (
        "import hashlib\n"
        "from bcct.cutoff import boundary_samples, build_cutoff\n"
        "from bcct.fixtures import two_gap\n"
        "c = build_cutoff(two_gap(), k_max=16)\n"
        "print([hashlib.sha256(boundary_samples(c, k).tobytes()).hexdigest() for k in (10, 16, 21)])\n"
    )
    c = build_cutoff(two_gap(), k_max=16)
    here = [_sha(boundary_samples(c, k)) for k in (10, 16, 21)]
    assert _outputs_on_one_and_all_cpus(code) == {f"{here}\n"}


def test_outer_boundary_same_bits_on_one_and_two_cpus():
    # W's boundary at 2^18 runs on the calling thread and calls no BLAS: its
    # bits are the formula's here, and this process's in fresh interpreters
    # on one CPU and on all, under one and two BLAS threads
    w = taper_weight(two_gap(), 18)
    u = w.log_values
    boundary = outer_from_weight(w).boundary
    assert np.array_equal(_bits(boundary), _bits(np.exp(u + 1j * conjugate_function(u))))
    code = (
        "import hashlib\n"
        "from bcct.factors import outer_from_weight\n"
        "from bcct.fixtures import taper_weight, two_gap\n"
        "print(hashlib.sha256(outer_from_weight(taper_weight(two_gap(), 18)).boundary.tobytes()).hexdigest())\n"
    )
    assert _outputs_on_one_and_all_cpus(code) == {f"{_sha(boundary)}\n"}


@pytest.mark.parametrize("complex_x", [False, True], ids=["real", "complex"])
def test_window_dots_same_bits_on_one_and_two_cpus(complex_x):
    # K2's lag sums take dgemms on OpenBLAS's threads: their bits must follow
    # neither its thread count nor the CPUs the process may use.  They match
    # the exact sums here, and this process's bits in fresh interpreters on
    # one CPU and on all, under one and two BLAS threads
    x, us = _k2_window_inputs(complex_x)
    dots = bcct.transforms._window_dots(x, us, 33)
    _assert_exact_window_dots(dots, x, us)
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from bcct.transforms import _window_dots\n"
        + inspect.getsource(_k2_window_inputs)
        + f"print(hashlib.sha256(_window_dots(*_k2_window_inputs({complex_x}), 33).tobytes()).hexdigest())\n"
    )
    assert _outputs_on_one_and_all_cpus(code) == {f"{_sha(dots)}\n"}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_pole_sum_in_a_forked_child():
    # a fork copies only the calling thread; a pole sum in the child must
    # finish on the child's own thread
    poles, weights = _cutoff_poles()
    z = np.exp(1j * grid_angles(16))  # 2^16 x 66 entries
    expect = pole_sum(poles, weights, z)[0]
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=lambda: queue.put(pole_sum(poles, weights, z)[0]))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.kill()
        child.join()
    assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# oracle: the forward Laguerre recurrence against mpmath
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _mpmath_laguerre_coefficients(mass, band, dps):
    # e^{-mass} D_n from D_{n+1} = (n D_n - x L_n)/(n + 1), L_{n+1} = L_n + D_{n+1}
    with mpmath.workdps(dps):
        x = 2 * mpmath.mpf(mass)
        scale = mpmath.exp(-mpmath.mpf(mass))
        L, D = mpmath.mpf(1), mpmath.mpf(1)
        out = [scale]
        for n in range(band):
            D = (n * D - x * L) / (n + 1)
            L += D
            out.append(scale * D)
        return np.array([float(v) for v in out])


def _scalar_chunked_coefficients(mass, band):
    # the chunked recurrence one Python float at a time: each chunk's two
    # fundamental solutions, the walk over the chunk ends and the combination,
    # in the same IEEE operations as the vectorized code
    scale, x = math.exp(-mass), 2.0 * mass
    out = [scale]
    l, d = scale * (1.0 - x), scale * -x
    for start in range(1, band + 1, _LAGUERRE_CHUNK):
        ends, sols = [], []
        for L, D in ((1.0, 0.0), (0.0, 1.0)):
            n, sol = float(start), []
            for _ in range(min(_LAGUERRE_CHUNK, band)):
                sol.append(D)
                D = (D * n - x * L) / (n + 1.0)
                L += D
                n += 1.0
            ends.append((L, D))
            sols.append(sol)
        out += [a * l + b * d for a, b in zip(*sols)]
        (l_a, d_a), (l_b, d_b) = ends
        l, d = l * l_a + d * l_b, l * d_a + d * d_b
    return np.array(out[: band + 1])


@pytest.mark.parametrize("band", [0, 1, 2, 3, 4095, 4096, 4097, 4098, 8194])
def test_atomic_coefficients_bit_identical_to_scalar_loop(band):
    # the vectorized chunks, block buffer and walk against their scalar definition
    for mass in (0.05, 0.1, 5.0):
        assert np.array_equal(
            _atomic_inner_coefficients(mass, band), _scalar_chunked_coefficients(mass, band)
        )


@pytest.mark.parametrize("band", [0, 1, 2, 3, 255, 256, 257, 4095, 4096, 4097, 4098, 8194])
def test_atomic_coefficients_match_mpmath_recurrence(band):
    for mass in (0.05, 0.1, 5.0):
        ref = _mpmath_laguerre_coefficients(mass, 8194, 40)[: band + 1]
        assert np.max(np.abs(_atomic_inner_coefficients(mass, band) - ref)) <= 1e-15


def test_atomic_coefficients_prefix_stable():
    # chunk starts do not depend on the band, so a shorter band is a bitwise prefix
    for mass in (0.1, 5.0, 705.0):
        co = _atomic_inner_coefficients(mass, 20000)
        for band in (0, 1, 2, 31, 32, 33, 255, 256, 257, 512, 513, 8193, 19999):
            assert np.array_equal(_atomic_inner_coefficients(mass, band), co[: band + 1])


@pytest.mark.parametrize("mass", [705.0, 708.3])
def test_heavy_atom_matches_mpmath(mass):
    # L_n(2 mass) comes near its bound e^{mass} around n = mass / 2; the
    # coefficients stay finite and accurate up to the underflow of e^{-mass}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        co = _atomic_inner_coefficients(mass, 1 << 14)
    ref = _mpmath_laguerre_coefficients(mass, 1 << 14, 60)
    assert np.max(np.abs(co - ref)) <= 2e-15


@pytest.mark.parametrize("mass", [710.0, 800.0])
def test_heavy_atom_raises_instead_of_overflowing(mass):
    # e^{-mass} underflows above mass 708.4: no inf/NaN coefficient and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError, match=str(mass)):
            _atomic_inner_coefficients(mass, 1 << 14)


# Indices up to 2^20, with both sides of the first two chunk edges of the
# recurrence (chunk j holds n = 1 + 256 j .. 256 (j + 1)).
LAGUERRE_INDICES = (0, 1, 2, 3, 256, 257, 512, 513, 65536, 262144, 524289, 1000003, 1 << 20)


@pytest.mark.parametrize("mass", [0.1, 1.0, 5.0])
def test_atomic_coefficients_match_mpmath_laguerre(mass):
    # coefficient n of exp(-mass (1+z)/(1-z)) is e^{-mass} (L_n(2 mass) - L_{n-1}(2 mass))
    co = _atomic_inner_coefficients(mass, 1 << 20)
    with mpmath.workdps(40):
        m = mpmath.mpf(mass)
        x = 2 * m
        for n in LAGUERRE_INDICES:
            ref = mpmath.exp(-m)
            if n > 0:
                ref *= mpmath.laguerre(n, 0, x) - mpmath.laguerre(n - 1, 0, x)
            assert abs(co[n] - float(ref)) <= 1e-15, n
