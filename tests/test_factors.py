import inspect
import json
import math
import multiprocessing
import os
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest

from bcct import _expderiv
from bcct._expderiv import _BLOCK_ENTRIES, _SPLIT_ENTRIES, _block_buffers, _pole_rows, pole_sum
from bcct.boundary_calculus import grid_angles
from bcct.circle_sets import TWO_PI, Arc, point_carrier, validate_set
from bcct.cutoff import _g_and_h_derivs, build_cutoff
from bcct.errors import ResolutionError, WeightNotLogIntegrable
from bcct.factors import (
    Atom,
    InnerFunction,
    _herglotz_log,
    _atomic_inner_coefficients,
    _blaschke_factor_coefficients,
    SingularMeasure,
    boundary_weight,
    certify_theta_derivatives,
    certify_W_derivatives,
    herglotz_exp,
    inner_singular_eval,
    measure_from_json,
    outer_from_weight,
)
from bcct.fixtures import taper_weight, two_gap
from bcct.transforms import interior_lattice

G = 13


@pytest.fixture(scope="module")
def E():
    return two_gap()


class TestBoundaryWeight:
    def test_rejects_zero_weight(self, E):
        with pytest.raises(WeightNotLogIntegrable):
            boundary_weight(E, 0.0, G)

    def test_log_integral_quadrature(self, E):
        w = boundary_weight(E, 0.25, G)
        frac = np.count_nonzero(w.mask) / (1 << G)
        assert w.log_integral == pytest.approx(frac * math.log(0.25), abs=1e-13)


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
        from bcct.boundary_calculus import evaluate_in_disk

        w = taper_weight(E, 14)
        W = outer_from_weight(w)
        z = np.array([0.2, -0.4 + 0.3j, 0.1 - 0.6j])
        series_vals = evaluate_in_disk(W.series, z)
        herglotz_vals = W.eval(z)
        assert np.max(np.abs(series_vals - herglotz_vals)) <= 1e-6

    def test_series_is_cached_and_read_only(self, E):
        W = outer_from_weight(taper_weight(E, G))
        assert W.series is W.series
        assert len(W.series) == (1 << G) // 2
        with pytest.raises(ValueError):
            W.series.coeffs[0] = 0.0


class TestHerglotzExp:
    """Inside the disk herglotz_exp takes the spectral Cauchy sum; nearer
    the circle than 1 - 1e-6 it takes the pole sum of _herglotz_log."""

    def test_interior_matches_pole_sum_and_mpmath(self):
        u = outer_from_weight(taper_weight(two_gap(), 10)).log_modulus
        n = len(u)
        z = interior_lattice(1024, 0.95)[-12:]  # the lattice's outermost points
        spectral = herglotz_exp(u, z)
        by_poles = np.exp(_herglotz_log(u, z)[0])
        assert np.max(np.abs(spectral - by_poles) / np.abs(by_poles)) <= 1e-13
        nodes = np.exp(1j * grid_angles(10))
        with mpmath.workdps(30):
            terms = [(mpmath.mpc(zeta), mpmath.mpf(um)) for zeta, um in zip(nodes, u) if um]
            for zi, val in zip(z, spectral):
                zm = mpmath.mpc(zi)
                H = mpmath.fsum(um * (zeta + zm) / (zeta - zm) for zeta, um in terms) / n
                ref = complex(mpmath.exp(H))
                assert abs(val - ref) <= 1e-13 * abs(ref), zi

    def test_near_circle_is_the_pole_sum(self):
        u = outer_from_weight(taper_weight(two_gap(), 10)).log_modulus
        z_edge = (1.0 - 1e-7) * np.exp(0.3j)
        by_poles = np.exp(_herglotz_log(u, z_edge)[0])
        assert herglotz_exp(u, z_edge) == by_poles
        assert herglotz_exp(u, np.array([0.5, z_edge]))[1] == by_poles


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
        assert inner_singular_eval(nu, 0.0) == pytest.approx(math.exp(-0.25), abs=1e-14)

    def test_single_atom_on_real_axis(self):
        nu = SingularMeasure((Atom(0.0, 0.3),))
        for x in (-0.5, 0.0, 0.25, 0.9):
            expect = math.exp(-0.3 * (1 + x) / (1 - x))
            assert inner_singular_eval(nu, x) == pytest.approx(expect, rel=1e-13)

    def test_radial_limit_away_from_atom(self):
        nu = SingularMeasure((Atom(0.0, 0.1),))
        z = (1.0 - 1e-6) * np.exp(1j * np.linspace(0.5, TWO_PI - 0.5, 64))
        vals = np.abs(inner_singular_eval(nu, z))
        assert np.min(vals) >= 1.0 - 1e-3

    def test_bounded_and_multiplicative(self):
        nu1 = SingularMeasure((Atom(0.3, 0.2),))
        nu2 = SingularMeasure((Atom(2.0, 0.1),))
        both = SingularMeasure(nu1.atoms + nu2.atoms)
        rng = np.random.default_rng(2)
        z = 0.97 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(1j * rng.uniform(0, TWO_PI, 400))
        v1 = np.asarray(inner_singular_eval(nu1, z))
        v2 = np.asarray(inner_singular_eval(nu2, z))
        v = np.asarray(inner_singular_eval(both, z))
        assert np.max(np.abs(v)) <= 1.0
        assert np.max(np.abs(v - v1 * v2)) <= 1e-10

    def test_carrier_tag_enforced(self):
        F = point_carrier(1.0)
        with pytest.raises(ValueError):
            SingularMeasure((Atom(2.0, 0.1, "C"),), carrier_C=F)
        nu = SingularMeasure((Atom(1.0, 0.1, "C"),), carrier_C=F)
        assert nu.part_mass("C") == pytest.approx(0.1)
        assert nu.restricted("K").total_mass == 0.0


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

    def test_coefficients_of_one_factor_and_of_none(self):
        atom = Atom(0.7, 0.3)
        co = InnerFunction((), SingularMeasure((atom,))).coefficients(64)
        fac = _atomic_inner_coefficients(0.3, 64) * np.exp(-0.7j * np.arange(65))
        assert np.array_equal(co, fac)
        assert np.array_equal(InnerFunction().coefficients(4), np.eye(1, 5).ravel())


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

    def test_atom_outside_carrier_rejected(self):
        F = point_carrier(0.0)
        theta = InnerFunction((), SingularMeasure((Atom(1.0, 0.1),)))
        with pytest.raises(ValueError):
            certify_theta_derivatives(theta, F)


class TestJsonInterfaces:
    def test_measure_schema(self, tmp_path):
        p = tmp_path / "nu.json"
        p.write_text(
            '{"atoms": [{"angle": 0.5, "mass": 0.1, "part": "C"},'
            ' {"angle": 2.0, "mass": 0.2, "part": "K"}]}'
        )
        nu = measure_from_json(p)
        assert nu.total_mass == pytest.approx(0.3)
        assert nu.part_mass("K") == pytest.approx(0.2)

    @pytest.mark.parametrize("angle, mass", [(0.0, math.nan), (0.0, math.inf), (math.inf, 0.1),
                                             (math.nan, 0.1), (0.0, 0.0)])
    def test_atom_needs_finite_angle_and_positive_finite_mass(self, angle, mass):
        with pytest.raises(ValueError):
            Atom(angle, mass)

    def test_measure_file(self, tmp_path):
        p = tmp_path / "nu.json"
        p.write_text(json.dumps({"atoms": [{"angle": 1.0, "mass": 0.5}]}))
        nu = measure_from_json(p)
        assert nu.atoms[0].part == "C"


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
    return (lambda z: W.log_z_derivs(z, 3)), oracle


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
    nz = np.nonzero(u)[0]
    zeta = np.exp(1j * TWO_PI * nz / len(u))
    return zeta, 2.0 * zeta * u[nz] / len(u)


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


# ---------------------------------------------------------------------------
# pole_sum split between two threads against the serial block loop
# ---------------------------------------------------------------------------

@pytest.fixture
def worker_rows(monkeypatch):
    """Split as on two CPUs (on one as well), and record the rows that each
    second thread sums."""
    rows = []
    serial = _expderiv._pole_rows

    def recorded(poles, weights, points, out, m_max, buffers):
        if threading.current_thread() is not threading.main_thread():
            rows.append(len(points))
        serial(poles, weights, points, out, m_max, buffers)

    monkeypatch.setattr(_expderiv, "_CPUS", 2)
    monkeypatch.setattr(_expderiv, "_pole_rows", recorded)
    return rows


def _assert_split_equals_serial(poles, weights, z, worker_rows, splits):
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    step = max(1, _BLOCK_ENTRIES // len(poles))
    for m_max in range(4):
        worker_rows.clear()
        ours = pole_sum(poles, weights, z, m_max)
        ref = [np.empty(flat.shape, dtype=complex) for _ in range(m_max + 1)]
        _pole_rows(poles, weights, flat, ref, m_max, _block_buffers(len(flat), len(poles)))
        for k, (a, b) in enumerate(zip(ours, ref)):
            assert a.shape == z.shape
            assert np.array_equal(a, b.reshape(z.shape)), (m_max, k)
        assert len(worker_rows) == splits
        for rows in worker_rows:  # the second thread starts on a block boundary
            assert (len(flat) - rows) % step == 0
            assert 0 < rows and abs(len(flat) - 2 * rows) < 2 * step


def test_pole_sum_splits_at_the_threshold(worker_rows):
    poles, weights = _cutoff_poles()
    step = _BLOCK_ENTRIES // len(poles)
    first = -(-_SPLIT_ENTRIES // len(poles))  # the fewest points that split
    assert (first - 1) * len(poles) < _SPLIT_ENTRIES <= first * len(poles)
    rng = np.random.default_rng(8)
    for n, splits in ((first - 1, 0), (first, 1), (first + 7, 1)):
        assert n % step != 0
        z = np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        _assert_split_equals_serial(poles, weights, z, worker_rows, splits)


def test_pole_sum_split_shapes(worker_rows):
    poles, weights = _cutoff_poles()
    rng = np.random.default_rng(9)
    z2 = 0.9 * np.exp(1j * rng.uniform(0.0, TWO_PI, (2, 33_000)))
    _assert_split_equals_serial(poles, weights, z2, worker_rows, 1)
    for z in (np.zeros(0), 0.3 - 0.2j):
        _assert_split_equals_serial(poles, weights, z, worker_rows, 0)


def test_pole_sum_split_with_more_poles_than_a_block(worker_rows):
    # one point per block (step 1)
    rng = np.random.default_rng(10)
    n_poles = _BLOCK_ENTRIES + 5
    poles = 1.01 * np.exp(1j * rng.uniform(0.0, TWO_PI, n_poles))
    weights = rng.normal(size=n_poles) + 1j * rng.normal(size=n_poles)
    z = 0.95 * np.exp(1j * rng.uniform(0.0, TWO_PI, 129))
    assert len(z) * n_poles >= _SPLIT_ENTRIES
    _assert_split_equals_serial(poles, weights, z, worker_rows, 1)


def test_pole_sum_raises_what_the_second_thread_raised(monkeypatch):
    def failing(poles, weights, points, out, m_max, buffers):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("second half")

    monkeypatch.setattr(_expderiv, "_CPUS", 2)
    monkeypatch.setattr(_expderiv, "_pole_rows", failing)
    poles, weights = _cutoff_poles()
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="second half"):
        pole_sum(poles, weights, np.exp(1j * grid_angles(16)))
    assert threading.active_count() == threads  # joined


def test_pole_sum_worker_count_is_not_a_setting():
    # a second thread only where the process may use two CPUs; no parameter
    # or environment variable chooses it
    assert list(inspect.signature(pole_sum).parameters) == ["poles", "weights", "z", "m_max"]
    source = inspect.getsource(_expderiv)
    assert "environ" not in source and "getenv" not in source
    if hasattr(os, "sched_getaffinity"):
        assert _expderiv._CPUS == len(os.sched_getaffinity(0))


def test_pole_sum_from_many_threads():
    # callers on more threads than cores, each with its own second thread,
    # must each get their own rows back
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_pole_sum_in_a_forked_child():
    # a fork copies only the calling thread; a split in the child must not
    # wait on a thread of the parent
    poles, weights = _cutoff_poles()
    z = np.exp(1j * grid_angles(16))  # 2^16 x 66 entries: a split sum
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

def _scalar_laguerre_coefficients(mass, band):
    # the recurrence as a plain float64 loop, one step per iteration
    x = 2.0 * mass
    Ls = np.empty(band + 1)
    Ls[0] = 1.0
    if band >= 1:
        Ls[1] = 1.0 - x
    for n in range(1, band):
        Ls[n + 1] = ((2 * n + 1 - x) * Ls[n] - n * Ls[n - 1]) / (n + 1)
    out = np.empty(band + 1)
    out[0] = 1.0
    out[1:] = Ls[1:] - Ls[:-1]
    return math.exp(-mass) * out


@pytest.mark.parametrize("band", [0, 1, 2, 3, 4095, 4096, 4097, 4098, 8194])
def test_atomic_coefficients_bit_identical_to_scalar_loop(band):
    for mass in (0.05, 0.1, 5.0):
        assert np.array_equal(
            _atomic_inner_coefficients(mass, band), _scalar_laguerre_coefficients(mass, band)
        )


@pytest.mark.parametrize("mass", [705.0, 710.0, 800.0])
def test_heavy_atom_raises_instead_of_overflowing(mass):
    # e^{-mass} underflows above mass 708.4; below it L_n(2 mass) overflows
    # at this band.  Either way no inf/NaN coefficient and no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError, match=str(mass)):
            _atomic_inner_coefficients(mass, 1 << 14)


# Indices up to 2^20, with both sides of the first two chunk edges of the
# recurrence (steps n = 1..4096 fill L_2..L_4097).
LAGUERRE_INDICES = (0, 1, 2, 3, 4097, 4098, 8193, 8194, 65536, 262144, 524289, 1000003, 1 << 20)


@pytest.mark.parametrize("mass", [0.1, 5.0])
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
            assert abs(co[n] - float(ref)) <= 1e-12, n
