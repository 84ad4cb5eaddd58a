import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcct._expderiv import _dyadic_level_points
from bcct.circle_sets import ANGLE_SLACK, TWO_PI, Arc, dist_to_set, rotate_set, validate_set
from bcct.cutoff import (
    TAIL_RADIUS,
    boundary_samples,
    build_cutoff,
    certify_decay,
    eval_g,
    eval_h,
    g_t_derivatives,
)
from bcct.errors import ResolutionError
from bcct.fixtures import geometric_gaps, two_gap


@pytest.fixture(scope="module")
def E():
    return two_gap()


@pytest.fixture(scope="module")
def cut(E):
    return build_cutoff(E, k_max=10)


def angular_endpoint_hits(c, z):
    """Points on the circle within ANGLE_SLACK of a gap endpoint, in angle."""
    on_circle = np.abs(np.abs(z) - 1.0) < 1e-12
    ang = np.angle(z)
    hit = np.zeros(z.shape, dtype=bool)
    for b in c.boundary_angles:
        d = np.mod(ang - b, TWO_PI)
        hit |= on_circle & (np.minimum(d, TWO_PI - d) <= ANGLE_SLACK)
    return hit


def disk_points(rng, count):
    z = rng.uniform(-1, 1, (3 * count, 2)) @ np.array([1.0, 1.0j])
    return z[np.abs(z) < 1.0][:count]


class TestEvalH:
    def test_h_at_zero_direct_summation(self, cut):
        oracle = 0.0 + 0.0j
        for w in cut.whitney:
            oracle -= (
                w.lam * w.midpoint * w.length * math.log(1.0 / w.length)
            ) / (w.radius * w.midpoint)
        assert eval_h(cut, 0.0) == pytest.approx(oracle, abs=1e-13)
        assert oracle.real < 0.0

    def test_single_term_closed_form(self):
        E1 = validate_set([Arc(0.0, 1.0)])
        c = build_cutoff(E1, k_max=0)
        (w,) = c.whitney
        rng = np.random.default_rng(1)
        z = disk_points(rng, 10)
        expect = -(
            w.lam * w.midpoint * w.length * math.log(1.0 / w.length)
        ) / ((1.0 + w.length) * w.midpoint - z)
        assert np.max(np.abs(eval_h(c, z) - expect)) <= 1e-13

    def test_real_part_negative_in_disk(self, cut):
        rng = np.random.default_rng(2)
        z = disk_points(rng, 10**4)
        h = eval_h(cut, z)
        assert np.max(h.real) < 0.0


class TestEvalG:
    def test_modulus_at_zero(self, cut):
        h0 = eval_h(cut, 0.0)
        assert abs(eval_g(cut, 0.0)) == pytest.approx(math.exp(h0.real), rel=1e-13)

    def test_zero_at_gap_endpoints(self, cut, E):
        for angle in E.boundary_angles:
            assert eval_g(cut, np.exp(1j * angle)) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["two_gap", "geometric"]),
        st.one_of(
            st.integers(0, 255).map(lambda j: j * TWO_PI / 256),
            st.floats(0.0, TWO_PI, exclude_max=True),
        ),
        st.integers(8, 16),
    )
    # An endpoint exactly ANGLE_SLACK from a grid point, where the rounded
    # chord (1.0049e-14) and the angle (1e-14) fall on either side.
    @example("two_gap", 1e-14, 8)
    def test_endpoint_zeros_match_angular_rule(self, name, phi, log2):
        # Dyadic rotations put the endpoints on grid points, others between.
        E = rotate_set(two_gap() if name == "two_gap" else geometric_gaps(), phi)
        c = build_cutoff(E, k_max=4)
        z = np.exp(1j * TWO_PI * np.arange(1 << log2) / (1 << log2))
        expect = np.where(angular_endpoint_hits(c, z), 0.0, np.exp(eval_h(c, z)))
        got = boundary_samples(c, log2)
        assert np.array_equal(got, expect)
        assert np.array_equal(eval_g(c, z.reshape(-1, 16)), expect.reshape(-1, 16))
        for m in (0, 1, (1 << log2) // 3):
            assert isinstance(eval_g(c, complex(z[m])), complex)
            assert eval_g(c, complex(z[m])) == expect[m]

    def test_bounded_by_one_on_closed_disk(self, cut):
        rng = np.random.default_rng(3)
        z = disk_points(rng, 5000)
        boundary = np.exp(1j * rng.uniform(0, TWO_PI, 5000))
        assert np.max(np.abs(eval_g(cut, z))) <= 1.0 + 1e-12
        assert np.max(np.abs(eval_g(cut, boundary))) <= 1.0 + 1e-12

    def test_zero_free_inside(self, cut):
        rng = np.random.default_rng(4)
        z = 0.99 * disk_points(rng, 2000)
        assert np.min(np.abs(eval_g(cut, z))) > 0.0

    def test_midpoint_decay_exponent_fit(self, cut):
        # |g| <= |B_j|^(c lambda_j) at Whitney midpoints with a stable c > 0
        mids = [w for w in cut.whitney if 2 <= abs(w.rank) <= 8]
        ratios = []
        for w in mids:
            val = abs(eval_g(cut, w.midpoint))
            if val > 0:
                ratios.append(math.log(val) / (w.lam * math.log(w.length)))
        ratios = np.array(ratios)
        assert np.all(ratios > 0.05)
        # log-regression stability: spread of the fitted exponent is bounded
        assert np.max(ratios) / np.min(ratios) < 40.0

    def test_rotation_symmetry(self, E):
        phi = 0.7321
        c = build_cutoff(E, k_max=8)
        c_rot = build_cutoff(rotate_set(E, phi), k_max=8)
        rng = np.random.default_rng(5)
        z = 0.95 * disk_points(rng, 200)
        left = eval_g(c_rot, z)
        right = eval_g(c, np.exp(-1j * phi) * z)
        assert np.max(np.abs(left - right)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([2, 4, 6]),
        st.integers(8, 14),
        st.integers(0, (1 << 14) - 1),
    )
    @example(4, 14, 1)
    def test_grid_rotation_rolls_boundary_samples(self, gaps, log2, j):
        # Whitney arcs of different geometric gaps have equal lengths, up to
        # rounding that the rotation changes; their lambdas must not follow it.
        E = two_gap() if gaps == 2 else geometric_gaps(gaps)
        n = 1 << log2
        j %= n
        base = boundary_samples(build_cutoff(E), log2)
        got = boundary_samples(build_cutoff(rotate_set(E, TWO_PI * j / n)), log2)
        assert np.array_equal(got == 0.0, np.roll(base == 0.0, j))
        assert np.max(np.abs(got - np.roll(base, j))) <= 1e-10 * np.max(np.abs(base))


class TestTruncation:
    def test_doubling_kmax_within_tail_bound(self, E):
        c1 = build_cutoff(E, k_max=8)
        c2 = build_cutoff(E, k_max=16)
        rng = np.random.default_rng(6)
        z = TAIL_RADIUS * disk_points(rng, 100)
        change = np.max(np.abs(eval_h(c1, z) - eval_h(c2, z)))
        assert change <= 2.0 * c1.tail_bound

    def test_lambda_stable_under_deeper_truncation(self, E):
        c1 = build_cutoff(E, k_max=6)
        c2 = build_cutoff(E, k_max=12)
        lam1 = {(w.parent, w.rank): w.lam for w in c1.whitney}
        for w in c2.whitney:
            if (w.parent, w.rank) in lam1:
                assert w.lam == pytest.approx(lam1[(w.parent, w.rank)], rel=1e-12)


class TestDecayCertificate:
    def test_rho_bounded_for_trivial_orders(self, E):
        c = build_cutoff(E, k_max=10)
        rep = certify_decay(c, E, orders_N=(0,), orders_m=(0,), grid_log2=13)
        assert all(r <= 1.0 + 1e-12 for r in rep.rho(0, 0))

    def test_two_gap_modulus_certificate(self, E):
        # N = 2, m = 0 under the tail-sum rule: decreasing dyadic ratios
        c = build_cutoff(E, k_max=16)
        rep = certify_decay(c, E, orders_N=(0, 2), orders_m=(0,), grid_log2=16)
        assert rep.monotone(0, 0)
        assert rep.monotone(2, 0)

    def test_resolution_guard(self, E):
        c = build_cutoff(E, k_max=4)
        with pytest.raises(ResolutionError):
            certify_decay(c, E, orders_N=(0,), orders_m=(0,), grid_log2=8)

    def test_report_json_shape(self, E):
        c = build_cutoff(E, k_max=8)
        rep = certify_decay(c, E, orders_N=(0, 1), orders_m=(0,), grid_log2=13)
        obj = rep.to_json()
        assert len(obj["levels"]) == 6
        assert {c["N"] for c in obj["checks"]} == {0, 1}


class TestDyadicWindows:
    @pytest.mark.parametrize("make_set", [two_gap, lambda: geometric_gaps(4)])
    @pytest.mark.parametrize("grid_log2", [10, 12])
    def test_windows_match_scalar_distances(self, make_set, grid_log2):
        # oracle: level d holds exactly the grid angles whose scalar distance
        # to E lies in [d, 2d), with those distances
        E = make_set()
        n = 1 << grid_log2
        dist = [dist_to_set(TWO_PI * k / n, E) for k in range(n)]
        seen = []

        def factor(z, m_max):
            seen.append(z)
            return np.ones_like(z), []

        windows = _dyadic_level_points(E, grid_log2, 3, factor, 0)
        assert [w[0] for w in windows] == [2.0**-l for l in range(grid_log2 - 5, grid_log2 - 2)]
        for (d, dsel, _), z in zip(windows, seen):
            expect = [k for k in range(n) if d <= dist[k] < 2.0 * d]
            k = np.rint(np.mod(np.angle(z), TWO_PI) * n / TWO_PI).astype(int) % n
            assert sorted(k) == expect
            assert np.max(np.abs(z - np.exp(1j * TWO_PI * k / n))) <= 1e-15
            assert list(dsel) == [dist[j] for j in k]


class TestDerivativeEngine:
    def test_against_finite_differences(self, cut):
        # central differences of the boundary restriction converge at O(h^2)
        t0 = two_gap().gaps[0].mid_angle  # deep inside a gap, g smooth there
        g0, g1, g2 = g_t_derivatives(cut, np.array([t0]), 2)
        h = 1e-5
        ts = t0 + h * np.arange(-1, 2)
        vals = eval_g(cut, np.exp(1j * ts))
        fd1 = (vals[2] - vals[0]) / (2 * h)
        fd2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
        assert g0[0] == pytest.approx(vals[1], rel=1e-12)
        assert g1[0] == pytest.approx(fd1, rel=1e-6)
        assert g2[0] == pytest.approx(fd2, rel=1e-5)

    def test_boundary_samples_match_eval(self, cut):
        samples = boundary_samples(cut, 10)
        t = TWO_PI * np.arange(1 << 10) / (1 << 10)
        direct = eval_g(cut, np.exp(1j * t))
        assert np.max(np.abs(samples - direct)) == 0.0
