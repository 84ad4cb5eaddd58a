import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcct.cutoff
from bcct._expderiv import _dyadic_level_points, exp_t_derivatives
from bcct.boundary_calculus import grid_angles, grid_points
from bcct.circle_sets import (
    ANGLE_SLACK,
    TWO_PI,
    Arc,
    dist_to_set,
    distances_to_set,
    point_carrier,
    rotate_set,
    validate_set,
)
from bcct.cutoff import (
    TAIL_RADIUS,
    _g_and_h_derivs,
    boundary_samples,
    build_cutoff,
    certify_decay,
    closure_extrema,
    eval_g,
    eval_h,
)
from bcct.errors import ResolutionError
from bcct.fixtures import cantor_set, disk_points, geometric_gaps, two_gap


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
        # the grid samples take the angular rule's zeros exactly; their values
        # come from h's aliased spectrum, within 1e-11 of max |g| of eval_g's
        # (and of 40 digits: test_boundary_samples_match_eval)
        got = boundary_samples(c, log2)
        assert np.array_equal(got == 0.0, expect == 0.0)
        assert np.max(np.abs(got - expect)) <= 1e-11 * np.max(np.abs(expect))
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

    def test_closure_extrema_sums_the_interior_once(self, cut, monkeypatch):
        # h on the interior points serves both Re h and |g|: one pole sum per
        # point set, and the bits of eval_h and eval_g called apart; the gap
        # endpoints among the points take the endpoint zero rule
        rng = np.random.default_rng(6)
        ends = np.exp(1j * np.asarray(cut.boundary_angles))
        interior = np.concatenate((disk_points(rng, 500), ends))
        boundary = np.concatenate((ends, np.exp(1j * rng.uniform(0, TWO_PI, 500))))
        want = (
            float(np.max(np.real(eval_h(cut, interior)))),
            max(float(np.max(np.abs(eval_g(cut, z)), initial=0.0)) for z in (interior, boundary)),
        )
        sizes = []
        pole_sum = bcct.cutoff.pole_sum

        def counted(poles, weights, z, *args, **kwargs):
            sizes.append(np.size(z))
            return pole_sum(poles, weights, z, *args, **kwargs)

        monkeypatch.setattr(bcct.cutoff, "pole_sum", counted)
        got = closure_extrema(cut, interior, boundary)
        assert sizes == [len(interior), len(boundary)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

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

    def test_deepest_window_matches_mpmath(self, E, monkeypatch):
        # h and h'' at the nodes certify_decay evaluates in its deepest window
        # (distance 2^-13 on 2^16), against 40 digits with the exact nodes
        # e^{2 pi i k/n} and the stored poles.  Measured at all 31 nodes:
        # 2.7e-12 relative for h, 6.9e-12 for h''.  The rounded node's 1e-16
        # error is relative to a pole distance of about |B|.
        c = build_cutoff(E, k_max=16)
        seen = []

        def recorded(cut, z, m_max):
            seen.append((z, m_max))
            return _g_and_h_derivs(cut, z, m_max)

        monkeypatch.setattr(bcct.cutoff, "_g_and_h_derivs", recorded)
        rep = certify_decay(c, E, orders_N=(0,), orders_m=(2,), grid_log2=16)
        [(z, m_max)] = seen
        z = z[-rep.points_per_level[-1] :]
        h, h2 = eval_h(c, z), _g_and_h_derivs(c, z, m_max)[1][1]
        n = 1 << 16
        nodes = np.rint(np.angle(z) / TWO_PI * n).astype(int) % n
        assert np.array_equal(z, np.exp(1j * TWO_PI * nodes / n))
        with mpmath.workdps(40):
            poles = [mpmath.mpc(complex(p)) for p in c.poles]
            weights = [mpmath.mpc(complex(w)) for w in c.weights]
            for k, h_k, h2_k in zip(nodes, h, h2):
                zeta = mpmath.expjpi(mpmath.mpf(2 * int(k)) / n)
                ref = -mpmath.fsum(w / (p - zeta) for p, w in zip(poles, weights))
                ref2 = -2 * mpmath.fsum(w / (p - zeta) ** 3 for p, w in zip(poles, weights))
                assert abs(h_k - complex(ref)) <= 3e-11 * abs(complex(ref)), k
                assert abs(h2_k - complex(ref2)) <= 7e-11 * abs(complex(ref2)), k

    def test_deepest_2p20_window_matches_mpmath(self, E, monkeypatch):
        # The same oracle at acceptance scale: all 33 nodes of certify_decay's
        # deepest window on 2^20 (k_max 24, distance 2^-17).  Measured: up to
        # 2.9e-11 relative for h and 1.0e-10 for h''; the tolerances leave a
        # factor of about 3.
        c = build_cutoff(E, k_max=24)
        seen = []

        def recorded(cut, z, m_max):
            seen.append((z, m_max))
            return _g_and_h_derivs(cut, z, m_max)

        monkeypatch.setattr(bcct.cutoff, "_g_and_h_derivs", recorded)
        rep = certify_decay(c, E, orders_N=(0,), orders_m=(2,), grid_log2=20)
        [(z, m_max)] = seen
        z = z[-rep.points_per_level[-1] :]
        h, h2 = eval_h(c, z), _g_and_h_derivs(c, z, m_max)[1][1]
        n = 1 << 20
        nodes = np.rint(np.angle(z) / TWO_PI * n).astype(int) % n
        assert np.array_equal(z, np.exp(1j * TWO_PI * nodes / n))
        with mpmath.workdps(40):
            poles = [mpmath.mpc(complex(p)) for p in c.poles]
            weights = [mpmath.mpc(complex(w)) for w in c.weights]
            for k, h_k, h2_k in zip(nodes, h, h2):
                zeta = mpmath.expjpi(mpmath.mpf(2 * int(k)) / n)
                ref = -mpmath.fsum(w / (p - zeta) for p, w in zip(poles, weights))
                ref2 = -2 * mpmath.fsum(w / (p - zeta) ** 3 for p, w in zip(poles, weights))
                assert abs(h_k - complex(ref)) <= 1e-10 * abs(complex(ref)), k
                assert abs(h2_k - complex(ref2)) <= 3e-10 * abs(complex(ref2)), k


class TestDyadicWindows:
    @pytest.mark.parametrize("make_set", [two_gap, lambda: geometric_gaps(4)])
    @pytest.mark.parametrize("grid_log2", [10, 12])
    def test_windows_match_scalar_distances(self, make_set, grid_log2):
        # oracle: level d holds exactly the grid angles whose scalar distance
        # to E lies in [d, 2d), with those distances; the factor sees every
        # window's points at once, with their grid indices
        E = make_set()
        n = 1 << grid_log2
        dist = [dist_to_set(TWO_PI * k / n, E) for k in range(n)]
        seen = []

        def factor(z, nodes, m_max):
            seen.append((z, nodes))
            return np.ones_like(z), []

        windows = _dyadic_level_points(E, grid_log2, 3, factor, 0)
        assert [w[0] for w in windows] == [2.0**-l for l in range(grid_log2 - 5, grid_log2 - 2)]
        [(z, nodes)] = seen
        assert np.array_equal(z, np.exp(1j * TWO_PI * nodes / n))
        start = 0
        for d, dsel, _ in windows:
            expect = [k for k in range(n) if d <= dist[k] < 2.0 * d]
            k = nodes[start : start + len(expect)]
            assert list(k) == expect
            assert list(dsel) == [dist[j] for j in k]
            start += len(expect)
        assert start == len(nodes)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _whole_grid_windows(E, grid_log2, levels, factor, m_max):
    """The dyadic windows as _dyadic_level_points selected them before it
    cut candidates around the endpoints: distances over the whole grid."""
    l_max = grid_log2 - 3
    l_min = l_max - levels + 1
    t = grid_angles(grid_log2)
    dist = distances_to_set(t, E)
    windows = []
    for l in range(l_min, l_max + 1):
        d = 2.0 ** (-l)
        nodes = np.flatnonzero((dist >= d) & (dist < 2.0 * d))
        if len(nodes) < 8:
            raise ResolutionError(f"level 2^-{l}: fewer than 8 grid points at that distance")
        windows.append((d, nodes))
    nodes = np.concatenate([k for _, k in windows])
    z = np.exp(1j * t[nodes])
    value, z_derivs = factor(z, nodes, m_max)
    mags = [np.abs(g) for g in exp_t_derivatives(z, value, z_derivs, m_max)]
    cuts = np.cumsum([len(k) for _, k in windows])[:-1]
    per_window = zip(*(np.split(m, cuts) for m in mags))
    return [(d, dist[k], list(ms)) for (d, k), ms in zip(windows, per_window)]


class TestEndpointWindows:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["two_gap", "geometric_gaps", "point"]),
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.integers(8, 20),
        st.integers(1, 6),
    )
    @example("two_gap", 0.0, 20, 6)  # criterion 2 at 2^20
    @example("point", 0.0, 8, 5)  # l_min = 1: every node is a candidate
    @example("geometric_gaps", TWO_PI * 3 / 1024, 10, 4)  # endpoints on grid points
    def test_bits_of_the_whole_grid_windows(self, name, phi, grid_log2, levels):
        levels = min(levels, grid_log2 - 3)
        E = {"two_gap": two_gap, "geometric_gaps": lambda: geometric_gaps(4),
             "point": lambda: point_carrier(0.0)}[name]()
        E = rotate_set(E, phi)
        seen = []

        def factor(z, nodes, m_max):
            seen.append((z, nodes))
            return z * z, [2.0 * z, np.full_like(z, 2.0)]

        try:
            expect = _whole_grid_windows(E, grid_log2, levels, factor, 2)
        except ResolutionError:
            with pytest.raises(ResolutionError):
                _dyadic_level_points(E, grid_log2, levels, factor, 2)
            return
        got = _dyadic_level_points(E, grid_log2, levels, factor, 2)
        (z_ref, nodes_ref), (z, nodes) = seen
        assert np.array_equal(nodes, nodes_ref)
        assert np.array_equal(_bits(z), _bits(z_ref))
        assert len(got) == len(expect)
        for (d, dist, mags), (d_ref, dist_ref, mags_ref) in zip(got, expect):
            assert d == d_ref
            assert np.array_equal(_bits(dist), _bits(dist_ref))
            for m, m_ref in zip(mags, mags_ref):
                assert np.array_equal(_bits(m), _bits(m_ref))


class TestDerivativeEngine:
    def test_against_finite_differences(self, cut):
        # central differences of the boundary restriction converge at O(h^2)
        t0 = two_gap().gaps[0].mid_angle  # deep inside a gap, g smooth there
        z0 = np.exp(1j * np.array([t0]))
        g0, g1, g2 = exp_t_derivatives(z0, *_g_and_h_derivs(cut, z0, 2), 2)
        h = 1e-5
        ts = t0 + h * np.arange(-1, 2)
        vals = eval_g(cut, np.exp(1j * ts))
        fd1 = (vals[2] - vals[0]) / (2 * h)
        fd2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
        assert g0[0] == pytest.approx(vals[1], rel=1e-12)
        assert g1[0] == pytest.approx(fd1, rel=1e-6)
        assert g2[0] == pytest.approx(fd2, rel=1e-5)

    def test_boundary_samples_match_eval(self):
        # g's grid samples come from h's aliased spectrum, eval_g from the
        # direct pole sum.  On criterion 3's 66 poles (k_max 16) both take
        # the same zeros, differ by at most 1e-11 of max |g| = 0.398, and
        # match 40 digits at the exact nodes e^{2 pi i m/n} with the stored
        # poles.  Measured against the oracle at _oracle_nodes: 4.2e-14,
        # 1.9e-13 and 2.5e-14 at 2^8, 2^16 and 2^21; eval_g, whose nodes are
        # rounded, 9.5e-15, 6.5e-13 and 7.3e-13; the two samplers, 4.2e-14,
        # 6.5e-13 and 7.2e-13 apart.
        c = build_cutoff(two_gap(), k_max=16)
        for log2 in (8, 16, 21):
            got = boundary_samples(c, log2)
            direct = eval_g(c, grid_points(log2))
            scale = np.max(np.abs(direct))
            assert np.array_equal(got == 0.0, direct == 0.0)
            assert np.max(np.abs(got - direct)) <= 1e-11 * scale
            nodes = _oracle_nodes(c, got, direct)
            assert np.max(np.abs(got[nodes] - _g_oracle(c, nodes, 1 << log2))) <= 1e-11 * scale

    def test_boundary_samples_on_many_gaps(self):
        # The Cantor-type set of depth 6: 64 gaps, 1344 poles, on 2^16.  Its
        # poles come within 5.6e-8 of the circle, so eval_g's rounded nodes
        # move it by up to 1.5e-11 from the exact nodes' values (measured at
        # the node where the two samplers differ most, 1.6e-11 apart).  The
        # aliased spectrum takes the exact nodes: measured 7.9e-13 there and
        # at most 1.4e-13 at 32 nodes spread over the circle.
        c = build_cutoff(cantor_set(6), k_max=10)
        assert len(c.poles) == 1344
        got = boundary_samples(c, 16)
        worst = np.argmax(np.abs(got - eval_g(c, grid_points(16))))
        nodes = np.append(np.flatnonzero(got)[:: 1 << 11], worst)
        assert np.max(np.abs(got[nodes] - _g_oracle(c, nodes, 1 << 16))) <= 1e-11 * np.max(np.abs(got))


def _oracle_nodes(c, got, direct):
    """Grid nodes for the 40-digit oracle: 64 spread over the circle, the
    four on each side of every gap endpoint, the largest |g| and the largest
    difference of the two samplers; the zeros left out."""
    n = len(got)
    near = [round(b * n / TWO_PI) + d for b in c.boundary_angles for d in range(-4, 5)]
    extra = [np.argmax(np.abs(direct)), np.argmax(np.abs(got - direct))]
    nodes = np.unique(np.concatenate([np.linspace(0, n - 1, 64).astype(int), np.mod(near, n), extra]))
    return nodes[got[nodes] != 0.0]


def _g_oracle(c, nodes, n):
    """exp(h) at the exact nodes e^{2 pi i k/n} with the stored poles and
    weights, to 40 digits."""
    with mpmath.workdps(40):
        poles = [mpmath.mpc(complex(p)) for p in c.poles]
        weights = [mpmath.mpc(complex(w)) for w in c.weights]
        out = []
        for k in nodes:
            zeta = mpmath.expjpi(mpmath.mpf(2 * int(k)) / n)
            out.append(complex(mpmath.exp(-mpmath.fsum(w / (p - zeta) for p, w in zip(poles, weights)))))
    return np.array(out)
