import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcct import circle_sets
from bcct.circle_sets import (
    TWO_PI,
    Arc,
    assign_lambdas,
    dist_to_set,
    distances_to_set,
    point_carrier,
    rotate_set,
    validate_set,
    whitney_decompose,
    whitney_exactness,
    wrap_angle,
    _tail_lambda,
)
from bcct.errors import DegenerateArc, OverlapError
from bcct.fixtures import cantor_set


def disjoint_gaps(rng, count):
    """Random pairwise disjoint gaps with a margin between closures."""
    cuts = np.sort(rng.uniform(0.0, 1.0, 2 * count))
    gaps = []
    for i in range(count):
        a, b = cuts[2 * i], cuts[2 * i + 1]
        if b - a > 1e-3:
            gaps.append(Arc(TWO_PI * a, TWO_PI * (b - 1e-4)))
    return gaps


class TestValidateSet:
    def test_single_gap_entropy_and_measure(self):
        E = validate_set([Arc(0.0, math.pi)])
        assert E.measure == pytest.approx(0.5, abs=1e-15)
        assert E.entropy == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_geometric_gaps_entropy_against_direct_summation(self):
        # gaps of lengths 1/4, 1/8, ..., 1/2^(m+1), placed disjointly
        starts = [0.0, 5 / 16, 5 / 8, 13 / 16]
        gaps = [
            Arc(TWO_PI * s, TWO_PI * (s + 2.0 ** (-(i + 2))))
            for i, s in enumerate(starts)
        ]
        E = validate_set(gaps)
        oracle = 0.0
        for i in range(4):
            ell = 2.0 ** (-(i + 2))
            oracle += ell * (i + 2) * math.log(2.0)
        assert E.entropy == pytest.approx(oracle, abs=1e-14)

    def test_touching_gaps_rejected(self):
        with pytest.raises(OverlapError):
            validate_set([Arc(0.0, 1.0), Arc(1.0, 2.0)])

    def test_overlapping_gaps_rejected(self):
        with pytest.raises(OverlapError):
            validate_set([Arc(0.0, 1.5), Arc(1.0, 2.0)])

    def test_wraparound_overlap_rejected(self):
        with pytest.raises(OverlapError):
            validate_set([Arc(5.0, 5.0 + 2.0), Arc(0.2, 0.4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_set([])

    def test_point_carrier(self):
        F = point_carrier(1.0)
        assert F.measure == pytest.approx(0.0, abs=1e-15)
        assert F.entropy == pytest.approx(0.0, abs=1e-15)
        assert dist_to_set(1.0, F) == 0.0
        assert dist_to_set(1.0 + math.pi, F) == pytest.approx(0.5, abs=1e-12)

    def test_entropy_rotation_invariant(self):
        E = validate_set([Arc(0.1, 0.9), Arc(2.0, 2.5)])
        R = rotate_set(E, 1.2345)
        assert abs(E.entropy - R.entropy) <= 1e-12


class TestWhitney:
    def test_dyadic_lengths(self):
        # parent of normalized length 0.3
        E = validate_set([Arc(0.0, TWO_PI * 0.3)])
        arcs = whitney_decompose(E, 2)
        by_rank = {w.rank: w for w in arcs}
        assert by_rank[0].length == pytest.approx(0.1, abs=1e-15)
        for k in (1, -1):
            assert by_rank[k].length == pytest.approx(0.05, abs=1e-15)
        for k in (2, -2):
            assert by_rank[k].length == pytest.approx(0.025, abs=1e-15)

    def test_distance_equals_length(self):
        E = validate_set([Arc(0.3, 0.3 + TWO_PI * 0.21), Arc(4.0, 4.9)])
        for w in whitney_decompose(E, 10):
            ends = distances_to_set(np.array([w.arc.start, w.arc.end]), E)
            assert abs(ends.min() - w.length) <= 1e-12

    def test_kmax_zero_is_middle_third(self):
        E = validate_set([Arc(0.0, 1.2), Arc(2.0, 2.9)])
        arcs = whitney_decompose(E, 0)
        assert len(arcs) == 2
        for w in arcs:
            gap = E.gaps[w.parent]
            assert w.rank == 0
            assert w.length == pytest.approx(gap.length / 3.0, abs=1e-15)
            assert w.arc.mid_angle == pytest.approx(gap.mid_angle, abs=1e-12)

    def test_tiling_reconstructs_gap(self):
        E = validate_set([Arc(0.0, TWO_PI * 0.17)])
        k_max = 9
        arcs = whitney_decompose(E, k_max)
        total = sum(w.length for w in arcs)
        residual = 2.0 * E.gaps[0].length / (3.0 * 2.0**k_max)
        assert total + residual == pytest.approx(E.gaps[0].length, abs=1e-12)
        # arcs tile without overlap: endpoints chain from one to the next
        ordered = sorted(arcs, key=lambda w: w.arc.start)
        for a, b in zip(ordered, ordered[1:]):
            assert b.arc.start == pytest.approx(a.arc.end, abs=1e-12)

    def test_whitney_midpoint_distance_range(self):
        # brute-force nearest endpoint oracle
        E = validate_set([Arc(0.5, 0.5 + TWO_PI * 0.11)])
        ends = E.boundary_angles
        for w in whitney_decompose(E, 6):
            t = w.arc.mid_angle
            brute = min(
                min(abs(t - e + s) for s in (-TWO_PI, 0.0, TWO_PI)) for e in ends
            ) / TWO_PI
            assert w.length <= brute + 1e-12
            assert brute <= 1.5 * w.length + 1e-12
            assert dist_to_set(t, E) == pytest.approx(brute, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(0, 6))
    def test_whitney_rules_random(self, seed, count, k_max):
        rng = np.random.default_rng(seed)
        gaps = disjoint_gaps(rng, count)
        if not gaps:
            return
        E = validate_set(gaps)
        for w in whitney_decompose(E, k_max):
            expect = E.gaps[w.parent].length / (3.0 * 2.0 ** abs(w.rank))
            assert abs(w.length - expect) <= 1e-12
        assert whitney_exactness(E, k_max)[1] <= 1e-12

    def test_length_rule_reads_the_arcs(self, monkeypatch):
        # the length rule is checked against each arc's own endpoints, so a
        # decomposition whose arcs end 1e-9 rad past the rule fails it
        E = validate_set([Arc(0.3, 0.3 + TWO_PI * 0.21), Arc(4.0, 4.9)])
        assert whitney_exactness(E, 10)[0] <= 1e-12
        exact = circle_sets.whitney_decompose
        monkeypatch.setattr(circle_sets, "whitney_decompose", lambda E, k_max: [
            replace(w, arc=Arc(w.arc.start, w.arc.end + 1e-9)) for w in exact(E, k_max)
        ])
        length, _ = whitney_exactness(E, 10)
        assert length > 1e-12
        assert length == pytest.approx(1e-9 / TWO_PI, rel=1e-3)

    def test_distance_rule_reads_the_arcs(self, monkeypatch):
        # the distance rule is checked against each arc's own endpoints, so a
        # decomposition whose arcs are moved 1e-9 rad along the circle fails
        # it while their lengths still pass
        E = validate_set([Arc(0.3, 0.3 + TWO_PI * 0.21), Arc(4.0, 4.9)])
        assert whitney_exactness(E, 10)[1] <= 1e-12
        exact = circle_sets.whitney_decompose
        monkeypatch.setattr(circle_sets, "whitney_decompose", lambda E, k_max: [
            replace(w, arc=Arc(w.arc.start + 1e-9, w.arc.end + 1e-9)) for w in exact(E, k_max)
        ])
        length, distance = whitney_exactness(E, 10)
        assert length <= 1e-12
        assert distance > 1e-12


class TestDistances:
    def test_gap_midpoint(self):
        E = validate_set([Arc(0.0, TWO_PI * 0.4)])
        assert dist_to_set(TWO_PI * 0.2, E) == pytest.approx(0.2, abs=1e-14)

    def test_point_in_set(self):
        E = validate_set([Arc(1.0, 2.0)])
        assert dist_to_set(0.5, E) == 0.0
        assert dist_to_set(1.0, E) == 0.0  # endpoint belongs to the set
        assert dist_to_set(2.0, E) == 0.0

    @pytest.mark.parametrize("depth", [1, 6, 10], ids=["2_gaps", "64_gaps", "1024_gaps"])
    @pytest.mark.parametrize("phi", [0.0, 5.9, -3.0], ids=["unrotated", "wrapped", "negative"])
    def test_sorted_lookup_is_the_loop_over_gaps(self, depth, phi):
        # one searchsorted finds each point's gap; the bits are those of the
        # rule applied gap by gap, on random angles, on the Whitney endpoints,
        # and next to the gap endpoints up to 1e5 periods away, where t - start
        # and the wrapped angle round apart (the next gap's pass covers that),
        # with a gap through angle 0 when rotated
        E = cantor_set(depth) if phi == 0.0 else rotate_set(cantor_set(depth), phi)
        assert len(E.gaps) == 1 << depth
        rng = np.random.default_rng(depth)
        ends = np.array([(w.arc.start, w.arc.end) for w in whitney_decompose(E, 4)])
        turns = rng.integers(-100_000, 100_000, 20_000)
        far = rng.choice(np.ravel([(g.start, g.end) for g in E.gaps]), turns.size) + TWO_PI * turns
        far += rng.uniform(-1e-12, 1e-12, turns.size) * (1 + np.abs(turns))
        for t in (rng.uniform(-20.0, 20.0, 5000), ends, far):
            got = distances_to_set(t, E)
            assert got.shape == t.shape
            assert np.array_equal(got.view(np.int64), _distances_gap_by_gap(t, E).view(np.int64))
        assert np.count_nonzero(distances_to_set(ends, E)) == ends.size


def _distances_gap_by_gap(angles, E):
    """The distance rule applied to every gap in turn (the reference)."""
    t = np.asarray(angles, dtype=float)
    out = np.zeros_like(t)
    for g in E.gaps:
        u = np.mod(t - g.start, TWO_PI)
        span = g.end - g.start
        inside = (u > circle_sets.ANGLE_SLACK) & (u < span - circle_sets.ANGLE_SLACK)
        out = np.where(inside, np.minimum(u, span - u) / TWO_PI, out)
    return out


class TestCantorSet:
    @pytest.mark.parametrize("depth", [0, 1, 4, 6, 8])
    def test_measure_and_entropy(self, depth):
        # level j keeps 1 - 0.25 / (2^j + 1) of each interval and cuts 2^j
        # gaps of 0.25 L_j / (2^j + 1), L_j = (1 - 1e-3) prod_{i<j} (1 -
        # 0.25 / (2^i + 1)) / 2^j; the extra gap has length 1e-3
        E = cantor_set(depth)
        keep = [1.0 - 0.25 / (2**j + 1) for j in range(depth)]
        lengths = [1e-3] + [
            0.25 * (1.0 - 1e-3) * math.prod(keep[:j]) / 2**j / (2**j + 1)
            for j in range(depth) for _ in range(2**j)
        ]
        assert len(E.gaps) == 1 << depth
        assert E.measure == pytest.approx((1.0 - 1e-3) * math.prod(keep), rel=1e-13)
        assert sorted(g.length for g in E.gaps) == pytest.approx(sorted(lengths), rel=1e-12)
        assert E.entropy == pytest.approx(math.fsum(-L * math.log(L) for L in lengths), rel=1e-13)

    def test_the_many_gap_table(self):
        # entropy sums and smallest gaps at depths 4, 6 and 8
        for depth, entropy, smallest in ((4, 0.818, 1e-3), (6, 0.945, 1.726e-4), (8, 0.989, 1.091e-5)):
            E = cantor_set(depth)
            assert E.entropy == pytest.approx(entropy, abs=1e-3)
            assert min(g.length for g in E.gaps) == pytest.approx(smallest, rel=1e-3)


class TestLambdas:
    def test_tail_sum_geometric(self):
        # c_j = 2^-j, j >= 1: T_j = 2^(1-j) and lambda_j = max(1, 2^((j-1)/2))
        # for the infinite family; the finite computation uses suffix sums,
        # which agree with the closed form away from the truncation end.
        j = np.arange(1, 61, dtype=float)
        c = 2.0**-j
        lam = _tail_lambda(c)
        suffix = np.cumsum(c[::-1])[::-1]
        assert np.allclose(lam, np.maximum(1.0, suffix**-0.5), rtol=1e-14)
        expect = np.maximum(1.0, 2.0 ** ((j - 1) / 2.0))
        assert np.allclose(lam[:30], expect[:30], rtol=1e-6)

    def test_three_gap_mass_bound_by_direct_summation(self):
        E = validate_set([Arc(0.0, 0.8), Arc(1.5, 2.0), Arc(3.0, 4.2)])
        arcs = assign_lambdas(whitney_decompose(E, 12))
        c_sum = 0.0
        mass = 0.0
        for w in arcs:
            c = w.length * math.log(1.0 / w.length)
            c_sum += c
            mass += w.lam * c
        assert mass <= 2.0 * math.sqrt(c_sum) + c_sum + 1e-12

    def test_lambda_monotone_along_decreasing_c(self):
        E = validate_set([Arc(0.0, 0.8), Arc(2.0, 2.6)])
        arcs = assign_lambdas(whitney_decompose(E, 8))
        cs = np.array([w.length * math.log(1.0 / w.length) for w in arcs])
        lam = np.array([w.lam for w in arcs])
        order = np.argsort(-cs, kind="stable")
        assert np.all(np.diff(lam[order]) >= -1e-14)
        assert lam[order][-1] > lam[order][0]

    def test_degenerate_arc_rejected(self):
        from bcct.circle_sets import WhitneyArc

        bad = WhitneyArc(parent=0, rank=0, arc=Arc(0.0, TWO_PI), length=1.0)
        with pytest.raises(DegenerateArc):
            assign_lambdas([bad])


class TestResiduals:
    def test_residual_lengths(self):
        from bcct.circle_sets import whitney_residuals

        E = validate_set([Arc(0.0, TWO_PI * 0.3)])
        ((n, r),) = whitney_residuals(E, 4)
        assert n == 0
        assert r == pytest.approx(0.3 / 48.0, abs=1e-15)
        arcs = whitney_decompose(E, 4)
        tiled = sum(w.length for w in arcs)
        assert tiled + 2 * r == pytest.approx(0.3, abs=1e-14)


@pytest.mark.parametrize(
    "t, want",
    [
        (-1e-17, 0.0),  # t + 2 pi rounds to 2 pi itself
        (-0.0, 0.0),
        (-TWO_PI, 0.0),
        (TWO_PI, 0.0),
        (1e308, math.fmod(1e308, TWO_PI)),
        (-1.0, TWO_PI - 1.0),
        (7.0, 7.0 - TWO_PI),
    ],
)
def test_wrap_angle_lands_in_the_half_open_period(t, want):
    got = wrap_angle(t)
    assert 0.0 <= got < TWO_PI
    assert got == want and math.copysign(1.0, got) == 1.0
