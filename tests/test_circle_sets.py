import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcct.circle_sets import (
    TWO_PI,
    Arc,
    assign_lambdas,
    dist_arc_to_set,
    dist_to_set,
    gaps_from_json,
    point_carrier,
    rotate_set,
    validate_set,
    whitney_decompose,
    whitney_to_csv,
    _tail_lambda,
)
from bcct.errors import DegenerateArc, OverlapError


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
            assert abs(dist_arc_to_set(w.arc, E) - w.length) <= 1e-12

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
            assert abs(dist_arc_to_set(w.arc, E) - w.length) <= 1e-12


class TestDistances:
    def test_gap_midpoint(self):
        E = validate_set([Arc(0.0, TWO_PI * 0.4)])
        assert dist_to_set(TWO_PI * 0.2, E) == pytest.approx(0.2, abs=1e-14)

    def test_point_in_set(self):
        E = validate_set([Arc(1.0, 2.0)])
        assert dist_to_set(0.5, E) == 0.0
        assert dist_to_set(1.0, E) == 0.0  # endpoint belongs to the set
        assert dist_to_set(2.0, E) == 0.0


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

        bad = WhitneyArc(parent=0, rank=0, arc=Arc(0.0, TWO_PI), length=1.0,
                         midpoint=1.0 + 0j, radius=2.0)
        with pytest.raises(DegenerateArc):
            assign_lambdas([bad])


class TestInterfaces:
    def test_json_round_trip(self, tmp_path):
        E = validate_set([Arc(0.25, 1.0), Arc(2.0, 2.75)])
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"gaps": [{"start": g.start, "end": g.end} for g in E.gaps]}))
        gaps = gaps_from_json(path)
        E2 = validate_set(gaps)
        assert E2.entropy == pytest.approx(E.entropy, abs=1e-15)

    def test_json_from_string(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"gaps": [{"start": 0.0, "end": 1.0}]}')
        gaps = gaps_from_json(path)
        assert len(gaps) == 1 and gaps[0].end == 1.0

    def test_whitney_csv(self, tmp_path):
        E = validate_set([Arc(0.0, 1.0)])
        arcs = assign_lambdas(whitney_decompose(E, 3))
        path = tmp_path / "whitney.csv"
        whitney_to_csv(arcs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "parent,rank,start,end,length,lambda"
        assert len(lines) == len(arcs) + 1


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
