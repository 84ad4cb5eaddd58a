"""Arcs, Beurling-Carleson sets and Whitney decompositions on the unit circle.

Conventions used throughout the package:

* angles are radians; an arc is stored by endpoints ``(start, end)`` with
  ``end > start`` after unwrapping;
* every length and distance is *normalized* arc length, i.e. a fraction of
  the full circle, so the whole circle has measure 1;
* a closed set E is represented by its complementary open arcs (the "gaps").
  The entropy of E is ``sum |A_n| log(1/|A_n|)`` over the gaps, natural log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateArc, OverlapError, ResolutionError

TWO_PI = 2.0 * math.pi

# Angular slack used for equality comparisons of endpoints (radians).
ANGLE_SLACK = 1e-14


def wrap_angle(t: float) -> float:
    """Reduce an angle to [0, 2*pi).

    fmod is exact.  Adding 2 pi to a negative remainder rounds to 2 pi
    itself when the remainder is below half an ulp of 2 pi; that angle is
    returned as 0.  A zero of either sign gives +0.0.
    """
    t = math.fmod(t, TWO_PI) + 0.0  # -0.0 + 0.0 is +0.0
    if t < 0.0:
        t += TWO_PI
    return t if t < TWO_PI else 0.0


@dataclass(frozen=True)
class Arc:
    """Open arc on the circle given by start/end angles in radians.

    ``end - start`` must be positive and at most ``2*pi``, and the normalized
    length must not underflow to 0.  The full-length case
    ``end - start == 2*pi`` is reserved for the single gap whose complement is
    one point (a measure-zero carrier); it is only accepted by
    :func:`validate_set` when it is the sole gap.
    """

    start: float
    end: float

    def __post_init__(self):
        if not (self.end > self.start):
            raise ValueError(f"arc needs end > start, got [{self.start}, {self.end}]")
        if self.length == 0.0:
            raise ValueError(f"arc [{self.start}, {self.end}] has normalized length 0")
        if self.end - self.start > TWO_PI + ANGLE_SLACK:
            raise ValueError("arc longer than the full circle")

    @property
    def length(self) -> float:
        """Normalized length in (0, 1]."""
        return (self.end - self.start) / TWO_PI

    @property
    def mid_angle(self) -> float:
        return 0.5 * (self.start + self.end)

    @property
    def midpoint(self) -> complex:
        return complex(math.cos(self.mid_angle), math.sin(self.mid_angle))


@dataclass(frozen=True)
class BeurlingCarlesonSet:
    """Closed subset of the circle described by its complementary open arcs.

    ``measure`` is the normalized Lebesgue measure of the set itself and
    ``entropy`` the gap entropy ``sum |A_n| log(1/|A_n|)``.
    """

    gaps: tuple[Arc, ...]
    measure: float
    entropy: float

    @property
    def boundary_angles(self) -> tuple[float, ...]:
        """Gap endpoints (always points of the set), wrapped to [0, 2*pi)."""
        out = []
        for g in self.gaps:
            out.append(wrap_angle(g.start))
            out.append(wrap_angle(g.end))
        return tuple(out)


def validate_set(gaps: Sequence[Arc]) -> BeurlingCarlesonSet:
    """Check disjointness, compute measure and entropy, build the set.

    The gap list is finite, so the entropy is the finite sum over its gaps.
    Raises :class:`OverlapError` when two gaps intersect or touch.
    """
    gaps = tuple(gaps)
    if not gaps:
        raise ValueError("at least one gap arc is required")

    total = sum(g.length for g in gaps)
    if len(gaps) == 1 and gaps[0].length >= 1.0 - 1e-15:
        # One full-length gap: the set is the single shared endpoint.
        pass
    else:
        for g in gaps:
            if g.length >= 1.0 - 1e-15:
                raise OverlapError("a full-length gap must be the only gap")
        if total > 1.0 + 1e-12:
            raise OverlapError("total gap length exceeds the circle")
        order = sorted(gaps, key=lambda g: wrap_angle(g.start))
        for i, g in enumerate(order):
            nxt = order[(i + 1) % len(order)]
            s_g = wrap_angle(g.start)
            e_g = s_g + (g.end - g.start)
            s_n = wrap_angle(nxt.start)
            if i + 1 == len(order):
                s_n += TWO_PI
            # Closures must be disjoint: sharing an endpoint is an overlap.
            if s_n <= e_g + ANGLE_SLACK:
                raise OverlapError(
                    f"gaps overlap or touch near angle {wrap_angle(e_g):.6f}"
                )

    entropy = float(sum(_whitney_mass(np.array([g.length for g in gaps if g.length < 1.0]))))
    measure = max(0.0, 1.0 - total)
    return BeurlingCarlesonSet(gaps=gaps, measure=measure, entropy=entropy)


def rotate_set(E: BeurlingCarlesonSet, phi: float) -> BeurlingCarlesonSet:
    """Rotate every gap by the angle ``phi`` (entropy is invariant)."""
    rotated = [Arc(g.start + phi, g.end + phi) for g in E.gaps]
    return validate_set(rotated)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def dist_to_set(t: float, E: BeurlingCarlesonSet) -> float:
    """Normalized arc-length distance from the angle ``t`` to the set.

    Zero exactly when the point is not strictly inside a gap; otherwise the
    distance to the nearest endpoint of the gap containing it.
    """
    return float(distances_to_set(np.array([t]), E)[0])


def distances_to_set(angles: np.ndarray, E: BeurlingCarlesonSet) -> np.ndarray:
    """:func:`dist_to_set` at each of an array of angles.

    A point can lie only in the gap with the last wrapped start at or below
    its own wrapped angle (the last gap, which may wrap past 0, when none
    is), found by one sorted lookup; the distance rule is applied to that
    gap and, against rounding at its start, to the next one.
    """
    t = np.asarray(angles, dtype=float)
    gaps = sorted(E.gaps, key=lambda g: wrap_angle(g.start))
    start = np.array([g.start for g in gaps])
    span = np.array([g.end - g.start for g in gaps])
    wrapped = [wrap_angle(g.start) for g in gaps]
    found = np.searchsorted(wrapped, np.mod(t, TWO_PI), side="right") - 1
    out = np.zeros_like(t)
    for j in (found, (found + 1) % len(gaps)):  # found = -1 is the last gap
        u = np.mod(t - start[j], TWO_PI)
        inside = (u > ANGLE_SLACK) & (u < span[j] - ANGLE_SLACK)
        d = np.minimum(u, span[j] - u) / TWO_PI
        out = np.where(inside, d, out)
    return out


# ---------------------------------------------------------------------------
# Whitney decomposition
# ---------------------------------------------------------------------------

def _whitney_mass(lengths: np.ndarray) -> np.ndarray:
    """``|B| log(1/|B|)`` for normalized lengths in (0, 1], as ``-L log L``:
    ``1/L`` would overflow for subnormal lengths."""
    return -lengths * np.log(lengths)


def _rank_length(gap_length: float, k: int) -> float:
    """Normalized length ``|A| / (3 * 2**|k|)`` of a gap's rank-k Whitney arc."""
    return gap_length / (3.0 * 2.0 ** abs(k))


@dataclass(frozen=True)
class WhitneyArc:
    """One arc of the Whitney tiling of a gap.

    ``length`` is computed from the parent gap by the exact dyadic rule
    ``|A_n| / (3 * 2**|rank|)``; the distance of the arc to the set equals
    this length.  ``radius`` is ``1 + length`` and the pole used by the
    cut-off construction sits at ``radius * midpoint``.
    """

    parent: int
    rank: int
    arc: Arc
    length: float
    lam: float = 1.0

    @property
    def midpoint(self) -> complex:
        return self.arc.midpoint

    @property
    def radius(self) -> float:
        return 1.0 + self.length

    @property
    def pole(self) -> complex:
        return self.radius * self.midpoint


def whitney_decompose(E: BeurlingCarlesonSet, k_max: int) -> list[WhitneyArc]:
    """Tile every gap by the dyadic Whitney arcs of ranks ``|k| <= k_max``.

    Rank 0 is the middle third of the gap; rank +-k has length
    ``|A_n|/(3*2**k)`` and hugs the corresponding gap endpoint.  The two
    untiled residual end segments each have length ``|A_n|/(3*2**k_max)``.
    Raises :class:`ResolutionError` when an arc is too short for a double.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if not E.gaps:
        raise ValueError("set has no gaps")
    arcs: list[WhitneyArc] = []
    for n, gap in enumerate(E.gaps):
        L = gap.length
        a = gap.start
        span = gap.end - gap.start
        for k in range(-k_max, k_max + 1):
            ell = _rank_length(L, k)
            if k == 0:
                lo, hi = 1.0 / 3.0, 2.0 / 3.0
            elif k > 0:
                lo = 1.0 - 1.0 / (3.0 * 2.0 ** (k - 1))
                hi = 1.0 - 1.0 / (3.0 * 2.0 ** k)
            else:
                lo = 1.0 / (3.0 * 2.0 ** (-k))
                hi = 1.0 / (3.0 * 2.0 ** (-k - 1))
            start, end = a + lo * span, a + hi * span
            if not (ell > 0.0 and (end - start) / TWO_PI > 0.0):
                raise ResolutionError(
                    f"gap {n}: the rank {k} Whitney arc is below double-precision resolution"
                )
            arcs.append(WhitneyArc(n, k, Arc(start, end), ell))
    return arcs


def whitney_residuals(E: BeurlingCarlesonSet, k_max: int) -> list[tuple[int, float]]:
    """Length of each untiled end segment left by the rank-k_max truncation.

    Per gap there are two residual segments of equal normalized length
    ``|A_n| / (3 * 2**k_max)``; they are reported, never silently dropped.
    """
    return [(n, _rank_length(g.length, k_max)) for n, g in enumerate(E.gaps)]


def whitney_exactness(E: BeurlingCarlesonSet, k_max: int) -> tuple[float, float]:
    """Residuals of the two Whitney rules over ``whitney_decompose(E, k_max)``:
    the largest |arc length - |A| / (3 * 2**|k|)|, the length measured
    between the arc's own endpoints, and the largest |dist(arc, E) - length|,
    the distance of its nearer endpoint (it is piecewise linear in a gap)."""
    arcs = whitney_decompose(E, k_max)
    length = max(abs(w.arc.length - _rank_length(E.gaps[w.parent].length, w.rank)) for w in arcs)
    ends = distances_to_set(np.array([(w.arc.start, w.arc.end) for w in arcs]), E)
    distance = float(np.max(np.abs(ends.min(axis=1) - [w.length for w in arcs])))
    return length, distance


def _tail_lambda(c: np.ndarray) -> np.ndarray:
    """The tail-sum rule: lambda = max(1, T**-0.5), T the suffix sums of c."""
    tails = np.cumsum(c[::-1])[::-1]
    with np.errstate(divide="ignore"):
        lam = 1.0 / np.sqrt(tails)
    return np.maximum(1.0, lam)


def _lambda_rule(c: np.ndarray) -> np.ndarray:
    """Multipliers for the masses c: the tail-sum rule applied in order of
    decreasing c.  Masses within 1e-12 relative are ties kept in index order,
    so the rounding noise between arcs of equal length, which a rotation of
    the set changes, cannot reorder them."""
    order = np.argsort(-c, kind="stable")
    desc = c[order]
    tie_group = np.cumsum(np.r_[False, desc[1:] < desc[:-1] * (1.0 - 1e-12)])
    order = order[np.lexsort((order, tie_group))]
    lam = np.empty_like(c)
    lam[order] = _tail_lambda(c[order])
    return lam


def assign_lambdas(arcs: Sequence[WhitneyArc]) -> list[WhitneyArc]:
    """Attach the multipliers ``lambda_j`` to a Whitney system.

    Order the arcs by decreasing ``c_j = |B_j| log(1/|B_j|)`` and set
    ``lambda_j = max(1, T_j**-1/2)`` with ``T_j`` the tail sum of c from
    position j on (the Abel-Dini trick; masses within 1e-12 relative keep the
    arcs' order).  This keeps ``sum lambda_j c_j <= 2 sqrt(sum c_j) + sum c_j``
    while lambda tends to infinity along the ordering.
    """
    if not arcs:
        raise ValueError("empty Whitney system")
    lengths = np.array([w.length for w in arcs])
    if np.any(lengths >= 1.0):
        raise DegenerateArc("Whitney arc of normalized length >= 1")
    lam = _lambda_rule(_whitney_mass(lengths))
    return [replace(w, lam=float(l)) for w, l in zip(arcs, lam)]


def point_carrier(angle: float) -> BeurlingCarlesonSet:
    """The one-point set {e^{i angle}} as a measure-zero carrier."""
    return validate_set([Arc(angle, angle + TWO_PI)])
