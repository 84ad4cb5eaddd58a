"""In-repo fixtures: reference sets, weights, measures and members.

Gap endpoints are dyadic multiples of the circle so indicator masks are
exact on every power-of-two grid of size >= 2^5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary_calculus import AnalyticSeries, grid_angles, monomial
from .circle_sets import TWO_PI, Arc, BeurlingCarlesonSet, point_carrier, validate_set, wrap_angle
from .cutoff import CutoffFunction, build_cutoff
from .dbr import SymbolB, restricted_symbol
from .errors import DegenerateArc
from .factors import Atom, BoundaryWeight, InnerFunction, OuterFunction, SingularMeasure
from .factors import boundary_weight, outer_from_weight
from .transforms import KMember, MemberIngredients, build_member


def two_gap() -> BeurlingCarlesonSet:
    """Two gaps of normalized lengths 1/8 and 3/32."""
    return validate_set([Arc(0.0, TWO_PI * 0.125), Arc(math.pi, math.pi + TWO_PI * 3.0 / 32.0)])


def geometric_gaps(m: int = 4) -> BeurlingCarlesonSet:
    """Disjoint gaps of lengths 1/4, 1/8, ..., 1/2^(m+1)."""
    starts = [0.0, 5.0 / 16.0, 5.0 / 8.0, 13.0 / 16.0, 29.0 / 32.0, 61.0 / 64.0]
    if m > len(starts):
        raise ValueError("fixture supports at most 6 geometric gaps")
    gaps = [
        Arc(TWO_PI * starts[i], TWO_PI * (starts[i] + 2.0 ** (-(i + 2))))
        for i in range(m)
    ]
    return validate_set(gaps)


def cantor_set(depth: int) -> BeurlingCarlesonSet:
    """A truncated Cantor-type set with 2^depth gaps: one gap of normalized
    length 1e-3 from angle 0, and on the rest of the circle, at each level
    j < depth, a middle gap of length 0.25 L / (2^j + 1) cut from each of the
    2^j intervals of length L that the levels before leave.  Its endpoints
    are not dyadic."""
    length, starts = 1.0 - 1e-3, [1e-3]
    gaps = [Arc(0.0, TWO_PI * 1e-3)]
    for j in range(depth):
        cut = 0.25 * length / (2**j + 1)
        length = (length - cut) / 2.0
        gaps += [Arc(TWO_PI * (a + length), TWO_PI * (a + length + cut)) for a in starts]
        starts = [b for a in starts for b in (a, a + length + cut)]
    return validate_set(gaps)


def _e_arcs(E: BeurlingCarlesonSet) -> list[tuple[float, float]]:
    """The closed arcs of E between consecutive gaps, as (start, span)."""
    gaps = sorted(E.gaps, key=lambda g: wrap_angle(g.start))
    out = []
    for i, g in enumerate(gaps):
        nxt = gaps[(i + 1) % len(gaps)]
        a = wrap_angle(g.end)
        span = (wrap_angle(nxt.start) - a) % TWO_PI
        if span > 0:
            out.append((a, span))
    return out


def _arc_slices(a: float, span: float, n: int) -> list[tuple[slice, float]]:
    """Slices of the n grid indices that can hold an angle a + u, 0 <= u <=
    span: the cells the arc covers with one to spare on each side (rounding
    moves an angle by far less than a cell), two slices for an arc through
    angle 0 (they overlap when the arc covers nearly the whole circle).
    Each comes with its angle offset, 0, or 2 pi for the slice after angle
    0: u = (t - a) + offset there, which is mod(t - a, 2 pi) bit for bit
    wherever 0 <= u < 2 pi.  The spare cell below an arc that starts in the
    first cell would be the grid's last, where u < 0, so it is left out."""
    cell = TWO_PI / n
    lo = max(math.floor(a / cell) - 1, 0)
    hi = math.ceil((a + span) / cell) + 2
    if hi <= n:
        return [(slice(lo, hi), 0.0)]
    return [(slice(lo, n), 0.0), (slice(0, hi - n), TWO_PI)]


def taper_weight(E: BeurlingCarlesonSet, grid_log2: int, depth: float = 2.0) -> BoundaryWeight:
    """Smooth weight on E: on each E-arc, exp(-depth sin^2(pi u / span)) at
    the distance u from the arc's start, and 1 off E.

    Equals 1 with zero first derivative at the edges of E, so log(w) 1_E is
    C^{1,1} on the circle and the outer boundary data is clean.  Each arc's
    profile is formed on the contiguous grid slices the arc covers
    (:func:`_arc_slices`), with u from each slice's angle offset (no mod
    pass), and kept where 0 <= u <= span.
    """
    t = grid_angles(grid_log2)
    vals = np.ones_like(t)
    for a, span in _e_arcs(E):
        for piece, offset in _arc_slices(a, span, len(t)):
            u = t[piece] - a
            u += offset
            prof = np.exp(-depth * np.sin(np.pi * np.clip(u / span, 0.0, 1.0)) ** 2)
            keep = u <= span
            keep &= u >= 0.0
            # In place: a new array per arc shifted where later arrays land on
            # the heap, and raised a 2^21-grid transform run's peak RSS by 46 MB.
            np.copyto(vals[piece], prof, where=keep)
    return boundary_weight(E, vals, grid_log2)


def const_weight(E: BeurlingCarlesonSet, grid_log2: int, value: float = 0.5) -> BoundaryWeight:
    return boundary_weight(E, value, grid_log2)


def endpoint_atom(E: BeurlingCarlesonSet, mass: float = 0.1, part: str = "K") -> Atom:
    """Atom at a gap endpoint (a point of E, where the cut-off vanishes)."""
    return Atom(wrap_angle(E.gaps[0].start), mass, part)


def interior_gap_atom(E: BeurlingCarlesonSet, mass: float = 0.1, part: str = "K") -> Atom:
    """Atom strictly inside the first gap (off E; the non-compliant case)."""
    g = E.gaps[0]
    return Atom(g.start + 0.5 * (g.end - g.start), mass, part)


def point_atom() -> tuple[BeurlingCarlesonSet, Atom]:
    """A one-point carrier F at angle 2 with a C-tagged atom of mass 0.1 on it."""
    return point_carrier(2.0), Atom(2.0, 0.1, "C")


def disk_points(rng, count: int) -> np.ndarray:
    """Up to ``count`` points uniform in the open unit disk: 3 count uniform
    draws from the square [-1, 1]^2, kept in order where |z| < 1."""
    xy = rng.uniform(-1.0, 1.0, (3 * count, 2))
    z = xy[:, 0] + 1j * xy[:, 1]
    return z[np.abs(z) < 1.0][:count]


@dataclass(frozen=True)
class Scale:
    """The family-K ingredients over E at one scale, each built on first use:
    the taper weight's outer factor W on the 2^grid_log2 grid, the cut-off g
    of E at Whitney depth k_max, their :class:`MemberIngredients`, and the
    member s = conj(zeta z^k g W) for each k, all with read-only arrays."""

    E: BeurlingCarlesonSet
    grid_log2: int
    k_max: int
    _members: dict[int, KMember] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def outer(self) -> OuterFunction:
        return outer_from_weight(taper_weight(self.E, self.grid_log2))

    @cached_property
    def cutoff(self) -> CutoffFunction:
        return build_cutoff(self.E, k_max=self.k_max)

    @cached_property
    def ingredients(self) -> MemberIngredients:
        return MemberIngredients(self.E, self.outer, self.cutoff)

    def member(self, k: int) -> KMember:
        """The family-K member for p = z^k, built once per k and kept."""
        if k not in self._members:
            self._members[k] = self.ingredients.member(monomial(k), None)
        return self._members[k]


def standard_member(
    family: str,
    p: AnalyticSeries,
    grid_log2: int,
    k_max: int = 12,
    theta: InnerFunction | None = None,
    E: BeurlingCarlesonSet | None = None,
) -> KMember:
    """Member of the requested family over the two-gap set (K1: point carrier)."""
    if family == "K1":
        F, atom = point_atom()
        th = theta if theta is not None else InnerFunction((), SingularMeasure((atom,), F))
        g_F = build_cutoff(F, k_max=k_max)
        return build_member("K1", p, cutoff=g_F, cutoff_set=F, theta=th, grid_log2=grid_log2)
    E = E if E is not None else two_gap()
    if family == "K2" and theta is None:
        theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
    return Scale(E, grid_log2, k_max).ingredients.member(p, theta if family == "K2" else None)


def e_arc_subset(E: BeurlingCarlesonSet, index: int = 0) -> BeurlingCarlesonSet:
    """One closed arc of E as a set of its own: its complement is the one gap
    from the arc's end round to its start, both taken in [0, 2 pi), so a gap
    below the resolution of angles near 2 pi is kept.  A one-point set has
    no such arc: :class:`DegenerateArc`."""
    arcs = _e_arcs(E)
    if not arcs:
        raise DegenerateArc("a one-point set has no arc of positive length")
    a, span = arcs[index]
    b = wrap_angle(a + span)
    return validate_set([Arc(b, a if a > b else a + TWO_PI)])


def dbr_symbol(E: BeurlingCarlesonSet, nu: SingularMeasure, grid_log2: int):
    """Extreme symbol b = theta u on E: |u| = 0.5 on E and 1 off it, and
    theta the singular inner function of nu."""
    return SymbolB(InnerFunction((), nu), const_weight(E, grid_log2))


def dbr_divisor_pair(E: BeurlingCarlesonSet, nu: SingularMeasure, grid_log2: int):
    """(b, b_n) of the contractive-containment recipe, b = :func:`dbr_symbol`:
    b_n keeps |b| only on one arc of E and drops the singular factor."""
    b = dbr_symbol(E, nu, grid_log2)
    return b, restricted_symbol(b, e_arc_subset(E, 0), inner_part=InnerFunction())
