"""In-repo fixtures: reference sets, weights, measures and members.

Gap endpoints are dyadic multiples of the circle so indicator masks are
exact on every power-of-two grid of size >= 2^5.
"""

from __future__ import annotations

import math

import numpy as np

from .boundary_calculus import AnalyticSeries, monomial
from .circle_sets import TWO_PI, Arc, BeurlingCarlesonSet, point_carrier, validate_set, wrap_angle
from .cutoff import build_cutoff
from .dbr import build_symbol, restricted_symbol
from .factors import Atom, BoundaryWeight, InnerFunction, SingularMeasure, boundary_weight, outer_from_weight
from .transforms import KMember, build_member


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


def taper_profile(E: BeurlingCarlesonSet, depth: float = 2.0):
    """Smooth weight on E: on each E-arc, exp(-depth sin^2(pi u / span)).

    Equals 1 with zero first derivative at the edges of E, so log(w) 1_E is
    C^{1,1} on the circle and the outer boundary data is clean.
    """
    arcs = _e_arcs(E)

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        for a, span in arcs:
            u = np.mod(t - a, TWO_PI)
            inside = u <= span
            prof = np.exp(-depth * np.sin(np.pi * np.clip(u / span, 0.0, 1.0)) ** 2)
            out = np.where(inside, prof, out)
        return out

    return fn


def taper_weight(E: BeurlingCarlesonSet, grid_log2: int, depth: float = 2.0) -> BoundaryWeight:
    return boundary_weight(E, taper_profile(E, depth), grid_log2)


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
    w = taper_weight(E, grid_log2)
    W = outer_from_weight(w)
    g = build_cutoff(E, k_max=k_max)
    if family == "K":
        return build_member("K", p, cutoff=g, cutoff_set=E, outer=W)
    th = theta
    if th is None:
        atom = endpoint_atom(E)
        th = InnerFunction((), SingularMeasure((atom,)))
    return build_member("K2", p, cutoff=g, cutoff_set=E, outer=W, theta=th)


def e_arc_subset(E: BeurlingCarlesonSet, index: int = 0) -> BeurlingCarlesonSet:
    """One closed arc of E as a set of its own (complement = a single gap)."""
    a, span = _e_arcs(E)[index]
    return validate_set([Arc(a + span, a + TWO_PI)])


def dbr_symbol(grid_log2: int):
    """Extreme symbol on the two-gap set: |b| = 0.5 on E, an atom of mass 0.1
    at a gap endpoint (a point of E), tagged as the part vanishing on
    measure-zero carriers."""
    E = two_gap()
    theta = InnerFunction((), SingularMeasure((endpoint_atom(E),)))
    return build_symbol(theta, const_weight(E, grid_log2))


def dbr_divisor_pair(grid_log2: int):
    """(b, b_n) of the contractive-containment recipe: b_n keeps |b| only on
    one arc of E and drops the singular atom."""
    b = dbr_symbol(grid_log2)
    sub = e_arc_subset(b.support, 0)
    b_n = restricted_symbol(b, sub, inner_part=InnerFunction())
    return b, b_n
