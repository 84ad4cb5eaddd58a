"""Families of measurable boundary functions and their Cauchy transforms.

Three families are assembled from the cut-off g, an outer function W and an
inner function theta (zeta denotes the coordinate function on the circle):

    K  : s = conj(zeta p g W)          transform of s restricted to E
    K1 : s = theta * conj(zeta p g_F)  g_F cut off at a measure-zero carrier
    K2 : s = theta * conj(zeta p g_E W)

For family K the transform C_{s 1_E} is smooth because s 1_E is globally
smooth (g kills every derivative at the edge of E); the flip identity, the
backward-shift identity and the annihilating functionals are all checked
numerically here or in :mod:`bcct.spaces`.  A member's one grid spectrum
is that E side (``KMember.spectrum``); the flip check and K2's split
C_s = u1 + u2 also read the complement side (``KMember.sides``).  The
family-K members p = z^k built from one outer factor and one array of g's
samples share both sides: on the grid s_k = conj(zeta)^k s_0, so by the DFT
shift theorem each is the p = 1 member's read from index k on
(:class:`SpectrumPair`, formed when the first of those members is built,
before its own q), and those members take no FFT of their own.  For
K1/K2 the transforms lie in the model space of theta; the orthogonality
residual is computed in coefficient space against exact inner-function
coefficients, which keeps the slowly decaying spectrum of an atomic inner
factor from polluting the check.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary_calculus import (
    AnalyticSeries,
    _cauchy_sum,
    _fft_correlate,
    _spectrum,
    _spectrum_in_place,
    analytic_coefficients,
    monomial,
    synthesize_analytic,
)
from .circle_sets import BeurlingCarlesonSet
from .cutoff import CutoffFunction, boundary_samples as cutoff_boundary_samples
from .errors import IngredientMismatch, ResolutionError
from .factors import InnerFunction, OuterFunction

_NOISE_FLOOR_FACTOR = 32 * np.finfo(float).eps

# The factor rule, per family: whether it takes an outer factor W and an
# inner factor theta.
_FACTORS = {"K": (True, False), "K1": (False, True), "K2": (True, True)}


@dataclass(frozen=True, eq=False)
class SpectrumPair:
    """The E side fft(s_0 1_E) / n and the complement side
    fft(s_0 1_{T \\ E}) / n of family K's member s_0 = conj(zeta g W), p = 1,
    formed together when the pair is made (``sides``) and read-only.  They
    take two grid arrays: the E side is transformed in the masked product's
    buffer, then the complement side in s_0's own.

    The member p = z^k has s_k = conj(zeta)^k s_0 on the grid, so by the DFT
    shift theorem its coefficient r on either side is entry (r + k) mod n of
    s_0's: every such member reads this one pair.  The pair holds W and g's
    samples, from which it is formed, and nothing that holds it."""

    outer: OuterFunction
    cutoff_samples: np.ndarray
    sides: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        s = _analytic_part(monomial(0), self.cutoff_samples, self.outer, self.outer.grid_log2)
        np.conjugate(s, out=s)
        mask = self.outer.weight.mask
        e_side = _spectrum(s, mask)
        s *= ~mask
        object.__setattr__(self, "sides", (e_side, _spectrum_in_place(s)))


@dataclass(frozen=True)
class KMember:
    """One member s = theta * conj(q) (theta = 1 for family K), held as the
    read-only grid samples of its analytic part q and its inner factor theta.
    ``e_mask`` is the outer weight's own read-only mask of E (None for family
    K1, which has no E).

    ``pair`` and ``shift`` are set by :func:`build_member` for a family-K
    member p = z^k that shares its spectra: it reads the pair at shift k.
    They are not init fields, so a copy made by ``dataclasses.replace`` forms
    its own spectra."""

    family: str
    q_samples: np.ndarray
    grid_log2: int
    theta: InnerFunction | None
    e_mask: np.ndarray | None
    pair: SpectrumPair | None = field(default=None, init=False, repr=False, compare=False)
    shift: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return 1 << self.grid_log2

    @property
    def samples(self) -> np.ndarray:
        """The boundary samples of s, read-only.  Family K's s = conj(q) is
        one pass, formed at each read, so the member holds one grid array of
        its own; K1's and K2's are formed on first read (theta sampled on
        this grid) and kept.  The model-space residual reads only q and
        theta's coefficients, so a K2 member may never form them."""
        if self.theta is not None:
            return self._theta_samples
        s = np.conj(self.q_samples)
        s.flags.writeable = False
        return s

    @cached_property
    def _theta_samples(self) -> np.ndarray:
        s = np.conj(self.q_samples)
        np.multiply(self.theta.boundary_samples(self.grid_log2), s, out=s)
        s.flags.writeable = False
        return s

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The E side: grid Fourier coefficients fft(samples * e_mask) / size,
        read-only; unmasked only for family K1.  Index r < size/2 is
        coefficient r of C_{s 1_E}: family K's transform, and K2's carrier
        piece u2 of :func:`split_transform`.  A member that shares a pair
        reads a view of its E side, formed when the pair was made, from
        index ``shift`` on (size - shift entries; every reader takes at most
        the first size/2); any other member computes its own on first use,
        in the masked product's own buffer."""
        if self.pair is not None:
            return self.pair.sides[0][self.shift :]
        return _spectrum(self.samples, self.e_mask)

    def sides(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The E side and the complement side fft(samples * ~e_mask) / size
        as whole grid spectra, and the shift k at which they hold this
        member: its coefficient r is their entry (r + k) mod size.  A member
        that shares a pair reads the pair's, formed when the pair was made,
        at its ``shift`` (no FFT here); any other has k = 0, its
        ``spectrum`` and a complement side formed here and not kept."""
        if self.pair is not None:
            return (*self.pair.sides, self.shift)
        return self.spectrum, _spectrum(self.samples, ~self.e_mask), 0


@dataclass(frozen=True)
class TransformResult:
    """A transform's coefficients; their decay slope is fitted on first read."""

    series: AnalyticSeries
    fit_window: tuple[int, int]

    @property
    def nonzero(self) -> bool:
        return self.series.norm_h2() > 0.0

    @cached_property
    def decay_fit(self) -> float:
        """Raises :class:`ResolutionError` when the band cannot hold the fit."""
        return _decay_slope(self.series.coeffs, self.fit_window)


def build_member(
    family: str,
    p: AnalyticSeries,
    *,
    cutoff: CutoffFunction,
    cutoff_set: BeurlingCarlesonSet,
    outer: OuterFunction | None = None,
    theta: InnerFunction | None = None,
    grid_log2: int | None = None,
    cutoff_samples: np.ndarray | None = None,
) -> KMember:
    """Assemble one family member: the boundary samples of q = zeta p g W
    (W = 1 for family K1) and theta; s itself is formed where it is read.

    Family K takes an outer factor and no theta, K1 theta and no outer
    factor, K2 both.  With an outer factor, the cut-off's set must equal the
    outer weight's support; family K1 instead needs a measure-zero carrier.
    Precomputed boundary samples of the cut-off may be passed when several
    members share one grid.  The family-K members p = z^k built from one
    outer factor and one such array share one :class:`SpectrumPair`, formed
    here when the first of them is built, before its q, so no q is live
    while the pair's transforms run; the array is made read-only, since the
    pair is formed from it.  Every other member forms its own spectra where
    they are read.
    """
    if family not in _FACTORS:
        raise IngredientMismatch(f"unknown family {family!r}")
    if grid_log2 is None:
        if outer is None:
            raise IngredientMismatch("grid_log2 required when no outer factor is given")
        grid_log2 = outer.grid_log2

    takes_outer, takes_theta = _FACTORS[family]
    if (outer is not None, theta is not None) != (takes_outer, takes_theta):
        raise IngredientMismatch(
            f"family {family} takes {'an' if takes_outer else 'no'} outer factor"
            f" and {'an' if takes_theta else 'no'} inner factor"
        )
    if outer is None:
        if cutoff_set.measure > 1e-12:
            raise IngredientMismatch("family K1 needs a measure-zero carrier")
    elif cutoff_set != outer.weight.support:
        raise IngredientMismatch("cut-off and outer weight live on different sets")
    elif outer.grid_log2 != grid_log2:
        raise IngredientMismatch("outer factor sampled on a different grid")

    k = _unit_power(p) if family == "K" and cutoff_samples is not None else None
    pair = None if k is None else _shared_pair(outer, cutoff_samples)
    if cutoff_samples is None:
        cutoff_samples = cutoff_boundary_samples(cutoff, grid_log2)
    q = _analytic_part(p, cutoff_samples, outer, grid_log2)
    q.flags.writeable = False

    member = KMember(
        family=family,
        q_samples=q,
        grid_log2=grid_log2,
        theta=theta,
        e_mask=outer.weight.mask if outer is not None else None,
    )
    if pair is not None:
        object.__setattr__(member, "pair", pair)
        object.__setattr__(member, "shift", k)
    return member


def _analytic_part(
    p: AnalyticSeries, cutoff_samples: np.ndarray, outer: OuterFunction | None, grid_log2: int
) -> np.ndarray:
    """The grid samples of q = zeta p g W (W = 1 without an outer factor),
    in a new array: the factors multiply into zeta p's samples in place."""
    zeta_p = AnalyticSeries(np.concatenate(([0.0], p.coeffs)))
    q = synthesize_analytic(zeta_p, grid_log2)
    q *= cutoff_samples
    if outer is not None:
        q *= outer.boundary
    return q


def _unit_power(p: AnalyticSeries) -> int | None:
    """k when p is z^k, else None."""
    terms = np.flatnonzero(p.coeffs)
    return int(terms[0]) if len(terms) == 1 and p.coeffs[terms[0]] == 1.0 else None


# The pair of each (outer factor, array of g's samples), keyed by their
# identities.  A pair holds both, so the identities stay theirs while it
# lives; it lives while a member holds it.
_PAIRS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_pair(outer: OuterFunction, cutoff_samples: np.ndarray) -> SpectrumPair:
    """The pair of these ingredients, made (with both its sides) on first
    request; the samples are made read-only, since the pair is formed from
    them."""
    key = (id(outer), id(cutoff_samples))
    pair = _PAIRS.get(key)
    if pair is None:
        cutoff_samples.flags.writeable = False
        pair = _PAIRS[key] = SpectrumPair(outer, cutoff_samples)
    return pair


@dataclass(frozen=True)
class MemberIngredients:
    """What the family-K and K2 members over E share: E, the outer factor W of
    a weight on E and the cut-off g of E, with g's samples on W's grid
    (read-only).  Each member takes its own theta and forms theta's samples
    only if its own samples are read.  The family-K members p = z^k built
    here share one :class:`SpectrumPair`, formed when the first of them is
    built."""

    E: BeurlingCarlesonSet
    outer: OuterFunction
    cutoff: CutoffFunction

    @cached_property
    def cutoff_samples(self) -> np.ndarray:
        samples = cutoff_boundary_samples(self.cutoff, self.outer.grid_log2)
        samples.flags.writeable = False
        return samples

    def member(self, p: AnalyticSeries, theta: InnerFunction | None) -> KMember:
        """The family-K member s = conj(zeta p g W) for theta None, else K2's theta s."""
        return build_member(
            "K" if theta is None else "K2", p, cutoff=self.cutoff, cutoff_set=self.E,
            outer=self.outer, theta=theta, cutoff_samples=self.cutoff_samples,
        )


def _decay_slope(coeffs: np.ndarray, window: tuple[int, int]) -> float:
    """Least-squares slope of log|c_n| against log n over the window.

    Coefficients below the grid noise floor (a small multiple of machine
    epsilon times the peak) are excluded from the fit.
    """
    lo, hi = window
    hi = min(hi, len(coeffs) - 1)
    if hi <= lo:
        raise ResolutionError("fit window is empty at this band")
    n = np.arange(lo, hi + 1)
    mags = np.abs(coeffs[lo : hi + 1])
    floor = np.max(np.abs(coeffs)) * _NOISE_FLOOR_FACTOR
    keep = mags > floor
    if np.count_nonzero(keep) < 8:
        raise ResolutionError("fewer than 8 coefficients above the noise floor")
    x = np.log(n[keep])
    y = np.log(mags[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def smooth_transform(
    member: KMember,
    fit_window: tuple[int, int] = (64, 1024),
) -> TransformResult:
    """Coefficients 0..size/2-1 of C_{s 1_E}, a view of ``member.spectrum``
    (for a member p = z^k that shares a pair, of the pair's E side from
    index k on), with their decay slope over ``fit_window`` (``decay_fit``,
    fitted on first read).

    For family K this is the member's smooth transform.  For family K2 it is
    the carrier piece u2 of :func:`split_transform`, not certified smooth:
    at an endpoint atom its coefficients decay only like n^-0.78.
    """
    return TransformResult(AnalyticSeries(member.spectrum[: member.size // 2]), fit_window)


def interior_lattice(n_points: int, radius: float) -> np.ndarray:
    """Deterministic golden-angle lattice in the disk of the given radius."""
    i = np.arange(n_points)
    r = radius * np.sqrt((i + 0.5) / n_points)
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return r * np.exp(1j * phi)


def flip_check(member: KMember) -> float:
    """Compare the transform computed from E against minus the complement side,
    on the 64-point golden-angle lattice of radius 0.9.

    Both quadratures are independent; the identity needs the conjugate
    analyticity and vanishing mean of s, so a member with a mean offset is a
    working negative control.  Each side is a trapezoid Cauchy sum through
    the exact identity (1 - z^n)^{-1} sum_r c_r z^r, truncated once
    |z|^R / (1 - |z|) <= eps/4 (364 terms on this lattice, whose largest |z|
    is 0.896).  Both sides are read from ``member.sides``: for a member
    p = z^k that shares a pair, the pair's two spectra from index k on,
    circularly, with no FFT here; for any other member, its own spectrum and
    one FFT of the samples off E.
    """
    if member.family != "K":
        raise IngredientMismatch("flip identity applies to family K")
    z = interior_lattice(64, 0.9)
    e_side, complement, k = member.sides()
    a = _cauchy_sum(e_side, z, k)
    b = -_cauchy_sum(complement, z, k)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def backshift_identity(member: KMember, k: int) -> float:
    """Residual of L^k C = C_{conj(zeta)^k s} on the coefficients 0..size/2-1.

    The left side shifts ``member.spectrum``; the right side is its own FFT
    of the shifted, masked samples, with conj(zeta)^k the conjugate of the
    grid samples of z^k (:func:`synthesize_analytic`).  The right side never
    reads a shared pair, so this checks the shift that members p = z^k read
    their spectra through.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = member.size
    left = member.spectrum[k : n // 2]
    shifted = synthesize_analytic(monomial(k), member.grid_log2)
    np.conjugate(shifted, out=shifted)
    shifted *= member.samples
    right = analytic_coefficients(shifted, mask=member.e_mask).coeffs[: len(left)]
    return float(np.max(np.abs(left - right)))


def _q_coefficients(member: KMember, band: int) -> np.ndarray:
    """Coefficients 0..q_band of the member's analytic part q, with
    q_band = min(band, size/2 - 1)."""
    return analytic_coefficients(member.q_samples, min(band, member.size // 2 - 1)).coeffs


def transform_coefficients_exact(member: KMember, band: int = 8192) -> AnalyticSeries:
    """Coefficients c_0..c_band of C_s via exact inner-factor coefficients.

    Writing s = theta * conj(q) with q analytic and smooth, the coefficient
    c_n of C_s is sum_j theta_{n+j} * conj(q_j).  Using the closed-form
    Taylor coefficients of theta avoids the aliasing floor that pointwise
    sampling of an atomic inner factor would impose.
    """
    q_hat = _q_coefficients(member, band)
    if member.theta is None or member.theta.is_trivial:
        out = np.zeros(band + 1, dtype=complex)
        out[0] = np.conj(q_hat[0])
        return AnalyticSeries(out)
    th = member.theta.coefficients(band + len(q_hat))
    # c_n = sum_j conj(q_j) th[n + j]: a correlation of q with theta.
    return AnalyticSeries(_fft_correlate(q_hat, th, band + 1))


def _window_dots(x: np.ndarray, u: np.ndarray, rows: int) -> np.ndarray:
    """sum_j u_j x_{i+j} for i = 0..rows-1.

    A real x is dotted with the real and imaginary parts of u by einsum, so
    no window of it is cast to complex; a complex x takes numpy's matmul of
    the strided windows.  Neither calls BLAS, whose dots sum in an order
    that follows its thread count: the residual's last digits stay the same
    on any number of CPUs.
    """
    windows = sliding_window_view(x, len(u))[:rows]
    if np.iscomplexobj(x):
        return windows @ u
    out = np.empty(rows, dtype=complex)
    u_re, u_im = np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag)
    np.einsum("ij,j->i", windows, u_re, out=out.real)
    np.einsum("ij,j->i", windows, u_im, out=out.imag)
    return out


def _max_orthogonality(members: list[KMember], max_k: int, band: int) -> float:
    """max over the members and k = 0..max_k of | <theta z^k, C_s> |.

    The members must share one inner factor and one grid.  With c the
    transform coefficients (:func:`transform_coefficients_exact`), the residual is

        r_k = conj(<theta z^k, C_s>) = sum_{m=0}^{band-k} conj(theta_m) c_{m+k}.

    It is computed in theta's own frame (:meth:`InnerFunction.coefficient_frame`):
    theta_m = w^m a_m with w = e^{-i phi}, a real for a single atom at angle
    phi, and phi = 0, a = theta for every other theta.  Substituting
    c_n = sum_j conj(q_j) theta_{n+j} splits it, with K = min(max_k, band),
    M0 = band - K and u_j = conj(q_j) w^j, into

        r_k = w^k [ sum_j u_j A_{k+j} + sum_{m=M0+1}^{band-k} conj(a_m) c~_{m+k} ],
        A_l = sum_{m=0}^{M0} conj(a_m) a_{m+l},    c~_n = sum_j u_j a_{n+j} = w^{-n} c_n.

    The factor w^k drops out of |r_k|, so only the q_band + 1 powers w^j are
    formed.  A, the truncated autocorrelation of a, is one FFT correlation
    shared by all members, a real one for a single atom; each member then
    costs K + 1 dot products against A and K against a (its c~_{M0+1}..
    c~_band), all of length q_band + 1, plus a K-term tail.  NaN anywhere
    propagates to the result.
    """
    first = members[0]
    for m in members:
        if m.theta is not first.theta or m.size != first.size:
            raise IngredientMismatch("members must share one inner factor and one grid")
    q_hats = [_q_coefficients(m, band) for m in members]
    if first.theta is None or first.theta.is_trivial:
        # C_s = conj(q_0), so r_0 = conj(q_0) and every other r_k is 0.
        return float(np.max(np.abs([q[0] for q in q_hats])))
    q_len = len(q_hats[0])
    phi, a = first.theta.coefficient_frame(band + q_len - 1)  # a_0..a_{M0 + K + q_band}
    K = min(max_k, band)
    m0 = band - K
    A = _fft_correlate(a[: m0 + 1], a, q_len + K)
    w_j = np.exp(-1j * phi * np.arange(q_len))
    resid = []
    for q in q_hats:
        u = np.conj(q) * w_j
        r = _window_dots(A, u, K + 1)
        c_tail = _window_dots(a[m0 + 1 :], u, K)  # c~_{m0+1}..c~_band
        for k in range(K):
            r[k] += np.vdot(a[m0 + 1 : band + 1 - k], c_tail[k:])
        resid.append(np.abs(r))
    return float(np.max(resid))


def model_space_orthogonality(member: KMember, max_k: int = 32, band: int = 8192) -> float:
    """max_k | <theta z^k, C_s> | for k = 0..max_k, in coefficient space,
    theta being the member's own inner factor.

    The inner product of theta z^k against the transform is the coefficient
    lag sum of the exact theta coefficients with the transform coefficients
    0..band (the band-limited form of the grid inner product), evaluated
    through theta's autocorrelation as in :func:`_max_orthogonality`; it
    vanishes when C_s belongs to the model space of theta.
    """
    return _max_orthogonality([member], max_k, band)


@dataclass(frozen=True)
class SplitResult:
    u1: AnalyticSeries
    u2: AnalyticSeries


def split_transform(member: KMember) -> SplitResult:
    """Split C_s = u1 + u2 into the complement piece u1 = C_{s 1_{T \\ E}}
    and the E piece u2 = C_{s 1_E}, on the coefficients 0..size/2-1, both
    read from ``member.sides``: u2 from ``member.spectrum``, u1 from the one
    FFT formed there, of the samples off E, which is not kept on the
    member."""
    if member.family != "K2":
        raise IngredientMismatch("split applies to family K2")
    e_side, complement, k = member.sides()
    half = slice(k, k + member.size // 2)
    return SplitResult(u1=AnalyticSeries(complement[half]), u2=AnalyticSeries(e_side[half]))
