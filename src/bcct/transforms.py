"""Families of measurable boundary functions and their Cauchy transforms.

Three families are assembled from the cut-off g, an outer function W and an
inner function theta (zeta denotes the coordinate function on the circle):

    K  : s = conj(zeta p g W)          transform of s restricted to E
    K1 : s = theta * conj(zeta p g_F)  g_F cut off at a measure-zero carrier
    K2 : s = theta * conj(zeta p g_E W)

For family K the transform C_{s 1_E} is smooth because s 1_E is globally
smooth (g kills every derivative at the edge of E); the flip identity, the
backward-shift identity and the annihilating functionals are all checked
numerically here or in :mod:`bcct.spaces`.  For K1/K2 the transforms lie in
the model space of theta; the orthogonality residual is computed in
coefficient space against exact inner-function coefficients, which keeps the
slowly decaying spectrum of an atomic inner factor from polluting the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary_calculus import (
    AnalyticSeries,
    _cauchy_sum,
    _fft_correlate,
    _spectrum,
    analytic_coefficients,
    grid_angles,
    synthesize_analytic,
)
from .circle_sets import BeurlingCarlesonSet
from .cutoff import CutoffFunction, boundary_samples as cutoff_boundary_samples
from .errors import IngredientMismatch, ResolutionError
from .factors import InnerFunction, OuterFunction

_NOISE_FLOOR_FACTOR = 32 * np.finfo(float).eps


@dataclass(frozen=True)
class KMember:
    """Boundary samples of one member s, with its analytic part q kept
    separate (s = theta * conj(q); theta = 1 for family K).  ``e_mask`` is
    the outer weight's own read-only mask of E (None for family K1)."""

    family: str
    samples: np.ndarray
    q_samples: np.ndarray
    grid_log2: int
    theta: InnerFunction | None
    e_mask: np.ndarray | None

    @property
    def size(self) -> int:
        return 1 << self.grid_log2

    @property
    def integration_mask(self) -> np.ndarray:
        """Support of the transform integrand: E for family K, all of the
        circle for K1/K2 (whose transforms are full Cauchy transforms)."""
        if self.family == "K":
            return self.e_mask
        return np.ones(self.size, dtype=bool)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Grid Fourier coefficients of the transform integrand,
        fft(samples * integration_mask) / size, computed on first use and
        read-only.  Index r < size/2 is coefficient r of the member's Cauchy
        transform; the certificates below all read this one array."""
        return _spectrum(self.samples * self.integration_mask)


@dataclass(frozen=True)
class TransformResult:
    series: AnalyticSeries
    decay_fit: float

    @property
    def nonzero(self) -> bool:
        return self.series.norm_h2() > 0.0


def _same_set(a: BeurlingCarlesonSet, b: BeurlingCarlesonSet) -> bool:
    if len(a.gaps) != len(b.gaps):
        return False
    return all(
        abs(x - y) <= 1e-12
        for x, y in zip(sorted(a.boundary_angles), sorted(b.boundary_angles))
    )


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
    """Assemble the boundary samples of one family member.

    The cut-off must belong to the same set as the outer weight (families K,
    K2); family K1 instead needs a measure-zero carrier and no outer factor.
    Precomputed boundary samples of the cut-off may be passed when several
    members share one grid.
    """
    if family not in ("K", "K1", "K2"):
        raise IngredientMismatch(f"unknown family {family!r}")
    if grid_log2 is None:
        if outer is None:
            raise IngredientMismatch("grid_log2 required when no outer factor is given")
        grid_log2 = outer.grid_log2

    if family == "K":
        if outer is None or theta is not None:
            raise IngredientMismatch("family K takes an outer factor and no inner factor")
        if not _same_set(cutoff_set, outer.weight.support):
            raise IngredientMismatch("cut-off and outer weight live on different sets")
    elif family == "K1":
        if theta is None or outer is not None:
            raise IngredientMismatch("family K1 takes an inner factor and no outer factor")
        if cutoff_set.measure > 1e-12:
            raise IngredientMismatch("family K1 needs a measure-zero carrier")
    else:
        if theta is None or outer is None:
            raise IngredientMismatch("family K2 takes inner and outer factors")
        if not _same_set(cutoff_set, outer.weight.support):
            raise IngredientMismatch("cut-off and outer weight live on different sets")

    if cutoff_samples is None:
        cutoff_samples = cutoff_boundary_samples(cutoff, grid_log2)
    zeta_p = AnalyticSeries(np.concatenate(([0.0], p.coeffs)))
    q = synthesize_analytic(zeta_p, grid_log2) * cutoff_samples
    if outer is not None:
        if outer.grid_log2 != grid_log2:
            raise IngredientMismatch("outer factor sampled on a different grid")
        q = q * outer.boundary
    s = np.conj(q)
    if theta is not None:
        s = theta.boundary_samples(grid_log2) * s

    return KMember(
        family=family,
        samples=s,
        q_samples=q,
        grid_log2=grid_log2,
        theta=theta,
        e_mask=outer.weight.mask if outer is not None else None,
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
    """Coefficients 0..size/2-1 of the member's Cauchy transform, read from
    ``member.spectrum``, plus a decay slope fit over ``fit_window``.

    For family K2, :func:`split_transform` gives the complement/carrier
    split (u1, u2) of the same transform.
    """
    series = AnalyticSeries(member.spectrum[: member.size // 2])
    slope = _decay_slope(series.coeffs, fit_window)
    return TransformResult(series=series, decay_fit=slope)


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
    is 0.896).  The E side reads ``member.spectrum``; the complement side is
    its own FFT of the samples off E.
    """
    if member.family != "K":
        raise IngredientMismatch("flip identity applies to family K")
    z = interior_lattice(64, 0.9)
    a = _cauchy_sum(member.spectrum, z)
    b = -_cauchy_sum(_spectrum(member.samples * ~member.e_mask), z)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def backshift_identity(member: KMember, k: int) -> float:
    """Residual of L^k C = C_{conj(zeta)^k s} on the coefficients 0..size/2-1.

    The left side shifts ``member.spectrum``; the right side is its own FFT
    of the shifted, masked samples.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = member.size
    t = grid_angles(member.grid_log2)
    left = member.spectrum[k : n // 2]
    shifted = np.exp(-1j * k * t) * member.samples
    right = analytic_coefficients(shifted * member.integration_mask).coeffs[: len(left)]
    return float(np.max(np.abs(left - right)))


def apply_backshift_poly(series: AnalyticSeries, p: AnalyticSeries) -> AnalyticSeries:
    """p(L) applied to a coefficient vector (L = backward shift)."""
    c = series.coeffs
    out = np.zeros_like(c)
    for j, pj in enumerate(p.coeffs):
        if j < len(c):
            out[: len(c) - j] += pj * c[j:]
    return AnalyticSeries(out)


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


def _max_orthogonality(members: list[KMember], max_k: int, band: int) -> float:
    """max over the members and k = 0..max_k of | <theta z^k, C_s> |.

    The members must share one inner factor and one grid.  With c the
    transform coefficients (:func:`transform_coefficients_exact`), the residual is

        r_k = conj(<theta z^k, C_s>) = sum_{m=0}^{band-k} conj(theta_m) c_{m+k}.

    Substituting c_n = sum_j conj(q_j) theta_{n+j} splits it, with
    K = min(max_k, band) and M0 = band - K, into

        r_k = sum_j conj(q_j) B_{k+j} + sum_{m=M0+1}^{band-k} conj(theta_m) c_{m+k},

    where B_l = sum_{m=0}^{M0} conj(theta_m) theta_{m+l} is theta's
    truncated autocorrelation.  B is one FFT correlation shared by all
    members; each member then costs K + 1 dot products against B and K
    against theta (its c_{M0+1}..c_band), all of length q_band + 1, plus a
    K-term tail.  NaN anywhere propagates to the result.
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
    th = first.theta.coefficients(band + q_len)
    K = min(max_k, band)
    m0 = band - K
    B = _fft_correlate(th[: m0 + 1], th, q_len + K)
    heads = sliding_window_view(B, q_len)  # row k: B_k..B_{k+q_band}
    # row i: theta_s..theta_{s+q_band} for s = m0+1+i, i < K
    shifted = sliding_window_view(th[m0 + 1 :], q_len)[:K]
    resid = []
    for q in q_hats:
        qc = np.conj(q)
        r = heads @ qc
        c_tail = shifted @ qc  # c_{m0+1}..c_band
        for k in range(K):
            r[k] += np.vdot(th[m0 + 1 : band + 1 - k], c_tail[k:])
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
    additivity_residual: float
    u1_decay: float
    u2_functional_constants: np.ndarray  # |<z^k, u2>| / ||z^k sqrt(w)||, per k


def split_transform(member: KMember, weight_values: np.ndarray | None = None) -> SplitResult:
    """Split C_s = u1 + u2 into the complement piece and the E piece, on the
    coefficients 0..size/2-1.

    u1 = C_{s 1_{T \\ E}} is the smooth part (decay slope fitted over 64..1024);
    u2 = C_{s 1_E} generates the functional bounded against the weighted
    boundary norm (constants for k = 0..32, given the weight).  Each piece is
    its own FFT; the additivity residual compares u1 + u2 with C_s read from
    ``member.spectrum`` (the K2 integration mask is the whole circle).
    """
    if member.family != "K2":
        raise IngredientMismatch("split applies to family K2")
    n = member.size
    mask = member.e_mask
    u2 = analytic_coefficients(member.samples * mask)
    u1 = analytic_coefficients(member.samples * (~mask))
    resid = float(np.max(np.abs(u1.coeffs + u2.coeffs - member.spectrum[: n // 2])))
    slope = _decay_slope(u1.coeffs, (64, 1024))
    consts = np.array([])
    if weight_values is not None:
        # ||z^k sqrt(w)||_{L^2(E)} is independent of k; <z^k, u2> = conj(u2_k).
        wnorm = math.sqrt(float(np.sum(weight_values[mask])) / n)
        consts = np.abs(u2.coeffs[:33]) / max(wnorm, 1e-300)
    return SplitResult(
        u1=u1,
        u2=u2,
        additivity_residual=resid,
        u1_decay=slope,
        u2_functional_constants=consts,
    )
