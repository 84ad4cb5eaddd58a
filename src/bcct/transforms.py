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

import numpy as np

from .boundary_calculus import (
    AnalyticSeries,
    _cauchy_sum,
    _fft_convolve,
    analytic_coefficients,
    grid_angles,
    indicator_mask,
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
    separate (s = theta * conj(q); theta = 1 for family K)."""

    family: str
    polynomial: AnalyticSeries
    samples: np.ndarray
    q_samples: np.ndarray
    grid_log2: int
    base_set: BeurlingCarlesonSet
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


@dataclass(frozen=True)
class TransformResult:
    series: AnalyticSeries
    decay_fit: float
    fit_window: tuple[int, int]

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

    n = 1 << grid_log2
    t = grid_angles(grid_log2)
    zeta = np.exp(1j * t)
    if cutoff_samples is None:
        cutoff_samples = cutoff_boundary_samples(cutoff, grid_log2)
    q = zeta * synthesize_analytic(p, grid_log2) * cutoff_samples
    if outer is not None:
        if outer.grid_log2 != grid_log2:
            raise IngredientMismatch("outer factor sampled on a different grid")
        q = q * outer.boundary
    s = np.conj(q)
    if theta is not None:
        s = theta.boundary_samples(grid_log2) * s

    base = outer.weight.support if outer is not None else cutoff_set
    mask = indicator_mask(base, grid_log2) if family != "K1" else None
    return KMember(
        family=family,
        polynomial=p,
        samples=s,
        q_samples=q,
        grid_log2=grid_log2,
        base_set=base,
        theta=theta,
        e_mask=mask,
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
    band: int | None = None,
    fit_window: tuple[int, int] = (64, 1024),
) -> TransformResult:
    """Coefficients of the member's Cauchy transform plus a decay slope fit.

    For family K2, :func:`split_transform` gives the complement/carrier
    split (u1, u2) of the same transform.
    """
    n = member.size
    if band is None:
        band = n // 2 - 1
    series = analytic_coefficients(member.samples * member.integration_mask, band)
    slope = _decay_slope(series.coeffs, fit_window)
    return TransformResult(series=series, decay_fit=slope, fit_window=fit_window)


def interior_lattice(n_points: int, radius: float) -> np.ndarray:
    """Deterministic golden-angle lattice in the disk of the given radius."""
    i = np.arange(n_points)
    r = radius * np.sqrt((i + 0.5) / n_points)
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return r * np.exp(1j * phi)


def flip_check(member: KMember, n_points: int = 64, radius: float = 0.9) -> float:
    """Compare the transform computed from E against minus the complement side.

    Both quadratures are independent; the identity needs the conjugate
    analyticity and vanishing mean of s, so a member with a mean offset is a
    working negative control.  Each side is a trapezoid Cauchy sum of its own
    masked samples, evaluated by one FFT through the exact identity
    (1 - z^n)^{-1} sum_r c_r z^r and truncated once |z|^R / (1 - |z|) <= eps/4
    (364 terms on the default lattice, whose largest |z| is 0.896).
    """
    if member.family != "K":
        raise IngredientMismatch("flip identity applies to family K")
    z = interior_lattice(n_points, radius)
    a = _cauchy_sum(member.samples * member.e_mask, z)
    b = -_cauchy_sum(member.samples * ~member.e_mask, z)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def backshift_identity(member: KMember, k: int, band: int | None = None) -> float:
    """Residual of L^k C = C_{conj(zeta)^k s} on the coefficient band."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = member.size
    if band is None:
        band = n // 2 - 1
    mask = member.integration_mask
    t = grid_angles(member.grid_log2)
    left = analytic_coefficients(member.samples * mask, band).coeffs[k:]
    shifted = np.exp(-1j * k * t) * member.samples
    right = analytic_coefficients(shifted * mask, band).coeffs[: len(left)]
    return float(np.max(np.abs(left - right)))


def apply_backshift_poly(series: AnalyticSeries, p: AnalyticSeries) -> AnalyticSeries:
    """p(L) applied to a coefficient vector (L = backward shift)."""
    c = series.coeffs
    out = np.zeros_like(c)
    for j, pj in enumerate(p.coeffs):
        if j < len(c):
            out[: len(c) - j] += pj * c[j:]
    return AnalyticSeries(out)


def _exact_coefficients(
    member: KMember, band: int, th: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """c_0..c_band of C_s, and the theta coefficients they were computed from
    (0..band + q_band + 1; None when theta is trivial).  ``th`` passes in
    coefficients already computed for the same theta, grid and band."""
    n = member.size
    q_band = min(band, n // 2 - 1)
    q_hat = analytic_coefficients(member.q_samples, q_band).coeffs
    if member.theta is None or member.theta.is_trivial:
        out = np.zeros(band + 1, dtype=complex)
        out[0] = np.conj(q_hat[0])
        return out, None
    if th is None:
        th = member.theta.coefficients(band + q_band + 1)
    # c_n = sum_j th[n + j] conj(q_j): a convolution with reversed conj(q).
    full = _fft_convolve(th, np.conj(q_hat[::-1]))
    return full[q_band : q_band + band + 1], th


def transform_coefficients_exact(member: KMember, band: int = 8192) -> AnalyticSeries:
    """Coefficients of C_s via exact inner-factor coefficients.

    Writing s = theta * conj(q) with q analytic and smooth, the coefficient
    c_n of C_s is sum_j theta_{n+j} * conj(q_j).  Using the closed-form
    Taylor coefficients of theta avoids the aliasing floor that pointwise
    sampling of an atomic inner factor would impose.
    """
    return AnalyticSeries(_exact_coefficients(member, band)[0])


def _max_orthogonality(members: list[KMember], max_k: int, band: int) -> float:
    """max over the members and k = 0..max_k of | <theta z^k, C_s> |.

    The members must share one inner factor and one grid: theta's
    coefficients are computed for the first member and reused for the rest.
    Each inner product is a direct lag sum of the exact theta coefficients
    against the transform coefficients,

        conj(<theta z^k, C_s>) = sum_{m=0}^{band-k} c_{m+k} conj(theta_m),

    one dot product per lag, which is all the check needs.
    """
    first = members[0]
    th = None
    resid = 0.0
    for m in members:
        if m.theta is not first.theta or m.size != first.size:
            raise IngredientMismatch("members must share one inner factor and one grid")
        c_s, th = _exact_coefficients(m, band, th)
        if th is None:
            r = c_s[: max_k + 1]
        else:
            r = [np.vdot(th[: band + 1 - k], c_s[k:]) for k in range(min(max_k, band) + 1)]
        resid = max(resid, float(np.max(np.abs(r))))
    return resid


def model_space_orthogonality(member: KMember, max_k: int = 32, band: int = 8192) -> float:
    """max_k | <theta z^k, C_s> | for k = 0..max_k, in coefficient space,
    theta being the member's own inner factor.

    The inner product of theta z^k against the transform is evaluated as the
    coefficient lag sum of the exact theta coefficients with the transform
    coefficients (the band-limited form of the grid inner product); it
    vanishes when C_s belongs to the model space of theta.  The theta
    coefficients computed for the transform are reused (their prefix
    0..band).
    """
    return _max_orthogonality([member], max_k, band)


@dataclass(frozen=True)
class SplitResult:
    u1: AnalyticSeries
    u2: AnalyticSeries
    additivity_residual: float
    u1_decay: float
    u2_functional_constants: np.ndarray  # |<z^k, u2>| / ||z^k sqrt(w)||, per k


def split_transform(
    member: KMember,
    weight_values: np.ndarray | None = None,
    band: int | None = None,
    fit_window: tuple[int, int] = (64, 1024),
    max_k: int = 32,
) -> SplitResult:
    """Split C_s = u1 + u2 into the complement piece and the E piece.

    u1 = C_{s 1_{T \\ E}} is the smooth part; u2 = C_{s 1_E} generates the
    functional bounded against the weighted boundary norm.  The additivity
    residual compares u1 + u2 with the directly computed C_s.
    """
    if member.family != "K2":
        raise IngredientMismatch("split applies to family K2")
    n = member.size
    if band is None:
        band = n // 2 - 1
    mask = member.e_mask
    u2 = analytic_coefficients(member.samples * mask, band)
    u1 = analytic_coefficients(member.samples * (~mask), band)
    full = analytic_coefficients(member.samples, band)
    resid = float(np.max(np.abs(u1.coeffs + u2.coeffs - full.coeffs)))
    slope = _decay_slope(u1.coeffs, fit_window)
    consts = np.array([])
    if weight_values is not None:
        # ||z^k sqrt(w)||_{L^2(E)} is independent of k; <z^k, u2> = conj(u2_k).
        wnorm = math.sqrt(float(np.sum(weight_values[mask])) / n)
        consts = np.abs(u2.coeffs[: max_k + 1]) / max(wnorm, 1e-300)
    return SplitResult(
        u1=u1,
        u2=u2,
        additivity_residual=resid,
        u1_decay=slope,
        u2_functional_constants=consts,
    )
