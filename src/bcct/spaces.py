"""Weight sequences and the weighted coefficient spaces built on them.

X(alpha) is the Hilbert space of power series with norm
``sqrt(sum alpha_k |f_k|^2)``; the functions here take the weights as an
array.  The dual weight is the reciprocal array ``1.0 / alpha`` and the
duality pairing is the plain coefficient pairing, which agrees with the
boundary L^2 pairing on H^2.  The constructor :func:`rapid_weight`
turns a rapidly decaying coefficient vector into a rapidly increasing
weight: block k in [K(N), K(N+1)) gets alpha_k = k^N where K(N) is the
first index whose weighted tail drops below 2^-N, and the growth is capped
at k^sqrt(k) so that alpha_k^(1/k) -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_calculus import AnalyticSeries, _spectrum, grid_points, monomial, synthesize_analytic
from .errors import LengthMismatch, RangeExhausted
from .factors import BoundaryWeight
from .transforms import KMember

__all__ = [
    "WeightSequence",
    "rapid_weight",
    "x_norm",
    "pairing",
    "toeplitz_truncation",
    "weighted_operator_norm",
    "annihilator_check",
    "annihilator_residuals",
    "moments_beta",
    "moments_beta_quadrature",
    "d_space_gram",
]


@dataclass(frozen=True)
class WeightSequence:
    """Positive weights alpha_0..alpha_d plus certification flags.

    The asymptotic properties (rapid increase, alpha_k^(1/k) -> 1) are
    certified as finite-range proxies: monotone ratio growth over the final
    half of the range per polynomial order, and the hard cap k^sqrt(k).
    """

    alpha: np.ndarray
    k_indices: tuple[int, ...] = ()
    increasing: bool = False
    rapid_orders_certified: int = 0
    root_limit_certified: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if np.any(self.alpha <= 0.0):
            raise ValueError("weights must be positive")

    def __len__(self) -> int:
        return len(self.alpha)


def _certify_flags(alpha: np.ndarray, n_orders: int) -> tuple[bool, int, bool]:
    k = np.arange(len(alpha), dtype=float)
    increasing = bool(np.all(np.diff(alpha) >= -1e-15))
    half = len(alpha) // 2
    orders = 0
    for N in range(1, n_orders + 1):
        with np.errstate(divide="ignore"):
            ratio = alpha[half:] / np.maximum(k[half:], 1.0) ** N
        if np.all(np.diff(ratio) >= -1e-12 * np.abs(ratio[:-1])):
            orders = N
        else:
            break
    cap = np.maximum(k, 0.0) ** np.sqrt(np.maximum(k, 0.0))
    cap[0] = 1.0
    root_ok = bool(np.all(alpha <= cap * (1.0 + 1e-12)))
    return increasing, orders, root_ok


def rapid_weight(S: AnalyticSeries, n_max: int) -> WeightSequence:
    """Weight sequence adapted to the coefficient vector S.

    K(N) is the least index with ``sum_{k>=K} k^N |S_k|^2 < 2^-N`` on the
    available range; alpha_k = k^N on [K(N), K(N+1)), continued with
    exponent n_max past K(n_max), then capped by min(alpha_k, k^sqrt(k)).
    Raises :class:`RangeExhausted` when even the full range cannot push the
    order-n_max tail below its threshold.
    """
    coeffs = S.coeffs
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = len(coeffs) - 1
    if d < 1:
        raise RangeExhausted("need at least two coefficients")
    k = np.arange(d + 1, dtype=float)
    mag2 = np.abs(coeffs) ** 2

    k_of_n = [0]
    for N in range(1, n_max + 1):
        weighted = k**N * mag2
        tails = np.concatenate([np.cumsum(weighted[::-1])[::-1], [0.0]])
        idx = int(np.argmax(tails < 2.0 ** (-N)))
        if tails[idx] >= 2.0 ** (-N) or idx > d:
            raise RangeExhausted(
                f"K({N}) exceeds the available {d + 1} coefficients; reduce n_max"
            )
        k_of_n.append(max(idx, k_of_n[-1]))

    alpha = np.ones(d + 1)
    for N in range(1, n_max + 1):
        lo = k_of_n[N]
        hi = k_of_n[N + 1] if N < n_max else d + 1
        alpha[lo:hi] = k[lo:hi] ** N
    alpha[0] = 1.0

    cap = k**np.sqrt(k)
    cap[0] = 1.0
    alpha = np.minimum(alpha, cap)

    increasing, orders, root_ok = _certify_flags(alpha, n_max)
    return WeightSequence(
        alpha=alpha,
        k_indices=tuple(k_of_n[1:]),
        increasing=increasing,
        rapid_orders_certified=orders,
        root_limit_certified=root_ok,
    )


def x_norm(f: AnalyticSeries, alpha: np.ndarray) -> float:
    """sqrt(sum alpha_k |f_k|^2); the vector may not outrun the weights."""
    if len(f.coeffs) > len(alpha):
        raise LengthMismatch(f"{len(f.coeffs)} coefficients vs {len(alpha)} weights")
    return float(np.sqrt(np.sum(alpha[: len(f.coeffs)] * np.abs(f.coeffs) ** 2)))


def pairing(f: AnalyticSeries, g: AnalyticSeries) -> complex:
    """Coefficient pairing sum f_k conj(g_k) (shorter vector zero-padded)."""
    n = min(len(f.coeffs), len(g.coeffs))
    return complex(np.sum(f.coeffs[:n] * np.conj(g.coeffs[:n])))


# ---------------------------------------------------------------------------
# Toeplitz truncations
# ---------------------------------------------------------------------------

def toeplitz_truncation(h: AnalyticSeries, d: int) -> np.ndarray:
    """(d+1)x(d+1) truncation of h(L), L the backward shift, for an analytic
    symbol h: the upper triangular Toeplitz matrix with h_n on the n-th
    superdiagonal.  The span of 1..z^d is invariant, so on an increasing
    weighted space the matrix norm is at most the sup norm of h.  Its
    transpose is the compression of multiplication by h, lower triangular,
    bounded the same way on a decreasing weighted space such as the dual
    weights ``1.0 / alpha``.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    c = h.padded(d + 1)
    M = np.zeros((d + 1, d + 1), dtype=complex)
    for n, cn in enumerate(c):
        idx = np.arange(d + 1 - n)
        M[idx, idx + n] = cn
    return M


def weighted_operator_norm(M: np.ndarray, alpha: np.ndarray) -> float:
    """Operator norm of M as a map on the space with weights alpha."""
    d = np.sqrt(alpha[: M.shape[0]])
    return float(np.linalg.norm((M * d[:, None]) / d[None, :], 2))


# ---------------------------------------------------------------------------
# annihilating functionals
# ---------------------------------------------------------------------------

def annihilator_check(
    member: KMember,
    k_max: int = 32,
    perturbation: AnalyticSeries | None = None,
) -> np.ndarray:
    """Residuals of the annihilating functionals on monomials.

    For each k <= k_max this evaluates
        -int z^k conj(C_{s 1_E}) dm + int_E z^k conj(s) dm,
    both as sums over one grid: the first over the samples synthesized from
    ``member.spectrum``, the second over the masked samples it is the FFT of,
    so they agree to rounding for any samples (complex noise in place of q at
    grid 14 reads 3.7e-17): this certifies the grid transform, not how s is
    built.  A perturbation added to the transform gives the negative control.
    """
    n = member.size
    mask = member.e_mask
    coeffs = member.spectrum[: n // 2]
    if perturbation is not None:
        coeffs = coeffs.copy()
        p = perturbation.coeffs
        coeffs[: len(p)] += p
    conj_c = np.conj(synthesize_analytic(AnalyticSeries(coeffs), member.grid_log2))
    conj_s = np.conj(member.samples)
    zeta_k = np.ones(n, dtype=complex)
    phase = grid_points(member.grid_log2)
    # the conjugates are the products' first operands: numpy's complex
    # multiply is not bitwise commutative
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        left = np.sum(conj_c * zeta_k) / n
        right = np.sum((conj_s * zeta_k)[mask]) / n
        out[k] = abs(-left + right)
        zeta_k = zeta_k * phase
    return out


def annihilator_residuals(members) -> tuple[float, float]:
    """The largest :func:`annihilator_check` residual (k <= 32) over the
    members, and its negative control: the k = 1 residual of the first member
    with z added to its transform, which must stay far from 0."""
    resid = max(float(np.max(annihilator_check(m, k_max=32))) for m in members)
    control = float(annihilator_check(members[0], k_max=1, perturbation=monomial(1))[1])
    return resid, control


# ---------------------------------------------------------------------------
# radial moments
# ---------------------------------------------------------------------------

def moments_beta(C: float, k_max: int) -> np.ndarray:
    """beta_k = Beta(k+1, C+1): the moments of |z|^(2k) against the weight
    (1-|z|^2)^C under area measure normalized so the C = 0 mass is 1."""
    if C <= -1.0:
        raise ValueError("exponent must be > -1")
    k = np.arange(k_max + 1, dtype=float)
    lg = [math.lgamma(kk + 1.0) + math.lgamma(C + 1.0) - math.lgamma(kk + C + 2.0) for kk in k]
    return np.exp(np.array(lg))


def moments_beta_quadrature(C: float, k_max: int) -> np.ndarray:
    """256-node Gauss-Legendre cross-check of the moment integrals
    int_0^1 u^k (1-u)^C du."""
    x, w = np.polynomial.legendre.leggauss(256)
    u = 0.5 * (x + 1.0)
    w = 0.5 * w
    k = np.arange(k_max + 1)
    return ((u[None, :] ** k[:, None]) * ((1.0 - u) ** C)[None, :]) @ w


# ---------------------------------------------------------------------------
# the diagonal space
# ---------------------------------------------------------------------------

def d_space_gram(alpha_inv: np.ndarray, w: BoundaryWeight, d: int) -> np.ndarray:
    """Gram matrix of the monomial tuples (z^j, z^j) in X(alpha^-1) + L^2(w).

        G[j, k] = delta_jk / alpha_j + int_E zeta^j conj(zeta^k) w dm

    Hermitian positive definite at any finite degree; its least eigenvalue
    is the finite-scale evidence that the diagonal space embeds injectively.
    ``alpha_inv`` is the dual weight array 1 / alpha.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if len(alpha_inv) < d + 1:
        raise LengthMismatch("weight sequence shorter than the requested degree")
    n = 1 << w.grid_log2
    hatw = _spectrum(np.where(w.mask, w.values, 0.0))
    j = np.arange(d + 1)
    diff = (j[None, :] - j[:, None]) % n
    G = hatw[diff]
    G[np.diag_indices(d + 1)] += alpha_inv[: d + 1]
    return 0.5 * (G + G.conj().T)
