"""Symbols b = theta * u, reproducing kernels and permanence functionals.

The kernel of the space attached to a symbol b is

    k_b(lam, z) = (1 - conj(b(lam)) b(z)) / (1 - conj(lam) z).

When b_n divides b (|b/b_n| <= 1 on the disk), k_b - k_{b_n} is again a
positive definite kernel; :func:`kernel_difference_psd` certifies this on a
finite point lattice.  The J-embedding identities are checked in a fully
discrete, self-consistent way: the symbol is replaced by a Fejer polynomial
approximant b_F (sup norm still at most 1) and Delta is defined on the grid
by Delta^2 = 1 - |b_F|^2, which makes the defining relation

    P_+(conj(b) f) = -P_+(Delta g)

hold to rounding for the kernel tuples (f, g) = (k_b(lam,.), -conj(b(lam))
Delta s_lam).  The permanence check assembles the model-space membership
residual and the two split-functional bounds for a family of members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_calculus import (
    AnalyticSeries,
    grid_angles,
    indicator_mask,
    synthesize_analytic,
)
from .circle_sets import BeurlingCarlesonSet
from .cutoff import boundary_samples as cutoff_boundary_samples, build_cutoff
from .errors import NotADivisor, RangeExhausted
from .factors import (
    BoundaryWeight,
    InnerFunction,
    boundary_weight,
    herglotz_exp,
    outer_from_weight,
)
from .spaces import WeightSequence, rapid_weight
from .transforms import (
    _max_orthogonality,
    build_member,
    interior_lattice,
    split_transform,
)

EXTREME_FLOOR = -1.0e3


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolB:
    """Bounded symbol b = theta * u with |b| < 1 exactly on the carrier E.

    ``delta`` is sqrt(1 - |b|^2) on the grid; off E it vanishes identically,
    which is what flags the symbol as an extreme point (the quadrature of
    log(delta) over the complement hits the floor).
    """

    inner: InnerFunction
    outer_weight: BoundaryWeight
    grid_log2: int
    boundary: np.ndarray
    delta: np.ndarray
    log_modulus: np.ndarray
    support: BeurlingCarlesonSet
    extreme_flagged: bool

    @property
    def size(self) -> int:
        return 1 << self.grid_log2

    def eval(self, z) -> complex | np.ndarray:
        """Interior evaluation theta(z) * exp(Herglotz of log|u|)."""
        return self.inner.eval(z) * herglotz_exp(self.log_modulus, z)


def build_symbol(
    inner: InnerFunction,
    modulus: BoundaryWeight,
    floor: float = EXTREME_FLOOR,
) -> SymbolB:
    """Assemble b = theta * u from the inner part and the modulus of the
    outer part on its carrier (modulus 1 elsewhere)."""
    u = outer_from_weight(modulus)
    theta_b = inner.boundary_samples(modulus.grid_log2)
    b = theta_b * u.boundary
    delta2 = np.maximum(0.0, 1.0 - np.abs(b) ** 2)
    delta = np.sqrt(delta2)
    off = ~modulus.mask
    with np.errstate(divide="ignore"):
        logs = np.where(delta > 0.0, np.log(np.maximum(delta, 1e-320)), -math.inf)
    tail = logs[off]
    extreme = bool(off.any()) and (
        not np.all(np.isfinite(tail)) or float(np.sum(tail)) / len(b) <= floor
    )
    return SymbolB(
        inner=inner,
        outer_weight=modulus,
        grid_log2=modulus.grid_log2,
        boundary=b,
        delta=delta,
        log_modulus=u.log_modulus,
        support=modulus.support,
        extreme_flagged=extreme,
    )


def restricted_symbol(
    b: SymbolB,
    sub_support: BeurlingCarlesonSet,
    inner_part: InnerFunction | None = None,
) -> SymbolB:
    """Divisor symbol of the contractive-containment recipe.

    The outer part of the divisor has modulus |b| on the sub-carrier and 1
    elsewhere; the inner part must divide the original one (pass the subset
    of atoms/zeros to keep).  The quotient b/b_n is then a self-map of the
    disk and the kernel difference is positive definite.  The modulus is
    read from the outer factor (equal to |b| almost everywhere and free of
    the removable zeros at exact atom hits).
    """
    mask_n = indicator_mask(sub_support, b.grid_log2)
    vals = np.where(mask_n, np.exp(b.log_modulus), 1.0)
    modulus_n = boundary_weight(sub_support, vals, b.grid_log2)
    theta_n = inner_part if inner_part is not None else b.inner
    return build_symbol(theta_n, modulus_n)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HbKernel:
    """Reproducing kernel of a symbol; an explicit evaluation closure for b
    may replace the symbol (e.g. b = 0 gives the Szego kernel)."""

    symbol: SymbolB | None = None
    b_eval: object = None

    def b_at(self, z):
        if self.b_eval is not None:
            return self.b_eval(z)
        if self.symbol is None:
            raise ValueError("kernel needs a symbol or an evaluation closure")
        return self.symbol.eval(z)

    def eval(self, lam, z) -> complex | np.ndarray:
        return kernel_eval(self, lam, z)


def kernel_eval(K: HbKernel, lam, z) -> complex | np.ndarray:
    """k_b(lam, z); Hermitian in its arguments, nonnegative on the diagonal."""
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(lam) >= 1.0) or np.any(np.abs(z) >= 1.0):
        raise ValueError("kernel arguments must lie in the open disk")
    blam = np.asarray(K.b_at(lam), dtype=complex)
    bz = np.asarray(K.b_at(z), dtype=complex)
    out = (1.0 - np.conj(blam) * bz) / (1.0 - np.conj(lam) * z)
    return out if out.shape else complex(out)


def _kernel_matrix(b: SymbolB, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(b.eval(points), dtype=complex)
    num = 1.0 - np.conj(vals)[:, None] * vals[None, :]
    den = 1.0 - np.conj(points)[:, None] * points[None, :]
    return num / den


def kernel_difference_psd(
    b: SymbolB,
    b_n: SymbolB,
    points: np.ndarray | None = None,
    divisor_samples: int = 1024,
    divisor_tol: float = 1e-8,
) -> float:
    """Least eigenvalue of the Gram matrix [k_b - k_{b_n}] on a point lattice.

    The divisor property |b/b_n| <= 1 is sampled first (both symbols are
    genuine analytic functions of the same discrete data, so the positive
    semidefiniteness is structural once the quotient is a self-map).
    """
    if points is None:
        points = interior_lattice(32, 0.85)
    if len(points) > 64:
        raise ValueError("at most 64 lattice points")
    sample_pts = interior_lattice(max(divisor_samples, 1000), 0.95)
    qb = np.asarray(b.eval(sample_pts), dtype=complex)
    qn = np.asarray(b_n.eval(sample_pts), dtype=complex)
    ratio = np.abs(qb) / np.maximum(np.abs(qn), 1e-300)
    worst = float(np.max(ratio))
    if worst > 1.0 + divisor_tol:
        raise NotADivisor(f"sampled |b/b_n| reaches {worst}")
    G = _kernel_matrix(b, points) - _kernel_matrix(b_n, points)
    G = 0.5 * (G + G.conj().T)
    return float(np.min(np.linalg.eigvalsh(G)))


# ---------------------------------------------------------------------------
# J-embedding identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JRelationReport:
    annihilator_residual: float
    direct_residual: float
    lam: complex
    mode: str

    def to_json(self) -> dict:
        return {
            "annihilator_residual": self.annihilator_residual,
            "direct_residual": self.direct_residual,
            "lam_re": self.lam.real,
            "lam_im": self.lam.imag,
            "mode": self.mode,
        }


def _fejer_polynomial_symbol(b: SymbolB, degree: int) -> np.ndarray:
    """Analytic Fejer approximant coefficients, certified sup norm <= 1.

    The grid Fejer mean of b has modulus at most max|b| <= 1, but dropping
    the (tiny, aliasing-level) negative-index content can push the modulus
    above 1; the certified excess is divided out.
    """
    n = b.size
    c = np.fft.fft(b.boundary) / n
    taper = 1.0 - np.arange(degree + 1) / (degree + 1.0)
    pos = c[: degree + 1] * taper
    neg_excess = float(np.sum(np.abs(c[n - degree :] * taper[1:][::-1]))) if degree else 0.0
    return pos / (1.0 + neg_excess)


def kernel_tuple(
    b_coeffs: np.ndarray, delta: np.ndarray, lam: complex, grid_log2: int
) -> tuple[np.ndarray, np.ndarray]:
    """The tuple (f, g) = (k_b(lam, .), -conj(b(lam)) Delta s_lam) as samples."""
    n = 1 << grid_log2
    t = grid_angles(grid_log2)
    zeta = np.exp(1j * t)
    s_lam = 1.0 / (1.0 - np.conj(lam) * zeta)
    b_samples = synthesize_analytic(AnalyticSeries(b_coeffs), grid_log2)
    b_at_lam = complex(np.polyval(b_coeffs[::-1], lam))
    f = (1.0 - np.conj(b_at_lam) * b_samples) * s_lam
    g = -np.conj(b_at_lam) * delta * s_lam
    return f, g


def j_relation_residuals(
    b_samples: np.ndarray,
    delta: np.ndarray,
    f: np.ndarray,
    g: np.ndarray,
    k_max: int,
    band: int,
) -> tuple[float, float]:
    """(annihilator, direct) residuals of P_+(conj(b) f) + P_+(Delta g).

    The annihilator part is the tuple pairing against (b z^k, Delta z^k) for
    k <= k_max; the direct part is the l2 norm of the projected sum on the
    coefficient band.
    """
    n = len(b_samples)
    total = np.conj(b_samples) * f + delta * g
    coeffs = np.fft.fft(total)[: band + 1] / n
    return float(np.max(np.abs(coeffs[: k_max + 1]))), float(np.linalg.norm(coeffs))


def j_relation_check(
    b: SymbolB,
    f: np.ndarray | None = None,
    g: np.ndarray | None = None,
    lam: complex = 0.3,
    k_max: int = 32,
    degree: int | None = None,
    mode: str = "fejer",
) -> JRelationReport:
    """Verify the defining relation and the orthogonal-complement pairing.

    Without explicit (f, g) the kernel tuple at ``lam`` is used.  In the
    default mode the symbol is its own Fejer polynomial approximant with
    Delta refitted on the grid, so both residuals vanish to rounding; in
    ``direct`` mode the raw boundary samples of b are used (appropriate for
    symbols with fast-converging coefficients, e.g. Blaschke products).
    """
    n = b.size
    band = n // 2 - 1
    if mode == "fejer":
        if degree is None:
            degree = n // 8
        bc = _fejer_polynomial_symbol(b, degree)
        b_samples = synthesize_analytic(AnalyticSeries(bc), b.grid_log2)
        delta = np.sqrt(np.maximum(0.0, 1.0 - np.abs(b_samples) ** 2))
        if f is None:
            f, g = kernel_tuple(bc, delta, lam, b.grid_log2)
    elif mode == "direct":
        b_samples = b.boundary
        delta = b.delta
        if f is None:
            bc = np.fft.fft(b.boundary)[: (degree or n // 4) + 1] / n
            f, g = kernel_tuple(bc, delta, lam, b.grid_log2)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if g is None:
        g = np.zeros(n, dtype=complex)
    ann, direct = j_relation_residuals(b_samples, delta, f, g, k_max, band)
    return JRelationReport(ann, direct, complex(lam), mode)


# ---------------------------------------------------------------------------
# permanence functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermanenceReport:
    orthogonality_residual: float
    degrees: tuple[int, ...]
    u1_constants: tuple[float, ...]
    u2_constants: tuple[float, ...]
    u1_stability: float
    u2_stability: float
    alpha_orders: int
    trivial: bool = False

    def stable_within(self, factor: float) -> bool:
        return max(self.u1_stability, self.u2_stability) <= factor

    def to_json(self) -> dict:
        return {
            "orthogonality_residual": self.orthogonality_residual,
            "degrees": list(self.degrees),
            "u1_constants": list(self.u1_constants),
            "u2_constants": list(self.u2_constants),
            "u1_stability": self.u1_stability,
            "u2_stability": self.u2_stability,
            "alpha_orders": self.alpha_orders,
            "trivial": self.trivial,
        }


def _fitted_constants(values: np.ndarray, degrees) -> tuple[tuple[float, ...], float]:
    consts = tuple(float(np.max(values[: D + 1])) for D in degrees)
    positive = [c for c in consts if c > 0.0]
    stability = max(positive) / min(positive) if positive else 1.0
    return consts, float(stability)


def permanence_functional_check(
    theta: InnerFunction,
    E: BeurlingCarlesonSet,
    w: BoundaryWeight,
    alpha: WeightSequence | None = None,
    degrees=(8, 16, 24, 32),
    k_max: int = 32,
    cutoff_kmax: int = 12,
    orth_band: int = 1 << 19,
    alpha_range: int = 4096,
    n_max: int = 4,
) -> PermanenceReport:
    """Finite-scale permanence evidence for the pair (theta, E, w).

    Builds the degree-0..3 members s = theta conj(zeta p g_E W), computes
    the model-space membership residual, splits the base transform into the
    complement piece u1 and the carrier piece u2, and fits the functional
    constants  max_j |u1_j| sqrt(alpha_j)  (boundedness against the dual
    weighted norm) and  max_j |u2_j| / ||sqrt(w)||  (boundedness against the
    weighted boundary norm) over growing degree windows.  With the singular
    support on E both families of constants stabilize; an atom inside a gap
    degrades the u1 family, which is reported, not thresholded.

    When no weight sequence is supplied one is constructed from u1 itself,
    reducing the polynomial order until the construction fits the range.
    """
    W = outer_from_weight(w)
    g_E = build_cutoff(E, k_max=cutoff_kmax)
    g_samples = cutoff_boundary_samples(g_E, w.grid_log2)
    members = [
        build_member(
            "K2",
            AnalyticSeries(np.eye(1, j + 1, j).ravel()),
            cutoff=g_E,
            cutoff_set=E,
            outer=W,
            theta=theta,
            cutoff_samples=g_samples,
        )
        for j in range(4)
    ]
    # theta's coefficients are computed once for all four members.
    if theta.is_trivial:
        # Model space of theta = 1 is trivial; all functionals vanish.
        resid = _max_orthogonality(members, k_max, min(orth_band, 4096))
        return PermanenceReport(resid, tuple(degrees), (), (), 1.0, 1.0, 0, trivial=True)

    resid = _max_orthogonality(members, k_max, orth_band)

    split = split_transform(members[0], weight_values=w.values, max_k=max(degrees))
    u1 = split.u1.coeffs
    u2 = split.u2.coeffs

    orders = 0
    if alpha is None:
        trunc = AnalyticSeries(u1[:alpha_range])
        for trial in range(n_max, 0, -1):
            try:
                alpha = rapid_weight(trunc, trial)
                orders = trial
                break
            except RangeExhausted:
                continue
        if alpha is None:
            alpha = WeightSequence(np.ones(alpha_range))
    else:
        orders = alpha.rapid_orders_certified

    top = max(degrees)
    c1_vals = np.abs(u1[: top + 1]) * np.sqrt(alpha.alpha[: top + 1])
    wmass = math.sqrt(float(np.sum(w.values[w.mask])) / w.values.size)
    c2_vals = np.abs(u2[: top + 1]) / max(wmass, 1e-300)
    c1, s1 = _fitted_constants(c1_vals, degrees)
    c2, s2 = _fitted_constants(c2_vals, degrees)
    return PermanenceReport(
        orthogonality_residual=resid,
        degrees=tuple(degrees),
        u1_constants=c1,
        u2_constants=c2,
        u1_stability=s1,
        u2_stability=s2,
        alpha_orders=orders,
    )
