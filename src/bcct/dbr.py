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

from dataclasses import dataclass

import numpy as np

from .boundary_calculus import (
    AnalyticSeries,
    _spectrum,
    evaluate_in_disk,
    grid_angles,
    indicator_mask,
    monomial,
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

# Degree windows over which the permanence constants are fitted.
PERMANENCE_DEGREES = (8, 16, 24, 32)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolB:
    """Bounded symbol b = theta * u with |b| < 1 exactly on the carrier E.

    ``delta`` is sqrt(1 - |b|^2) on the grid; off E it vanishes identically,
    which is what flags the symbol as an extreme point (log(delta) is not
    integrable over the complement).
    """

    inner: InnerFunction
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
        """Interior evaluation theta(z) * exp(Herglotz of log|u|).

        The Herglotz factor comes from :func:`herglotz_exp`: one FFT and the
        spectral Cauchy sum at |z| <= 1 - 1e-6, the pole sum nearer the
        circle."""
        return self.inner.eval(z) * herglotz_exp(self.log_modulus, z)


def build_symbol(inner: InnerFunction, modulus: BoundaryWeight) -> SymbolB:
    """Assemble b = theta * u from the inner part and the modulus of the
    outer part on its carrier (modulus 1 elsewhere).  The symbol is flagged
    extreme when delta is exactly 0 at some grid point off the carrier, where
    log(delta) = -inf makes its quadrature diverge."""
    u = outer_from_weight(modulus)
    theta_b = inner.boundary_samples(modulus.grid_log2)
    b = theta_b * u.boundary
    delta2 = np.maximum(0.0, 1.0 - np.abs(b) ** 2)
    delta = np.sqrt(delta2)
    extreme = bool(np.any(delta[~modulus.mask] == 0.0))
    return SymbolB(
        inner=inner,
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

def kernel_eval(b, lam, z) -> complex | np.ndarray:
    """k_b(lam, z) for the callable b, such as ``SymbolB.eval`` (b = 0 gives
    the Szego kernel); Hermitian in its arguments, nonnegative on the
    diagonal."""
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(lam) >= 1.0) or np.any(np.abs(z) >= 1.0):
        raise ValueError("kernel arguments must lie in the open disk")
    blam = np.asarray(b(lam), dtype=complex)
    bz = np.asarray(b(z), dtype=complex)
    out = (1.0 - np.conj(blam) * bz) / (1.0 - np.conj(lam) * z)
    return out if out.shape else complex(out)


def kernel_difference_psd(b: SymbolB, b_n: SymbolB) -> float:
    """Least eigenvalue of the Gram matrix [k_b - k_{b_n}] on the 32-point
    golden-angle lattice of radius 0.85.

    The divisor property |b/b_n| <= 1 + 1e-8 is sampled first, on the
    1024-point golden-angle lattice of radius 0.95 (both symbols are
    genuine analytic functions of the same discrete data, so the positive
    semidefiniteness is structural once the quotient is a self-map).
    """
    sample_pts = interior_lattice(1024, 0.95)
    qb = np.asarray(b.eval(sample_pts), dtype=complex)
    qn = np.asarray(b_n.eval(sample_pts), dtype=complex)
    ratio = np.abs(qb) / np.maximum(np.abs(qn), 1e-300)
    worst = float(np.max(ratio))
    if worst > 1.0 + 1e-8:
        raise NotADivisor(f"sampled |b/b_n| reaches {worst}")
    points = interior_lattice(32, 0.85)
    lam, z = points[:, None], points[None, :]
    G = kernel_eval(b.eval, lam, z) - kernel_eval(b_n.eval, lam, z)
    G = 0.5 * (G + G.conj().T)
    return float(np.min(np.linalg.eigvalsh(G)))


# ---------------------------------------------------------------------------
# J-embedding identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JRelationReport:
    annihilator_residual: float
    direct_residual: float


def _fejer_polynomial_symbol(b: SymbolB, degree: int) -> np.ndarray:
    """Analytic Fejer approximant coefficients, certified sup norm <= 1.

    The grid Fejer mean of b has modulus at most max|b| <= 1, but dropping
    the (tiny, aliasing-level) negative-index content can push the modulus
    above 1; the certified excess is divided out.
    """
    c = _spectrum(b.boundary)
    taper = 1.0 - np.arange(degree + 1) / (degree + 1.0)
    pos = c[: degree + 1] * taper
    neg_excess = float(np.sum(np.abs(c[len(c) - degree :] * taper[1:][::-1])))
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
    b_at_lam = complex(evaluate_in_disk(AnalyticSeries(b_coeffs), lam))
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
    total = np.conj(b_samples) * f + delta * g
    coeffs = _spectrum(total)[: band + 1]
    return float(np.max(np.abs(coeffs[: k_max + 1]))), float(np.linalg.norm(coeffs))


def j_relation_check(
    b: SymbolB,
    lam: complex = 0.3,
    k_max: int = 32,
    mode: str = "fejer",
) -> JRelationReport:
    """Verify the defining relation and the orthogonal-complement pairing on
    the kernel tuple (f, g) at ``lam`` (:func:`kernel_tuple`).

    In the default mode the symbol is its own Fejer polynomial approximant
    with Delta refitted on the grid, so both residuals vanish to rounding;
    in ``direct`` mode the raw boundary samples of b are used (appropriate
    for symbols with fast-converging coefficients, e.g. Blaschke products).
    The polynomial symbol has degree size/8 in the default mode and size/4
    in ``direct`` mode.
    """
    n = b.size
    band = n // 2 - 1
    if mode == "fejer":
        bc = _fejer_polynomial_symbol(b, n // 8)
        b_samples = synthesize_analytic(AnalyticSeries(bc), b.grid_log2)
        delta = np.sqrt(np.maximum(0.0, 1.0 - np.abs(b_samples) ** 2))
    elif mode == "direct":
        b_samples = b.boundary
        delta = b.delta
        bc = _spectrum(b.boundary)[: n // 4 + 1]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    f, g = kernel_tuple(bc, delta, lam, b.grid_log2)
    ann, direct = j_relation_residuals(b_samples, delta, f, g, k_max, band)
    return JRelationReport(ann, direct)


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
    cutoff_kmax: int = 12,
    orth_band: int = 1 << 19,
) -> PermanenceReport:
    """Finite-scale permanence evidence for the pair (theta, E, w).

    Builds the degree-0..3 members s = theta conj(zeta p g_E W), computes
    the model-space membership residual for k <= 32, splits the base
    transform into the complement piece u1 and the carrier piece u2, and
    fits the functional constants  max_j |u1_j| sqrt(alpha_j)  (boundedness
    against the dual weighted norm) and  max_j |u2_j| / ||sqrt(w)||
    (boundedness against the weighted boundary norm) over the degree windows
    PERMANENCE_DEGREES.  With the singular support on E both families of
    constants stabilize; an atom inside a gap degrades the u1 family, which
    is reported, not thresholded.

    When no weight sequence is supplied one is constructed from the first
    4096 coefficients of u1, reducing the polynomial order from 4 until the
    construction fits that range.
    """
    W = outer_from_weight(w)
    g_E = build_cutoff(E, k_max=cutoff_kmax)
    g_samples = cutoff_boundary_samples(g_E, w.grid_log2)
    members = [
        build_member(
            "K2",
            monomial(j),
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
        resid = _max_orthogonality(members, 32, min(orth_band, 4096))
        return PermanenceReport(resid, PERMANENCE_DEGREES, (), (), 1.0, 1.0, 0, trivial=True)

    resid = _max_orthogonality(members, 32, orth_band)

    top = max(PERMANENCE_DEGREES)
    split = split_transform(members[0], weight_values=w.values)
    u1 = split.u1.coeffs

    orders = 0
    if alpha is None:
        trunc = AnalyticSeries(u1[:4096])
        for trial in range(4, 0, -1):
            try:
                alpha = rapid_weight(trunc, trial)
                orders = trial
                break
            except RangeExhausted:
                continue
        if alpha is None:
            alpha = WeightSequence(np.ones(4096))
    else:
        orders = alpha.rapid_orders_certified

    c1_vals = np.abs(u1[: top + 1]) * np.sqrt(alpha.alpha[: top + 1])
    c1, s1 = _fitted_constants(c1_vals, PERMANENCE_DEGREES)
    c2, s2 = _fitted_constants(split.u2_functional_constants, PERMANENCE_DEGREES)
    return PermanenceReport(
        orthogonality_residual=resid,
        degrees=PERMANENCE_DEGREES,
        u1_constants=c1,
        u2_constants=c2,
        u1_stability=s1,
        u2_stability=s2,
        alpha_orders=orders,
    )
