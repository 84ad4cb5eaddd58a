"""Symbols b = theta * u, reproducing kernels and permanence functionals.

The kernel of the space attached to a symbol b is

    k_b(lam, z) = (1 - conj(b(lam)) b(z)) / (1 - conj(lam) z).

When b_n divides b (|b/b_n| <= 1 on the disk), k_b - k_{b_n} is again a
positive definite kernel; :func:`divisor_psd` certifies this on a finite
point lattice, with the swapped pair as its control, from one evaluation of
each symbol per lattice.  The J-embedding identities are checked in a fully
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
from functools import cached_property

import numpy as np

from .boundary_calculus import (
    AnalyticSeries,
    _spectrum,
    evaluate_in_disk,
    grid_points,
    indicator_mask,
    monomial,
    synthesize_analytic,
)
from .circle_sets import BeurlingCarlesonSet
from .cutoff import build_cutoff
from .errors import NotADivisor, OutsideDomain, RangeExhausted
from .factors import (
    BoundaryWeight,
    InnerFunction,
    boundary_weight,
    herglotz_exp,
    outer_from_weight,
)
from .spaces import WeightSequence, rapid_weight
from .transforms import (
    MemberIngredients,
    _max_orthogonality,
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
    """Bounded symbol b = theta * u: the inner factor theta and the modulus of
    the outer factor u (``modulus`` on its carrier E, 1 elsewhere).

    ``boundary``, b's grid samples, and ``delta``, sqrt(1 - |b|^2) on the
    grid, are formed on first read and read-only; the divisor certificate
    reads neither.  Off E, delta vanishes identically, which is what flags
    the symbol as an extreme point (log(delta) is not integrable over the
    complement).
    """

    inner: InnerFunction
    modulus: BoundaryWeight

    @property
    def grid_log2(self) -> int:
        return self.modulus.grid_log2

    @property
    def size(self) -> int:
        return 1 << self.grid_log2

    @cached_property
    def boundary(self) -> np.ndarray:
        b = self.inner.boundary_samples(self.grid_log2) * outer_from_weight(self.modulus).boundary
        b.flags.writeable = False
        return b

    @cached_property
    def delta(self) -> np.ndarray:
        delta = np.sqrt(np.maximum(0.0, 1.0 - np.abs(self.boundary) ** 2))
        delta.flags.writeable = False
        return delta

    @property
    def extreme_flagged(self) -> bool:
        """Whether delta is exactly 0 at some grid point off the carrier,
        where log(delta) = -inf makes its quadrature diverge."""
        return bool(np.any(self.delta[~self.modulus.mask] == 0.0))

    def eval(self, z) -> complex | np.ndarray:
        """Interior evaluation theta(z) * exp(Herglotz of log|u|).

        The Herglotz factor comes from :func:`herglotz_exp`: one FFT and the
        spectral Cauchy sum, at |z| <= 1 - 1e-6; nearer the circle it raises
        :class:`OutsideDomain` before theta is evaluated."""
        outer = herglotz_exp(self.modulus.log_values, z)
        return self.inner.eval(z) * outer


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
    read from b's log-modulus (equal to log|b| almost everywhere and free of
    the removable zeros at exact atom hits).
    """
    mask_n = indicator_mask(sub_support, b.grid_log2)
    vals = np.where(mask_n, np.exp(b.modulus.log_values), 1.0)
    modulus_n = boundary_weight(sub_support, vals, b.grid_log2)
    theta_n = inner_part if inner_part is not None else b.inner
    return SymbolB(theta_n, modulus_n)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _kernel(b_lam, b_z, lam, z) -> np.ndarray:
    """k_b(lam, z) = (1 - conj(b(lam)) b(z)) / (1 - conj(lam) z) from the
    values b(lam) and b(z)."""
    return (1.0 - np.conj(b_lam) * b_z) / (1.0 - np.conj(lam) * z)


def kernel_eval(b, lam, z) -> complex | np.ndarray:
    """k_b(lam, z) for the callable b, such as ``SymbolB.eval`` (b = 0 gives
    the Szego kernel); Hermitian in its arguments, nonnegative on the
    diagonal.  The domain is the open disk intersected with b's own domain;
    a point outside the open disk raises :class:`OutsideDomain`, and so does
    one outside the domain of ``SymbolB.eval``, |z| <= 1 - 1e-6."""
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if not (np.all(np.abs(lam) < 1.0) and np.all(np.abs(z) < 1.0)):  # NaN fails too
        raise OutsideDomain("kernel arguments must lie in the open disk")
    out = _kernel(np.asarray(b(lam), dtype=complex), np.asarray(b(z), dtype=complex), lam, z)
    return out if out.shape else complex(out)


def divisor_psd(b: SymbolB, b_n: SymbolB) -> tuple[float, bool]:
    """Least eigenvalue of the Gram matrix [k_b - k_{b_n}] on the 32-point
    golden-angle lattice of radius 0.85, and its swap control: whether the
    swapped pair fails the divisor test (it must if |b| < |b_n| somewhere).

    The divisor property |b/b_n| <= 1 + 1e-8 is sampled first, on the
    1024-point golden-angle lattice of radius 0.95, and :class:`NotADivisor`
    is raised when it fails (both symbols are genuine analytic functions of
    the same discrete data, so the positive semidefiniteness is structural
    once the quotient is a self-map).  The swap control is the same sampled
    ratio taken the other way.  Each symbol is evaluated once per lattice.
    """
    sample_pts = interior_lattice(1024, 0.95)
    qb = np.abs(np.asarray(b.eval(sample_pts), dtype=complex))
    qn = np.abs(np.asarray(b_n.eval(sample_pts), dtype=complex))
    worst = float(np.max(qb / np.maximum(qn, 1e-300)))
    if worst > 1.0 + 1e-8:
        raise NotADivisor(f"sampled |b/b_n| reaches {worst}")
    swap_failed = float(np.max(qn / np.maximum(qb, 1e-300))) > 1.0 + 1e-8
    points = interior_lattice(32, 0.85)
    lam, z = points[:, None], points[None, :]
    vb = np.asarray(b.eval(points), dtype=complex)
    vn = np.asarray(b_n.eval(points), dtype=complex)
    G = _kernel(vb[:, None], vb[None, :], lam, z) - _kernel(vn[:, None], vn[None, :], lam, z)
    G = 0.5 * (G + G.conj().T)
    return float(np.min(np.linalg.eigvalsh(G))), swap_failed


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
    zeta = grid_points(grid_log2)
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


def j_relation_check(b: SymbolB, lam: complex = 0.3, k_max: int = 32) -> JRelationReport:
    """Verify the defining relation and the orthogonal-complement pairing on
    the kernel tuple (f, g) at ``lam`` (:func:`kernel_tuple`).

    The symbol is replaced by its Fejer polynomial approximant of degree
    size/8, with Delta refitted on the grid, so both residuals vanish to
    rounding.  For a symbol with fast-converging coefficients, such as a
    Blaschke product, compose :func:`kernel_tuple` with
    :func:`j_relation_residuals` on the raw boundary samples instead.
    """
    n = b.size
    bc = _fejer_polynomial_symbol(b, n // 8)
    b_samples = synthesize_analytic(AnalyticSeries(bc), b.grid_log2)
    delta = np.sqrt(np.maximum(0.0, 1.0 - np.abs(b_samples) ** 2))
    f, g = kernel_tuple(bc, delta, lam, b.grid_log2)
    ann, direct = j_relation_residuals(b_samples, delta, f, g, k_max, n // 2 - 1)
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
    """:func:`permanence_report` over E, W of w and g_E at depth ``cutoff_kmax``."""
    ingredients = MemberIngredients(E, outer_from_weight(w), build_cutoff(E, k_max=cutoff_kmax))
    return permanence_report(theta, ingredients, alpha, orth_band)


def permanence_report(
    theta: InnerFunction, ingredients: MemberIngredients, alpha: WeightSequence | None, orth_band: int
) -> PermanenceReport:
    """Finite-scale permanence evidence for theta over (E, W, g_E).

    Builds the degree-0..3 members s = theta conj(zeta p g_E W), computes
    the model-space membership residual for k <= 32 from q and theta's
    coefficients, splits the base transform (the one member whose samples
    are formed) into the complement piece u1 and the carrier piece u2, and
    fits the functional constants  max_j |u1_j| sqrt(alpha_j)  (boundedness
    against the dual weighted norm) and  max_j |u2_j| / ||sqrt(w)||, with w
    the weight of W (boundedness against the weighted boundary norm), over
    the degree windows PERMANENCE_DEGREES.  With the singular support on E
    both families of constants stabilize; an atom inside a gap degrades the
    u1 family, which is reported, not thresholded.

    When ``alpha`` is None a weight sequence is constructed from the first
    4096 coefficients of u1, reducing the polynomial order from 4 until the
    construction fits that range.
    """
    # theta's coefficients are computed once for all four members, and its
    # samples only for the split of the first.
    members = [ingredients.member(monomial(j), theta) for j in range(4)]
    if theta.is_trivial:
        # Model space of theta = 1 is trivial; all functionals vanish.
        resid = _max_orthogonality(members, 32, min(orth_band, 4096))
        return PermanenceReport(resid, PERMANENCE_DEGREES, (), (), 1.0, 1.0, 0, trivial=True)

    resid = _max_orthogonality(members, 32, orth_band)

    top = max(PERMANENCE_DEGREES)
    split = split_transform(members[0])
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
    # ||z^k sqrt(w)||_{L^2(E)} is independent of k; <z^k, u2> = conj(u2_k).
    w = ingredients.outer.weight
    wnorm = math.sqrt(float(np.sum(w.values[w.mask])) / members[0].size)
    c2_vals = np.abs(split.u2.coeffs[: top + 1]) / max(wnorm, 1e-300)
    c2, s2 = _fitted_constants(c2_vals, PERMANENCE_DEGREES)
    return PermanenceReport(
        orthogonality_residual=resid,
        degrees=PERMANENCE_DEGREES,
        u1_constants=c1,
        u2_constants=c2,
        u1_stability=s1,
        u2_stability=s2,
        alpha_orders=orders,
    )
