"""Outer functions, singular inner functions and Blaschke products.

Outer functions are built from a positive log-integrable weight on a closed
carrier set: the boundary modulus is the weight on the set and 1 off it, the
boundary phase is the harmonic conjugate of the log-modulus, and interior
values come from the discrete Herglotz integral

    W(z) = exp( (1/size) * sum_m log(w_m) * (zeta_m + z)/(zeta_m - z) ).

Singular inner functions use the same kernel with negative atomic masses,
    S_nu(z) = exp( - sum_a mass_a * (zeta_a + z)/(zeta_a - z) ),
and Blaschke products multiply in the usual normalized factors.  Closed-form
z-derivatives of log(theta) (pole sums) and of log(W) at grid nodes off the
carrier (:func:`herglotz_at_nodes`) power the derivative-growth
certificates near the carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._expderiv import _dyadic_level_points, pole_sum
from .boundary_calculus import (
    _cauchy_sum,
    _closed_disk,
    _fft_convolve,
    _spectrum,
    conjugate_function,
    grid_angles,
    grid_points,
    herglotz_at_nodes,
    indicator_mask,
)
from .circle_sets import BeurlingCarlesonSet, dist_to_set
from .errors import ResolutionError, WeightNotLogIntegrable

# Largest ratio of fitted constants on consecutive dyadic levels that the
# derivative-growth certificates accept.
STABILITY_FACTOR = 4.0
# Indices per chunk of the Laguerre recurrence: numpy takes C steps over
# arrays of about band / C chunks, then one Python step per chunk joins them.
# Fixed, so that chunk starts do not move with the band and a shorter band is
# a bitwise prefix of a longer one.
_LAGUERRE_CHUNK = 256
# Recurrence steps buffered step-major before they are copied into the chunks.
_LAGUERRE_BLOCK = 32


# ---------------------------------------------------------------------------
# boundary weights and outer functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryWeight:
    """Positive bounded weight supported on a closed carrier set.

    ``values`` holds full-grid samples; only entries under ``mask`` (the
    carrier) are meaningful, and they are finite and positive.  ``log_values``
    is u = log(max(w, 1e-320)) on the carrier and 0 off it, read-only: the
    weight's one log, the log-modulus of its outer function.  ``log_integral``
    is the grid quadrature of log(w) over the carrier, sum(u[mask]) / n, at
    least log(1e-320).
    """

    support: BeurlingCarlesonSet
    grid_log2: int
    values: np.ndarray
    mask: np.ndarray
    log_values: np.ndarray
    log_integral: float


def boundary_weight(E: BeurlingCarlesonSet, values, grid_log2: int) -> BoundaryWeight:
    """Build a :class:`BoundaryWeight` from one value or from samples on the
    full grid (at :func:`grid_angles`); raises :class:`WeightNotLogIntegrable`
    unless they are finite and positive on E."""
    n = 1 << grid_log2
    mask = indicator_mask(E, grid_log2)
    if np.isscalar(values):
        vals = np.full(n, float(values))
    else:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (n,):
            raise ValueError("weight samples must cover the full grid")
    # the carrier's least and greatest samples, with no gathered copy: NaN
    # propagates through both, and an empty carrier reads (inf, -inf)
    low = np.min(vals, where=mask, initial=np.inf)
    high = np.max(vals, where=mask, initial=-np.inf)
    if not (low > 0.0 and high < np.inf):
        raise WeightNotLogIntegrable("weight must be finite and positive on the carrier")
    # u is built in one array, with no grid-sized temporaries:
    # log(max(w, 1e-320)) on the carrier only and 0 off it
    u = np.zeros(n)
    np.maximum(vals, 1e-320, out=u, where=mask)
    np.log(u, out=u, where=mask)
    u.flags.writeable = False
    log_integral = float(np.sum(u[mask]) / n)
    return BoundaryWeight(E, grid_log2, vals, mask, u, log_integral)


@dataclass(frozen=True)
class OuterFunction:
    """Outer function with modulus w on the carrier and 1 elsewhere."""

    weight: BoundaryWeight
    boundary: np.ndarray        # samples of W on the grid

    @property
    def grid_log2(self) -> int:
        return self.weight.grid_log2

    @property
    def log_modulus(self) -> np.ndarray:
        """u = log|W| samples, the weight's ``log_values`` (0 off the carrier)."""
        return self.weight.log_values

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Grid Fourier coefficients fft(boundary) / size, computed on first
        use and read-only."""
        return _spectrum(self.boundary)

    def eval(self, z) -> complex | np.ndarray:
        """Interior values exp(H(z)) of the discrete Herglotz integral of
        log|W|, by :func:`herglotz_exp`, at |z| <= 1 - 1e-6; nearer the
        circle it raises :class:`OutsideDomain`.  At z = 0 it is the exact
        quadrature identity W(0) = exp(mean of log|W|)."""
        return herglotz_exp(self.log_modulus, z)


def outer_from_weight(w: BoundaryWeight) -> OuterFunction:
    """Boundary samples exp(u + i*conj(u)), read-only, with u =
    ``w.log_values``, log(w) on the carrier and 0 off it.  Their grid Fourier
    coefficients, ``spectrum``, are computed on first use."""
    # the boundary is built in one array, with no grid-sized temporaries:
    # exp(complex(u, v)) in place, the bits of np.exp(u + 1j * v)
    u = w.log_values
    boundary = np.empty(len(u), dtype=complex)
    boundary.real = u
    boundary.imag = conjugate_function(u)
    np.exp(boundary, out=boundary)
    boundary.flags.writeable = False
    return OuterFunction(weight=w, boundary=boundary)


def herglotz_exp(log_modulus: np.ndarray, z) -> complex | np.ndarray:
    """exp of the discrete Herglotz integral H of a real grid function u.

    Since (zeta_m + z)/(zeta_m - z) = 2/(1 - z conj(zeta_m)) - 1, H is twice
    the trapezoid Cauchy sum of u minus its mean c_0, so H(z) =
    2 * _cauchy_sum(c, z) - c_0 with c = fft(u)/n: one FFT and a Horner sum,
    exact to rounding.  The domain is that of ``_cauchy_sum``,
    |z| <= 1 - 1e-6; a point nearer the circle raises :class:`OutsideDomain`.
    Grid nodes off the carrier take :func:`herglotz_at_nodes`.
    """
    c = _spectrum(log_modulus)
    out = np.exp(2.0 * _cauchy_sum(c, z) - c[0])
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# singular measures and inner functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    angle: float
    mass: float
    part: str = "C"  # declared tag: "C" or "K"

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("atom angle must be finite")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError("atom mass must be finite and positive")
        if self.part not in ("C", "K"):
            raise ValueError("atom part tag must be 'C' or 'K'")

    @property
    def point(self) -> complex:
        return complex(math.cos(self.angle), math.sin(self.angle))


@dataclass(frozen=True)
class SingularMeasure:
    """Atomic singular measure with a declared C/K split.

    The split is metadata: the C part is the portion carried by measure-zero
    Beurling-Carleson sets (``carrier_C`` when supplied) and the K part the
    portion vanishing on all of them.  Nothing is computed from raw measure
    data; callers declare the tags.
    """

    atoms: tuple[Atom, ...]
    carrier_C: BeurlingCarlesonSet | None = None

    def __post_init__(self):
        if self.carrier_C is not None:
            for a in self.atoms:
                if a.part == "C" and dist_to_set(a.angle, self.carrier_C) > 1e-12:
                    raise ValueError("a C-tagged atom lies outside carrier_C")


def _atomic_inner_coefficients(mass: float, band: int) -> np.ndarray:
    """Taylor coefficients 0..band of exp(-mass*(1+z)/(1-z)) via the
    Laguerre recurrence.

    With x = 2*mass the generating identity exp(-x z/(1-z)) = (1-z) *
    sum_n L_n(x) z^n gives coefficient e^{-mass} D_n, D_n = L_n(x) -
    L_{n-1}(x).  The recurrence runs on the pair (L_n, D_n):

        D_{n+1} = (n D_n - x L_n) / (n + 1),    L_{n+1} = L_n + D_{n+1},

    from (L_1, D_1) = (1 - x, -x), with both scaled by e^{-mass} so that
    every value it carries is at most 1 in modulus.  The step is linear,
    so it runs in chunks of _LAGUERRE_CHUNK indices starting at n = 1 + jC,
    all chunks at once: numpy takes each chunk's two fundamental solutions
    from (L, D) = (1, 0) and (0, 1) across C steps, one scalar walk over the
    chunk ends carries the true (L, D) from chunk to chunk, and each chunk's
    D is the combination of its two solutions.  Every value depends only on
    its index, so a shorter band gives a bitwise prefix of a longer one.
    Against 40-digit mpmath the absolute error stays below 1e-16 for masses
    0.05 to 5 up to n = 2^20; up to mass 708.3 it stays below 1e-15 at
    n = 2^14 (60 digits), where L_n(2 mass) comes near its bound e^{mass}.

    Raises ResolutionError when e^{-mass} is below the smallest normal
    double (mass above about 708.4), or when a coefficient is not finite.
    """
    scale = math.exp(-mass)
    if scale < np.finfo(float).tiny:
        raise ResolutionError(
            f"atom mass {mass} is too large: e^-mass underflows double precision"
        )
    x = 2.0 * mass
    C = _LAGUERRE_CHUNK
    J = -(-band // C)
    # out[1 + jC + k] is coefficient 1 + jC + k, step k of chunk j
    out = np.empty(1 + J * C)
    out[0] = scale
    sol_a = out[1:].reshape(J, C)
    sol_b = np.empty((J, C))
    # steps go through a step-major buffer: a strided column store per step
    # into the chunk-major arrays costs more than the step itself
    buf = np.empty((_LAGUERRE_BLOCK, 2, J))
    with np.errstate(all="ignore"):
        # row 0 starts from (L, D) = (1, 0), row 1 from (0, 1)
        L = np.array([np.ones(J), np.zeros(J)])
        D = np.array([np.zeros(J), np.ones(J)])
        n = 1.0 + C * np.arange(J, dtype=float)
        steps = min(C, band)
        for k0 in range(0, steps, _LAGUERRE_BLOCK):
            block = buf[: min(_LAGUERRE_BLOCK, steps - k0)]
            for row in block:
                row[...] = D
                D *= n
                D -= x * L
                n += 1.0
                D /= n
                L += D
            sol_a[:, k0 : k0 + len(block)] = block[:, 0].T
            sol_b[:, k0 : k0 + len(block)] = block[:, 1].T
        # walk the chunk ends: (L, D) at 1 + (j+1)C from (L, D) at 1 + jC
        l_a, d_a, l_b, d_b = L[0].tolist(), D[0].tolist(), L[1].tolist(), D[1].tolist()
        l, d = scale * (1.0 - x), scale * -x
        starts = []
        for j in range(J):
            starts.append((l, d))
            l, d = l * l_a[j] + d * l_b[j], l * d_a[j] + d * d_b[j]
        starts = np.array(starts).reshape(J, 2)
        sol_a *= starts[:, :1]
        sol_b *= starts[:, 1:]
        sol_a += sol_b
    out = out[: band + 1]
    if not np.all(np.isfinite(out)):
        raise ResolutionError(
            f"atom mass {mass}: the Laguerre recurrence overflows at band {band}"
        )
    return out


def _blaschke_factor_coefficients(a: complex, band: int) -> np.ndarray:
    """Taylor coefficients of (|a|/a)(a - z)/(1 - conj(a) z); [0, 1] for a = 0."""
    out = np.zeros(band + 1, dtype=complex)
    if a == 0:
        out[1] = 1.0
        return out
    ac = np.conj(a)
    out[0] = abs(a)
    n = np.arange(1, band + 1)
    out[1:] = (abs(a) / a) * (abs(a) ** 2 - 1.0) * ac ** (n - 1)
    return out


@dataclass(frozen=True)
class InnerFunction:
    """Blaschke part plus atomic singular part; |theta| <= 1 on the disk and
    |theta| = 1 on the circle away from atoms."""

    blaschke_zeros: tuple[complex, ...] = ()
    singular: SingularMeasure = SingularMeasure(())

    def __post_init__(self):
        for a in self.blaschke_zeros:
            if abs(a) >= 1.0:
                raise ValueError("Blaschke zeros must lie inside the open disk")

    @property
    def is_trivial(self) -> bool:
        return not self.blaschke_zeros and not self.singular.atoms

    @cached_property
    def _atom_poles(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(zeta, w, c) with log S_nu(z) = c + sum_a w_a / (zeta_a - z): the
        atom points, w_a = -2 mass_a zeta_a and c = sum_a mass_a."""
        zeta = np.array([atom.point for atom in self.singular.atoms], dtype=complex)
        mass = np.array([atom.mass for atom in self.singular.atoms])
        return zeta, -2.0 * mass * zeta, float(np.sum(mass))

    def eval(self, z) -> complex | np.ndarray:
        """theta at points of the closed disk |z| <= 1 + 1e-12; a point
        outside it, NaN included, raises :class:`OutsideDomain`.  A point
        within 1e-15 of an atom gives 0; it enters the pole sum as z = 0."""
        z = _closed_disk(z, "theta")
        zeta, w, c = self._atom_poles
        hit = np.any(np.abs(zeta - z[..., None]) < 1e-15, axis=-1)
        out = np.where(hit, 0.0, np.exp(c + pole_sum(zeta, w, np.where(hit, 0.0, z))[0]))
        out = self._times_blaschke(out, z)
        return out if out.shape else complex(out)

    def _times_blaschke(self, out: np.ndarray, z: np.ndarray) -> np.ndarray:
        """out times each factor (|a|/a)(a - z)/(1 - conj(a) z), or z for a = 0."""
        for a in self.blaschke_zeros:
            if a == 0:
                out = out * z
            else:
                out = out * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return out

    def boundary_samples(self, grid_log2: int) -> np.ndarray:
        """Samples on the grid; atoms are evaluated through the boundary
        phase formula exp(-i sum mass cot((t - t_a)/2)), which keeps the
        modulus exactly 1 away from the atoms (0 at exact atom hits).  The
        grid points themselves enter only the Blaschke factors."""
        t = grid_angles(grid_log2)
        out = np.ones(len(t), dtype=complex)
        hit = np.zeros(len(t), dtype=bool)
        for atom in self.singular.atoms:
            half = 0.5 * (t - atom.angle)
            near = np.abs(np.sin(half)) < 1e-15
            hit |= near
            phase = atom.mass / np.tan(np.where(near, 1.0, half))
            out = out * np.exp(-1j * phase)
        if self.blaschke_zeros:
            out = self._times_blaschke(out, grid_points(grid_log2))
        return np.where(hit, 0.0, out)

    def coefficients(self, band: int) -> np.ndarray:
        """Taylor coefficients 0..band, computed factor by factor (exact up
        to rounding; no grid sampling is involved).

        The product starts from the first factor's coefficients and FFT-
        convolves the others into it one at a time, each product truncated
        to the band and copied out of the FFT buffer, so memory does not
        grow with the number of factors.  A single atom costs one chunked
        Laguerre recurrence (_atomic_inner_coefficients: within 1e-15 of
        mpmath, for masses up to the e^{-mass} underflow near 708.4) and no
        FFT; theta = 1 gives e_0.  A shorter band gives a bitwise prefix of
        a longer one.
        """
        coeffs = None
        for fac in self._factor_coefficients(band):
            coeffs = fac if coeffs is None else _fft_convolve(coeffs, fac)[: band + 1].copy()
        if coeffs is None:
            coeffs = np.zeros(band + 1, dtype=complex)
            coeffs[0] = 1.0
        return coeffs

    def coefficient_frame(self, band: int) -> tuple[float, np.ndarray]:
        """(phi, a) with Taylor coefficients theta_m = e^{-i phi m} a_m, m = 0..band.

        A single atom at angle phi gives its real Laguerre sequence a_m =
        e^{-mass} D_m (:func:`_atomic_inner_coefficients`), so no rotation
        is computed; every other theta gives phi = 0 and a =
        :meth:`coefficients`.
        """
        atoms = self.singular.atoms
        if len(atoms) == 1 and not self.blaschke_zeros:
            return atoms[0].angle, _atomic_inner_coefficients(atoms[0].mass, band)
        return 0.0, self.coefficients(band)

    def _factor_coefficients(self, band: int):
        """Coefficients 0..band of each factor in turn: the atoms, each
        rotated to its angle, then the Blaschke factors."""
        k = np.arange(band + 1)
        for atom in self.singular.atoms:
            yield _atomic_inner_coefficients(atom.mass, band) * np.exp(-1j * atom.angle * k)
        for a in self.blaschke_zeros:
            yield _blaschke_factor_coefficients(a, band)

    def log_z_derivs(self, z: np.ndarray, m_max: int) -> list[np.ndarray]:
        """d^k/dz^k log(theta) for k = 1..m_max, from two pole sums.

        The atoms contribute the pole sum of :attr:`_atom_poles`, whose
        constant has no derivative.  A Blaschke zero a contributes
        (log B_a)' = -1/(a - z) + 1/(1/conj(a) - z), the second pole only
        when a != 0, so its orders 0..m_max-1 are orders 1..m_max of log B_a.
        """
        if m_max == 0:
            return []
        zeta, w, _ = self._atom_poles
        out = pole_sum(zeta, w, z, m_max)[1:]
        zeros = list(self.blaschke_zeros)
        outside = [1.0 / np.conj(a) for a in zeros if a != 0]
        poles = np.array(zeros + outside, dtype=complex)
        weights = np.array([-1.0] * len(zeros) + [1.0] * len(outside))
        for k, d in enumerate(pole_sum(poles, weights, z, m_max - 1)):
            out[k] += d
        return out


# ---------------------------------------------------------------------------
# derivative-growth certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeBoundReport:
    """Fitted constants C_m(level) = max |d^m/dt^m F| * dist^{2m} per level."""

    orders: tuple[int, ...]
    levels: tuple[float, ...]
    constants: dict

    def stable(self, m: int) -> bool:
        cs = [c for c in self.constants[m] if c > 0.0]
        if len(cs) <= 1:
            return True
        ratios = [max(a, b) / min(a, b) for a, b in zip(cs, cs[1:])]
        return max(ratios) <= STABILITY_FACTOR

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels),
            "constants": {str(m): [float(c) for c in self.constants[m]] for m in self.orders},
            "stability_factor": STABILITY_FACTOR,
            "stable": {str(m): self.stable(m) for m in self.orders},
        }


def _certify_exp_factor(factor, carrier, orders_m, grid_log2):
    orders_m = sorted(set(int(m) for m in orders_m))
    m_top = max(orders_m) if orders_m else 0
    windows = _dyadic_level_points(carrier, grid_log2, 4, factor, m_top)
    constants = {
        m: [float(np.max(mags[m] * dw ** (2 * m))) for _, dw, mags in windows] for m in orders_m
    }
    return DerivativeBoundReport(
        orders=tuple(orders_m),
        levels=tuple(w[0] for w in windows),
        constants=constants,
    )


def certify_W_derivatives(
    W: OuterFunction,
    E: BeurlingCarlesonSet,
    orders_m=(0, 1),
) -> DerivativeBoundReport:
    """Check |d^m W(e^{it})/dt^m| <= C_m dist(e^{it}, E)^{-2m} off the carrier.

    C_m is fitted per dyadic level, on the 4 deepest levels the grid
    resolves, as the max of |d^m W| * dist^{2m}; the report flags whether
    consecutive-level ratios stay within STABILITY_FACTOR.  The windows'
    points are grid nodes off the carrier, on the circle and so outside the
    domain |z| <= 1 - 1e-6 of :func:`herglotz_exp` (which raises
    :class:`OutsideDomain` there); log W and its z-derivatives come from
    :func:`herglotz_at_nodes`, a cot-kernel correlation.
    """

    def factor(z, nodes, m_max):
        H = herglotz_at_nodes(W.log_modulus, nodes, m_max)
        return np.exp(H[0]), H[1:]

    return _certify_exp_factor(factor, E, orders_m, W.grid_log2)


def certify_theta_derivatives(
    theta: InnerFunction,
    carrier: BeurlingCarlesonSet,
    orders_m=(0, 1),
    grid_log2: int = 14,
) -> DerivativeBoundReport:
    """Same protocol as :func:`certify_W_derivatives`, with the singular
    support inside the carrier set."""
    for atom in theta.singular.atoms:
        if dist_to_set(atom.angle, carrier) > 1e-12:
            raise ValueError("singular support must lie inside the carrier")
    return _certify_exp_factor(
        lambda z, nodes, m_max: (theta.eval(z), theta.log_z_derivs(z, m_max)),
        carrier,
        orders_m,
        grid_log2,
    )
