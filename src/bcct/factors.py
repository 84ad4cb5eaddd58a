"""Outer functions, singular inner functions and Blaschke products.

Outer functions are built from a positive log-integrable weight on a closed
carrier set: the boundary modulus is the weight on the set and 1 off it, the
boundary phase is the harmonic conjugate of the log-modulus, and interior
values come from the discrete Herglotz integral

    W(z) = exp( (1/size) * sum_m log(w_m) * (zeta_m + z)/(zeta_m - z) ).

Singular inner functions use the same kernel with negative atomic masses,
    S_nu(z) = exp( - sum_a mass_a * (zeta_a + z)/(zeta_a - z) ),
and Blaschke products multiply in the usual normalized factors.  All three
factors expose closed-form z-derivatives of their logarithms, which powers
the derivative-growth certificates near the carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._expderiv import _dyadic_level_points, pole_sum
from .boundary_calculus import (
    AnalyticSeries,
    _cauchy_sum,
    _fft_convolve,
    _spectrum,
    conjugate_function,
    grid_angles,
    indicator_mask,
)
from .circle_sets import (
    TWO_PI,
    BeurlingCarlesonSet,
    _read_json,
    dist_to_set,
)
from .errors import ResolutionError, WeightNotLogIntegrable

# Largest ratio of fitted constants on consecutive dyadic levels that the
# derivative-growth certificates accept.
STABILITY_FACTOR = 4.0
# Steps of the Laguerre recurrence per chunk; one list of Python floats over
# a whole 2^20 band would cost tens of MB of peak memory.
_LAGUERRE_CHUNK = 4096


# ---------------------------------------------------------------------------
# boundary weights and outer functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryWeight:
    """Positive bounded weight supported on a closed carrier set.

    ``values`` holds full-grid samples; only entries under ``mask`` (the
    carrier) are meaningful, and they are finite and positive.  ``log_integral``
    is the grid quadrature of log(w) over the carrier, at least log(1e-320).
    """

    support: BeurlingCarlesonSet
    grid_log2: int
    values: np.ndarray
    mask: np.ndarray
    log_integral: float


def boundary_weight(E: BeurlingCarlesonSet, values, grid_log2: int) -> BoundaryWeight:
    """Build a :class:`BoundaryWeight` from samples or a callable of the angle;
    raises :class:`WeightNotLogIntegrable` unless they are finite and positive
    on E."""
    n = 1 << grid_log2
    mask = indicator_mask(E, grid_log2)
    if callable(values):
        vals = np.asarray(values(grid_angles(grid_log2)), dtype=float)
    elif np.isscalar(values):
        vals = np.full(n, float(values))
    else:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (n,):
            raise ValueError("weight samples must cover the full grid")
    on = vals[mask]
    if on.size and (np.any(~np.isfinite(on)) or np.any(on <= 0.0)):
        raise WeightNotLogIntegrable("weight must be finite and positive on the carrier")
    log_integral = float(np.sum(np.log(np.maximum(on, 1e-320))) / n)
    return BoundaryWeight(E, grid_log2, vals, mask, log_integral)


@dataclass(frozen=True)
class OuterFunction:
    """Outer function with modulus w on the carrier and 1 elsewhere."""

    weight: BoundaryWeight
    boundary: np.ndarray        # samples of W on the grid
    log_modulus: np.ndarray     # u = log|W| samples (real, 0 off the carrier)

    @property
    def grid_log2(self) -> int:
        return self.weight.grid_log2

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Grid Fourier coefficients fft(boundary) / size, computed on first
        use and read-only."""
        return _spectrum(self.boundary)

    @cached_property
    def series(self) -> AnalyticSeries:
        """Analytic projection of the boundary samples on the indices
        0..size/2-1, a read-only view of :attr:`spectrum`."""
        return AnalyticSeries(self.spectrum[: len(self.spectrum) // 2])

    def eval(self, z) -> complex | np.ndarray:
        """Interior values exp(H(z)) of the discrete Herglotz integral of
        log|W|, by :func:`herglotz_exp`: the spectral Cauchy sum at
        |z| <= 1 - 1e-6, the pole sum nearer the circle.  At z = 0 it is the
        exact quadrature identity W(0) = exp(mean of log|W|)."""
        return herglotz_exp(self.log_modulus, z)

    def log_z_derivs(self, z: np.ndarray, m_max: int) -> list[np.ndarray]:
        return _herglotz_log(self.log_modulus, z, m_max)[1:]


def outer_from_weight(w: BoundaryWeight) -> OuterFunction:
    """Boundary samples exp(u + i*conj(u)) with u = log(w) on the carrier.
    Their analytic projection, ``series``, is computed on first use."""
    with np.errstate(divide="ignore"):
        u = np.where(w.mask, np.log(np.maximum(w.values, 1e-320)), 0.0)
    boundary = np.exp(u + 1j * conjugate_function(u))
    return OuterFunction(weight=w, boundary=boundary, log_modulus=u)


def _herglotz_log(log_modulus: np.ndarray, z, m_max: int = 0) -> list[np.ndarray]:
    """[H, H', ..., H^(m_max)] of the discrete Herglotz integral

        H(z) = (1/n) sum_m u_m (zeta_m + z)/(zeta_m - z)
             = sum_m (2 zeta_m u_m / n) / (zeta_m - z) - (1/n) sum_m u_m,

    with poles at the grid points where u = log_modulus is nonzero."""
    n = len(log_modulus)
    nz = np.nonzero(log_modulus)[0]
    zeta = np.exp(1j * TWO_PI * nz / n)
    u = log_modulus[nz]
    out = pole_sum(zeta, 2.0 * zeta * u / n, z, m_max)
    out[0] -= np.sum(u) / n
    return out


def herglotz_exp(log_modulus: np.ndarray, z) -> complex | np.ndarray:
    """exp of the discrete Herglotz integral H of a real grid function u.

    Since (zeta_m + z)/(zeta_m - z) = 2/(1 - z conj(zeta_m)) - 1, H is twice
    the trapezoid Cauchy sum of u minus its mean c_0, so at |z| <= 1 - 1e-6
    H(z) = 2 * _cauchy_sum(c, z) - c_0 with c = fft(u)/n: one FFT and a
    Horner sum, exact to rounding.  Points nearer the circle lie outside
    the domain of ``_cauchy_sum`` and take the pole sum of
    :func:`_herglotz_log`.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    inside = np.abs(flat) <= 1.0 - 1e-6
    H = np.empty(flat.shape, dtype=complex)
    if inside.any():
        c = _spectrum(log_modulus)
        H[inside] = 2.0 * _cauchy_sum(c, flat[inside]) - c[0]
    if not inside.all():
        H[~inside] = _herglotz_log(log_modulus, flat[~inside])[0]
    out = np.exp(H).reshape(z.shape)
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

    @property
    def total_mass(self) -> float:
        return sum(a.mass for a in self.atoms)

    def part_mass(self, tag: str) -> float:
        return sum(a.mass for a in self.atoms if a.part == tag)

    def restricted(self, tag: str) -> "SingularMeasure":
        return SingularMeasure(
            tuple(a for a in self.atoms if a.part == tag),
            self.carrier_C if tag == "C" else None,
        )


def inner_singular_eval(nu: SingularMeasure, z) -> complex | np.ndarray:
    """S_nu(z) = exp(-sum_a mass_a (zeta_a + z)/(zeta_a - z)); radial limit 0
    at the atoms themselves."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(z.shape, dtype=complex)
    hit = np.zeros(z.shape, dtype=bool)
    for a in nu.atoms:
        diff = a.point - z
        near = np.abs(diff) < 1e-15
        hit |= near
        safe = np.where(near, 1.0, diff)
        acc += a.mass * (a.point + z) / safe
    out = np.exp(-acc)
    out = np.where(hit, 0.0, out)
    return out if out.shape else complex(out)


def _atomic_inner_coefficients(mass: float, band: int) -> np.ndarray:
    """Taylor coefficients 0..band of exp(-mass*(1+z)/(1-z)) via the
    Laguerre recurrence.

    With x = 2*mass the generating identity exp(-x z/(1-z)) = (1-z) *
    sum_n L_n(x) z^n gives coefficient e^{-mass} (L_n(x) - L_{n-1}(x)).
    L_{n+1} = ((2n + 1 - x) L_n - n L_{n-1}) / (n + 1) runs forward on
    Python floats, _LAGUERRE_CHUNK steps at a time: numpy builds a chunk's
    2n + 1 - x, n and n + 1 exactly, and one zip walks them.  Each step does
    the same IEEE operations in the same order as a float64 scalar loop, so
    the result does not depend on the chunk length.  Against 40-digit mpmath
    the absolute error stays below 4e-13 up to n = 2^20.

    Raises ResolutionError when e^{-mass} is below the smallest normal
    double (mass above about 708), or when L_n(x) overflows so that a
    coefficient is not finite.
    """
    scale = math.exp(-mass)
    if scale < np.finfo(float).tiny:
        raise ResolutionError(
            f"atom mass {mass} is too large: e^-mass underflows double precision"
        )
    x = 2.0 * mass
    Ls = np.empty(band + 1)
    Ls[0] = 1.0
    if band >= 1:
        Ls[1] = 1.0 - x
    prev, cur = 1.0, 1.0 - x
    for lo in range(1, band, _LAGUERRE_CHUNK):
        n = np.arange(lo, min(lo + _LAGUERRE_CHUNK, band), dtype=float)
        step = []
        for a, b, c in zip((2.0 * n + 1.0 - x).tolist(), n.tolist(), (n + 1.0).tolist()):
            prev, cur = cur, (a * cur - b * prev) / c
            step.append(cur)
        Ls[lo + 1 : lo + 1 + len(step)] = step
    out = np.empty(band + 1)
    out[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:] = Ls[1:] - Ls[:-1]
        out = scale * out
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

    def eval(self, z) -> complex | np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.asarray(inner_singular_eval(self.singular, z), dtype=complex)
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
        modulus exactly 1 away from the atoms (0 at exact atom hits)."""
        t = grid_angles(grid_log2)
        z = np.exp(1j * t)
        out = np.ones(len(t), dtype=complex)
        hit = np.zeros(len(t), dtype=bool)
        for atom in self.singular.atoms:
            half = 0.5 * (t - atom.angle)
            near = np.abs(np.sin(half)) < 1e-15
            hit |= near
            phase = atom.mass / np.tan(np.where(near, 1.0, half))
            out = out * np.exp(-1j * phase)
        return np.where(hit, 0.0, self._times_blaschke(out, z))

    def coefficients(self, band: int) -> np.ndarray:
        """Taylor coefficients 0..band, computed factor by factor (exact up
        to rounding; no grid sampling is involved).

        The product starts from the first factor's coefficients and FFT-
        convolves the others into it one at a time, each product truncated
        to the band and copied out of the FFT buffer, so memory does not
        grow with the number of factors.  A single atom costs one Laguerre
        recurrence and no FFT; theta = 1 gives e_0.
        """
        coeffs = None
        for fac in self._factor_coefficients(band):
            coeffs = fac if coeffs is None else _fft_convolve(coeffs, fac)[: band + 1].copy()
        if coeffs is None:
            coeffs = np.zeros(band + 1, dtype=complex)
            coeffs[0] = 1.0
        return coeffs

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

        The atoms contribute -sum_a mass_a (zeta_a + z)/(zeta_a - z), a pole
        sum with weights -2 mass_a zeta_a up to a constant.  A Blaschke zero
        a contributes (log B_a)' = -1/(a - z) + 1/(1/conj(a) - z), the second
        pole only when a != 0, so its orders 0..m_max-1 are orders 1..m_max
        of log B_a.
        """
        if m_max == 0:
            return []
        zeta = np.array([atom.point for atom in self.singular.atoms], dtype=complex)
        mass = np.array([atom.mass for atom in self.singular.atoms])
        out = pole_sum(zeta, -2.0 * mass * zeta, z, m_max)[1:]
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
    consecutive-level ratios stay within STABILITY_FACTOR.
    """

    def factor(z, m_max):
        H = _herglotz_log(W.log_modulus, z, m_max)
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
        lambda z, m_max: (theta.eval(z), theta.log_z_derivs(z, m_max)),
        carrier,
        orders_m,
        grid_log2,
    )


# ---------------------------------------------------------------------------
# external interfaces
# ---------------------------------------------------------------------------

def measure_from_json(path) -> SingularMeasure:
    """Read ``{"atoms": [{"angle":.., "mass":.., "part":"C"|"K"}, ...]}`` from
    the JSON file at ``path``."""
    obj = _read_json(path)
    atoms = tuple(
        Atom(float(a["angle"]), float(a["mass"]), str(a.get("part", "C")))
        for a in obj["atoms"]
    )
    return SingularMeasure(atoms)
