"""Spectral engine on uniform circle grids.

Fourier analysis/synthesis, analytic (Riesz) projection, the conjugate
function, Fejer means, Horner evaluation inside the disk and the trapezoid
Cauchy sum all live here.  The Cauchy sum uses the exact spectral identity

    (1/n) sum_m v_m / (1 - z conj(zeta_m)) = (1 - z^n)^{-1} sum_{r<n} c_r z^r,

truncated once |z|^R / (1 - |z|) <= eps/4, so no kernel matrix is built.
It serves the transforms' Cauchy integrals and, in
:func:`bcct.factors.herglotz_exp`, the discrete Herglotz integral
(1/n) sum_m u_m (zeta_m + z)/(zeta_m - z), which is twice the Cauchy sum of
u minus its mean.
Everything operates on grids whose size is a power of two, with the Fourier
convention

    c_n = (1/size) * sum_m samples_m * exp(-i n t_m),   t_m = 2 pi m / size,

which is exact for trigonometric polynomials below the Nyquist band; it is
:func:`_spectrum`, and this module alone calls numpy.fft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.fft lazily; a signal handler that calls np.fft during
# that first import recurses, so the package loads it up front.
import numpy.fft

from .circle_sets import TWO_PI, BeurlingCarlesonSet, wrap_angle
from .errors import BandTooLarge, OutsideDomain

MIN_LOG2_SIZE = 8


@dataclass(frozen=True)
class BoundaryGrid:
    """Complex samples on the uniform grid of ``2**log2_size`` circle points."""

    log2_size: int
    samples: np.ndarray

    def __post_init__(self):
        if self.log2_size < MIN_LOG2_SIZE:
            raise ValueError(f"grid needs log2_size >= {MIN_LOG2_SIZE}")
        n = 1 << self.log2_size
        if self.samples.shape != (n,):
            raise ValueError(f"expected {n} samples, got {self.samples.shape}")

    @property
    def size(self) -> int:
        return 1 << self.log2_size

    @property
    def angles(self) -> np.ndarray:
        return grid_angles(self.log2_size)

    @property
    def points(self) -> np.ndarray:
        return np.exp(1j * self.angles)

    @classmethod
    def from_function(cls, log2_size: int, fn) -> "BoundaryGrid":
        t = grid_angles(log2_size)
        return cls(log2_size, np.asarray(fn(t), dtype=complex))


def grid_angles(log2_size: int) -> np.ndarray:
    n = 1 << log2_size
    return TWO_PI * np.arange(n) / n


@dataclass(frozen=True)
class AnalyticSeries:
    """Finite Taylor coefficient vector (f_0, ..., f_d) of f(z) = sum f_k z^k."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def norm_h2(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def padded(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        out[: min(n, len(self.coeffs))] = self.coeffs[:n]
        return out


def monomial(k: int) -> AnalyticSeries:
    """The series of z^k."""
    c = np.zeros(k + 1, dtype=complex)
    c[k] = 1.0
    return AnalyticSeries(c)


def _spectrum(values: np.ndarray) -> np.ndarray:
    """Grid Fourier coefficients fft(values) / len(values), read-only."""
    c = np.fft.fft(values) / len(values)
    c.flags.writeable = False
    return c


def fourier_coefficients(grid: BoundaryGrid, band: int) -> np.ndarray:
    """Two-sided coefficients c_{-band}..c_{band} (length 2*band+1)."""
    n = grid.size
    if band >= n // 2:
        raise BandTooLarge(f"band {band} >= Nyquist {n // 2}")
    idx = np.arange(-band, band + 1) % n
    return _spectrum(grid.samples)[idx]


def synthesize(coeffs: np.ndarray, log2_size: int) -> BoundaryGrid:
    """Evaluate a two-sided coefficient vector on the grid (inverse of analysis)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    band = (len(coeffs) - 1) // 2
    if len(coeffs) != 2 * band + 1:
        raise ValueError("two-sided coefficient vector must have odd length")
    n = 1 << log2_size
    if band >= n // 2:
        raise BandTooLarge(f"band {band} >= Nyquist {n // 2}")
    c = np.zeros(n, dtype=complex)
    idx = np.arange(-band, band + 1) % n
    c[idx] = coeffs
    return BoundaryGrid(log2_size, np.fft.ifft(c) * n)


def analytic_projection(coeffs: np.ndarray) -> AnalyticSeries:
    """Keep the indices n >= 0 of a two-sided coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=complex)
    band = (len(coeffs) - 1) // 2
    return AnalyticSeries(coeffs[band:])


def analytic_coefficients(samples: np.ndarray, band: int | None = None) -> AnalyticSeries:
    """Analytic projection straight from grid samples (indices 0..band)."""
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if band is None:
        band = n // 2 - 1
    if band >= n // 2:
        raise BandTooLarge(f"band {band} >= Nyquist {n // 2}")
    return AnalyticSeries(_spectrum(samples)[: band + 1])


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two coefficient vectors, by FFT.

    The transform length is the smallest power of two >= len(a) + len(b);
    entries from len(a) + len(b) - 1 on are rounding noise around zero.
    """
    n = 1
    while n < len(a) + len(b):
        n <<= 1
    return np.fft.ifft(np.fft.fft(a, n) * np.fft.fft(b, n))


def _fft_correlate(a: np.ndarray, b: np.ndarray, lags: int) -> np.ndarray:
    """Cross-correlation sum_m conj(a_m) b_{m+l} for l = 0..lags-1, by FFT.

    Terms with m + l >= len(b) are absent.  The transform length is the
    smallest power of two >= max(len(b), len(a) + lags - 1), so no product
    wraps around into a kept lag.
    """
    n = 1
    while n < max(len(b), len(a) + lags - 1):
        n <<= 1
    return np.fft.ifft(np.conj(np.fft.fft(a, n)) * np.fft.fft(b, n))[:lags]


def conjugate_function(u: np.ndarray) -> np.ndarray:
    """Harmonic conjugate on the grid: multiplier -i*sign(n), mean killed.

    For real input the output is real, has mean zero, and exp(u + i*conj(u))
    has (numerically) vanishing negative Fourier coefficients.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    c = np.fft.fft(u)
    mult = np.zeros(n, dtype=complex)
    mult[1 : n // 2] = -1j
    mult[n // 2 + 1 :] = 1j
    # Nyquist and mean stay zero.
    return np.real(np.fft.ifft(c * mult))


def fejer_means(series: AnalyticSeries, degree: int) -> AnalyticSeries:
    """Fejer (Cesaro) regularization: coefficient k scaled by 1 - k/(degree+1).

    Never increases the sup norm on the circle.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    k = np.arange(min(len(series), degree + 1))
    out = series.coeffs[: degree + 1].copy()
    out[: len(k)] *= 1.0 - k / (degree + 1.0)
    return AnalyticSeries(out)


def evaluate_in_disk(series: AnalyticSeries, z) -> complex | np.ndarray:
    """Horner evaluation of the finite series at |z| <= 1 - 1e-6."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 - 1e-6):
        raise OutsideDomain("evaluate_in_disk needs |z| <= 1 - 1e-6")
    acc = np.zeros_like(z)
    for c in series.coeffs[::-1]:
        acc = acc * z + c
    return acc if acc.shape else complex(acc)


def _cauchy_sum(c: np.ndarray, z):
    """Trapezoid Cauchy sum at interior points of the grid values v, taken
    from their spectrum c = fft(v)/n (no FFT here):

        (1/n) sum_m v_m / (1 - z conj(zeta_m)) = (1 - z^n)^{-1} sum_{r<n} c_r z^r,

    with zeta_m = exp(2 pi i m/n): expand the kernel as a geometric series
    in z conj(zeta_m) and fold the powers modulo n.  The polynomial is
    truncated at R = min(n, R_eps) terms, R_eps the least R
    with |z|^R / (1 - |z|) <= eps/4 at the largest |z|, so the dropped tail
    stays below eps/4 * max|c| (378 terms at |z| = 0.9, 789 at 0.95).
    With R = n the sum is exact.
    """
    n = len(c)
    z = np.asarray(z, dtype=complex)
    r_max = float(np.max(np.abs(z), initial=0.0))
    if r_max > 1.0 - 1e-6:
        raise OutsideDomain("the Cauchy sum needs |z| <= 1 - 1e-6")
    terms = 1
    if r_max > 0.0:
        eps = np.finfo(float).eps
        terms = min(n, math.ceil(math.log(eps / 4 * (1.0 - r_max)) / math.log(r_max)))
    return evaluate_in_disk(AnalyticSeries(c[:terms]), z) / (1.0 - z**n)


def cauchy_quadrature(grid: BoundaryGrid, z, mask: np.ndarray | None = None):
    """Trapezoid quadrature of the Cauchy integral of the samples.

        C(z) = (1/size) * sum_m samples_m * mask_m / (1 - z * conj(zeta_m))

    Evaluated exactly, to rounding, as (1 - z^size)^{-1} sum_r c_r z^r with
    c = fft(samples * mask)/size, the spectrum passed to :func:`_cauchy_sum`
    (which truncates the sum once |z|^R / (1 - |z|) <= eps/4).  Spectrally
    accurate for smooth integrands; O(1/size) near indicator jumps.  Only |z| <= 0.95 is accepted,
    which keeps the truncation below about 800 terms.
    """
    if np.any(np.abs(z) > 0.95):
        raise OutsideDomain("cauchy_quadrature needs |z| <= 0.95")
    vals = grid.samples if mask is None else grid.samples * mask
    out = _cauchy_sum(_spectrum(vals), z)
    return out if np.shape(out) else complex(out)


def indicator_mask(E: BeurlingCarlesonSet, log2_size: int) -> np.ndarray:
    """Boolean grid mask of membership in E, with snapped gap endpoints,
    read-only (a weight and the members built on it share one mask).

    Gap endpoints are snapped to the nearest grid point (always within half a
    cell); the snapped endpoints themselves belong to E, matching the closed
    set convention.
    """
    n = 1 << log2_size
    cell = TWO_PI / n
    mask = np.ones(n, dtype=bool)
    for g in E.gaps:
        lo = wrap_angle(g.start) / cell
        hi = lo + (g.end - g.start) / cell
        lo_i, hi_i = round(lo), round(hi)
        idx = np.arange(lo_i + 1, hi_i) % n
        mask[idx] = False
    mask.flags.writeable = False
    return mask


def sup_norm_bound(series: AnalyticSeries, log2_size: int = 12) -> float:
    """Certified upper bound for the sup norm of a polynomial on the circle.

    Bernstein: ||p||_inf <= max over the grid / (1 - pi d / size), valid as
    long as the degree d is below size/pi.
    """
    n = 1 << log2_size
    d = series.degree
    if math.pi * d >= n:
        raise BandTooLarge("grid too coarse for a certified sup bound")
    vals = synthesize_analytic(series, log2_size)
    gmax = float(np.max(np.abs(vals)))
    return gmax / (1.0 - math.pi * d / n)


def synthesize_analytic(series: AnalyticSeries, log2_size: int) -> np.ndarray:
    """Boundary samples of an analytic polynomial (indices 0..degree)."""
    n = 1 << log2_size
    if series.degree >= n // 2:
        raise BandTooLarge("series degree above Nyquist")
    c = np.zeros(n, dtype=complex)
    c[: len(series.coeffs)] = series.coeffs
    return np.fft.ifft(c) * n


def coefficients_to_csv(coeffs: np.ndarray, path, first_index: int = 0) -> None:
    """Dump a coefficient vector as CSV rows (n, Re c_n, Im c_n)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    with open(path, "w") as fh:
        fh.write("n,re,im\n")
        for i, c in enumerate(coeffs):
            fh.write(f"{first_index + i},{c.real:.17g},{c.imag:.17g}\n")


def grid_to_file(grid: BoundaryGrid, path) -> None:
    """Dump grid samples: CSV rows (t_m, Re, Im), or .npy binary."""
    path = str(path)
    if path.endswith(".npy"):
        np.save(path, grid.samples)
        return
    t = grid.angles
    with open(path, "w") as fh:
        fh.write("t,re,im\n")
        for tm, s in zip(t, grid.samples):
            fh.write(f"{tm:.17g},{s.real:.17g},{s.imag:.17g}\n")
