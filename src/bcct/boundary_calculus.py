"""Spectral engine on uniform circle grids.

Everything takes and returns plain sample and coefficient arrays, with the
grid points zeta_m = exp(i t_m), t_m = 2 pi m / n:

* :func:`_spectrum` -- the spectrum c = fft(v)/n of grid values v, that is

      c_r = (1/n) * sum_m v_m * exp(-i r t_m),

  exact for trigonometric polynomials below the Nyquist band; this module
  alone calls numpy.fft;
* :func:`analytic_coefficients` -- the analytic (Riesz) projection, the
  Taylor coefficients c_0..c_band read off the spectrum;
* :func:`synthesize_analytic` -- its inverse, the grid samples of an
  analytic polynomial;
* :func:`_cauchy_sum` -- the trapezoid Cauchy sum, from the spectrum by the
  exact identity

      (1/n) sum_m v_m / (1 - z conj(zeta_m)) = (1 - z^n)^{-1} sum_{r<n} c_r z^r,

  truncated once |z|^R / (1 - |z|) <= eps/4, so no kernel matrix is built.
  It serves the transforms' Cauchy integrals and, in
  :func:`bcct.factors.herglotz_exp`, the discrete Herglotz integral
  (1/n) sum_m u_m (zeta_m + z)/(zeta_m - z), which is twice the Cauchy sum
  of u minus its mean.

Alongside them: the conjugate function, Fejer means, Horner evaluation
inside the disk, FFT convolution and correlation, and the grid mask of a
set.  The package's grids have 2**log2_size points.
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
        # numpy's own pairwise sum: a BLAS dot (np.linalg.norm) sums in an
        # order that follows its thread count, so the last digits would
        # depend on the CPUs the process may use.
        c = self.coeffs
        return math.sqrt(float(np.sum(c.real**2 + c.imag**2)))

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


def analytic_coefficients(samples: np.ndarray, band: int | None = None) -> AnalyticSeries:
    """Analytic (Riesz) projection of grid samples: spectrum indices 0..band."""
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
    """Harmonic conjugate on the grid: multiplier -i*sign(n), mean and
    Nyquist (of even lengths) killed; one real FFT pair.

    For real input the output is real, has mean zero, and exp(u + i*conj(u))
    has (numerically) vanishing negative Fourier coefficients.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    # The real transform holds the indices 0..n/2; irfft supplies the
    # conjugate symmetric rest, where the multiplier is +i.
    c = np.fft.rfft(u)
    c *= -1j
    c[0] = 0.0
    if n % 2 == 0:
        c[-1] = 0.0  # Nyquist
    return np.fft.irfft(c, n)


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
