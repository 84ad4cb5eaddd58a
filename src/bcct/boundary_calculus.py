"""Spectral engine on uniform circle grids.

Everything takes and returns plain sample and coefficient arrays, with the
grid points zeta_m = exp(i t_m), t_m = 2 pi m / n:

* :func:`_spectrum` -- the spectrum c = fft(v)/n of grid values v, that is

      c_r = (1/n) * sum_m v_m * exp(-i r t_m),

  exact for trigonometric polynomials below the Nyquist band; this module
  alone calls numpy.fft.  The 1/n scaling happens inside the forward
  transform (``norm="forward"``, which leaves the inverse unscaled), so no
  extra pass over the grid rescales a result; on the package's power-of-two
  grids that scaling is exact, and the values are those of fft(v)/n and
  ifft(c)*n bit for bit.  Given a mask, the spectrum of v times the mask:
  that product is a temporary built only to be transformed, so the
  transform writes into it and allocates no second grid array (the bits of
  the out-of-place transform).  A caller that gives up a grid array of its
  own has it transformed in its buffer the same way (``_spectrum_in_place``);
* :func:`analytic_coefficients` -- the analytic (Riesz) projection, the
  Taylor coefficients c_0..c_band read off the spectrum;
* :func:`synthesize_analytic` -- its inverse, the grid samples of an
  analytic polynomial, in one of two ways by cost: a monomial, such as a
  member's zeta z^k, as the outer product of a row and a column table of
  roots of unity (one pass over the grid, within a few units of rounding
  of the inverse FFT), every other series by the inverse FFT (about
  log2 n passes);
* :func:`pole_sum_on_grid` -- a pole sum sum_j w_j / (p_j - z) with poles
  outside the disk, on the whole grid, from its exact aliased spectrum:
  one real matrix product of a row and a column table of the poles'
  powers, then one inverse FFT, both in the output array.  It serves g's
  grid samples;
* :func:`_cauchy_sum` -- the trapezoid Cauchy sum, from the spectrum by the
  exact identity

      (1/n) sum_m v_m / (1 - z conj(zeta_m)) = (1 - z^n)^{-1} sum_{r<n} c_r z^r,

  truncated once |z|^R / (1 - |z|) <= eps/4, so no kernel matrix is built.
  It serves the transforms' Cauchy integrals and, in
  :func:`bcct.factors.herglotz_exp`, the discrete Herglotz integral
  (1/n) sum_m u_m (zeta_m + z)/(zeta_m - z), which is twice the Cauchy sum
  of u minus its mean;
* :func:`herglotz_at_nodes` -- that Herglotz integral and its z-derivatives
  at grid nodes where u = 0, as a circular correlation of u with a cot-type
  kernel: the offsets below n/64 summed directly, the rest by one FFT pair
  per order.  It serves W's derivative-growth certificate.

Alongside them: the conjugate function, Fejer means, Horner evaluation
inside the disk, FFT convolution (its transform length is
:func:`_fast_length`, the least 11-smooth length that avoids wrap-around)
and correlation (in blocks of _fast_length(lags) entries, so its memory
follows the lags), the grid angles t_m and points zeta_m (the roots of unity
exp(2 pi i k/n), which the synthesis and power tables take too), the grid
mask of a set, and the closed-disk domain check of the pole-sum
evaluators.  The package's grids have 2**log2_size points.
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

# Node x offset entries per block of herglotz_at_nodes' direct near sums, so
# a block's window and product stay in a core's cache on every grid.
_NEAR_BLOCK = 1 << 15


def grid_angles(log2_size: int) -> np.ndarray:
    """t_m = 2 pi m / n, formed in one array (the values of TWO_PI * arange / n)."""
    n = 1 << log2_size
    t = np.arange(n, dtype=float)
    t *= TWO_PI
    t /= n
    return t


def grid_points(log2_size: int) -> np.ndarray:
    """zeta_m = exp(i t_m), formed in one array: the bits of exp(1j * t)
    for t = grid_angles(log2_size)."""
    n = 1 << log2_size
    return _unit_roots(np.arange(n), n)


def _unit_roots(k: np.ndarray, n: int) -> np.ndarray:
    """exp(2 pi i k/n) for integers 0 <= k < n, formed in one array: exp of
    complex(+0, t_k) with t_k = TWO_PI * k / n as :func:`grid_angles` forms
    it, so entry k has the bits of grid_points(log2 n)[k]."""
    z = np.zeros(len(k), dtype=complex)
    t = z.imag
    t[...] = k
    t *= TWO_PI
    t /= n
    return np.exp(z, out=z)


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


def _spectrum(values: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Grid Fourier coefficients fft(values) / len(values), read-only; the
    transform applies the 1/n itself.

    With a boolean ``mask``, the spectrum of the product values * mask of
    complex values.  That product is built only to be transformed, so the
    transform writes into its buffer (``out=``, which numpy.fft takes from
    numpy 2.0 on) instead of a second grid array; the bits are those of the
    out-of-place transform.
    """
    if mask is None:
        c = np.fft.fft(values, norm="forward")
        c.flags.writeable = False
        return c
    return _spectrum_in_place(values * mask)


def _spectrum_in_place(buffer: np.ndarray) -> np.ndarray:
    """fft(buffer) / len(buffer) of a complex grid array, written into
    ``buffer`` itself, which is returned read-only: for an array that its
    owner gives up to be transformed.  The bits are those of the
    out-of-place transform."""
    np.fft.fft(buffer, norm="forward", out=buffer)
    buffer.flags.writeable = False
    return buffer


def analytic_coefficients(
    samples: np.ndarray, band: int | None = None, mask: np.ndarray | None = None
) -> AnalyticSeries:
    """Analytic (Riesz) projection of grid samples, times ``mask`` if given
    (transformed in place, as in :func:`_spectrum`): spectrum indices 0..band."""
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if band is None:
        band = n // 2 - 1
    if band >= n // 2:
        raise BandTooLarge(f"band {band} >= Nyquist {n // 2}")
    return AnalyticSeries(_spectrum(samples, mask)[: band + 1])


def _fast_length(n: int) -> int:
    """The least m >= n of the form 2^a 3^b 5^c 7^d 11^e, an FFT length on
    which pocketfft runs at full speed; never above the next power of two.

    Each odd part q = 3^b 5^c 7^d 11^e up to that power of two is listed
    once and doubled the least number of times that reaches n.
    """
    cap = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5, 7, 11):
        more = []
        for q in odd:
            while q <= cap:
                more.append(q)
                q *= p
        odd = more
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two coefficient vectors, by FFT.

    The transform length is :func:`_fast_length` of len(a) + len(b), so no
    product wraps around; entries from len(a) + len(b) - 1 on are rounding
    noise around zero.
    """
    n = _fast_length(len(a) + len(b))
    return np.fft.ifft(np.fft.fft(a, n) * np.fft.fft(b, n))


def _fft_correlate(a: np.ndarray, b: np.ndarray, lags: int) -> np.ndarray:
    """Cross-correlation sum_m conj(a_m) b_{m+l} for l = 0..lags-1, by FFT.

    Terms with m + l >= len(b) are absent.  Sectioned (overlap-save)
    correlation: a is cut into blocks of B = :func:`_fast_length` (lags)
    entries, and block j is correlated with b's window b[jB : jB + 2B] by
    transforms of P = 2B points, so no kept lag wraps around.  With Y_j the
    zero-padded transform of b's block j, the window's spectrum is
    Y_j + (-1)^w Y_{j+1}, so each block of b is transformed once, and a block
    of a that equals b's block (the autocorrelation of a prefix of b) reuses
    Y_j.  The products are summed in the spectrum and transformed back once.
    b is read up to index len(a) + lags - 2, the last that a kept lag
    reaches.  A short a is the loop's one-block case.

    The loop holds two block spectra and one accumulator, so the memory
    follows the lags, not len(a) or len(b), and the work is about
    len(a) log(lags).  Two real inputs give the real correlation, from real
    FFTs (rfft, irfft).
    """
    B = _fast_length(lags)
    P = 2 * B
    if np.isrealobj(a) and np.isrealobj(b):
        fwd, inv = np.fft.rfft, np.fft.irfft
    else:
        fwd, inv = np.fft.fft, np.fft.ifft
    b = b[: len(a) + lags - 1]
    y_next = fwd(b[:B], P)
    acc = np.zeros_like(y_next)
    for lo in range(0, len(a), B):
        hi = lo + B
        y, y_next = y_next, fwd(b[hi : hi + B], P)
        x = y if np.array_equal(a[lo:hi], b[lo:hi]) else fwd(a[lo:hi], P)
        window = y_next.copy()
        window[1::2] *= -1
        window += y
        window *= np.conj(x)
        acc += window
    return inv(acc, P)[:lags]


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


def herglotz_at_nodes(u: np.ndarray, nodes: np.ndarray, m_max: int) -> list[np.ndarray]:
    """[H, H', ..., H^(m_max)] at the grid nodes zeta_k, k in ``nodes``, of
    the discrete Herglotz integral H(z) = (1/n) sum_m u_m (zeta_m + z)/(zeta_m - z)
    of real grid values u.  Every node needs u_k = 0 (H has a pole where
    u_k != 0); :class:`OutsideDomain` is raised otherwise.

    With w = exp(2 pi i/n) and zeta_m = zeta_k w^d, the pole sum is a
    circular correlation of u with a fixed cot-type kernel:

        H^(j)(zeta_k) = (2 j!/n) zeta_k^(-j) sum_{d != 0} u_{k+d} K_j(d),
        K_j(d) = w^d / (w^d - 1)^(j+1),

    minus mean(u) at j = 0.  There K_0(d) = 1/2 - (i/2) cot(pi d/n), whose
    1/2 sums to exactly that mean since u_k = 0, so the j = 0 kernel is the
    discrete conjugate function's -(i/2) cot(pi d/n) and no mean is taken;
    K_j = K_{j-1} / (w^d - 1) with 1/(w^d - 1) = -1/2 - (i/2) cot(pi d/n).
    No node enters a difference zeta_m - z, so the kernel is exact to
    rounding even next to the poles.

    The offsets |d| < n/64 are summed directly at each node.  The rest is one
    FFT pair per order (the kernel's spectrum is real, as K_j(-d) =
    conj K_j(d)); its kernel entries stay below (2 sin(pi/64))^-(j+1), about
    10^(j+1), on every grid, so the transform's rounding stays small next to
    the near terms.
    """
    u = np.asarray(u, dtype=float)
    nodes = np.asarray(nodes, dtype=np.intp)
    n = len(u)
    if np.any(u[nodes] != 0.0):
        raise OutsideDomain("H has a pole at a grid node where u is nonzero")
    reach = max(1, n // 64)  # a fixed rule: see the far kernel bound above
    offsets = np.arange(1 - reach, reach)
    # signed offsets -n/2 <= d < n/2 keep pi d/n where tan is accurate
    d = (np.arange(1, n) + n // 2) % n - n // 2
    kernel = np.zeros(n, dtype=complex)
    kernel[1:] = -0.5j / np.tan(np.pi * d / n)
    ratio = kernel - 0.5
    ratio[0] = 0.0
    spectrum = np.fft.fft(u)
    near, sums = [], []
    for j in range(m_max + 1):
        if j:  # K_1 = K_0 ratio takes K_0 with its 1/2
            kernel = (kernel + 0.5 if j == 1 else kernel) * ratio
        near.append(kernel[offsets])
        far = kernel[: n // 2 + 1].copy()
        far[:reach] = 0.0
        sums.append(np.fft.ifft(spectrum * np.fft.irfft(far, n, norm="forward"))[nodes])
    rows = max(1, _NEAR_BLOCK // len(offsets))
    for i in range(0, len(nodes), rows):
        window = u[(nodes[i : i + rows, None] + offsets) % n]
        for s, k in zip(sums, near):
            s[i : i + rows] += np.sum(window * k, axis=1)
    turn = np.exp(-1j * TWO_PI * nodes / n)  # 1 / zeta_k
    return [(2.0 * math.factorial(j) / n) * turn**j * s for j, s in enumerate(sums)]


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


def _closed_disk(z, name: str) -> np.ndarray:
    """z as a complex array; raises :class:`OutsideDomain` unless every point
    has |z| <= 1 + 1e-12 (the closed disk, with slack for rounded points on
    the circle)."""
    z = np.asarray(z, dtype=complex)
    # written so that a NaN point fails it too
    if not np.all(np.abs(z) <= 1.0 + 1e-12):
        raise OutsideDomain(f"{name} needs |z| <= 1 + 1e-12")
    return z


def evaluate_in_disk(series: AnalyticSeries, z) -> complex | np.ndarray:
    """Horner evaluation of the finite series at |z| <= 1 - 1e-6."""
    z = np.asarray(z, dtype=complex)
    # written so that a NaN point fails it too
    if not np.all(np.abs(z) <= 1.0 - 1e-6):
        raise OutsideDomain("evaluate_in_disk needs |z| <= 1 - 1e-6")
    # acc * z + c in two buffers, allocating nothing per term.  (An in-place
    # acc *= z is not these bits: on a single point numpy's complex multiply
    # then takes z * acc, which rounds differently.)
    acc, prod = np.zeros_like(z), np.empty_like(z)
    for c in series.coeffs[::-1]:
        np.multiply(acc, z, out=prod)
        np.add(prod, c, out=acc)
    return acc if acc.shape else complex(acc)


def _cauchy_sum(c: np.ndarray, z, shift: int = 0):
    """Trapezoid Cauchy sum at interior points of the grid values v, taken
    from their spectrum c = fft(v)/n (no FFT here):

        (1/n) sum_m v_m / (1 - z conj(zeta_m)) = (1 - z^n)^{-1} sum_{r<n} c_r z^r,

    with zeta_m = exp(2 pi i m/n), n = len(c): expand the kernel as a
    geometric series in z conj(zeta_m) and fold the powers modulo n.  The
    polynomial is truncated at R = min(n, R_eps) terms, R_eps the least R
    with |z|^R / (1 - |z|) <= eps/4 at the largest |z|, so the dropped tail
    stays below eps/4 * max|c| (378 terms at |z| = 0.9, 789 at 0.95).
    With R = n the sum is exact.

    With ``shift`` k the values are conj(zeta_m)^k v_m, whose spectrum is
    c_{(r + k) mod n} (the DFT shift theorem): the R terms are read from
    index k on, and gathered round to c_0 only when k + R > n.
    """
    n = len(c)
    z = np.asarray(z, dtype=complex)
    radii = np.abs(z)
    if not np.all(radii <= 1.0 - 1e-6):  # NaN points fail it too
        raise OutsideDomain("the Cauchy sum needs |z| <= 1 - 1e-6")
    r_max = float(np.max(radii, initial=0.0))
    terms = 1
    if r_max > 0.0:
        eps = np.finfo(float).eps
        terms = min(n, math.ceil(math.log(eps / 4 * (1.0 - r_max)) / math.log(r_max)))
    head = c[shift : shift + terms]
    if len(head) < terms:
        head = np.concatenate((head, c[: terms - len(head)]))
    return evaluate_in_disk(AnalyticSeries(head), z) / (1.0 - z**n)


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
    """Boundary samples sum_j f_j zeta_m^j of an analytic polynomial
    (indices 0..degree), in a new array.

    A monomial f_k z^k, such as a member's zeta z^k, is formed from two
    tables of roots of unity in one pass over the grid, where the inverse
    FFT takes about log2 n.  With q = 2^floor(log2_size / 2) and the grid
    index m = a q + b, zeta_m^k = w^(k q a) w^(k b), w = exp(2 pi i/n): a
    table of n/q row roots w^(k q a), times f_k, and one of q column roots
    w^(k b), their exponents reduced modulo n in integers
    (:func:`_unit_roots`), and their outer product written straight into
    the output.  Each sample is within a few units of rounding of the exact
    value, as the inverse FFT's are.  Every other series takes the inverse
    FFT (the bits of ifft(c) * n).
    """
    n = 1 << log2_size
    if series.degree >= n // 2:
        raise BandTooLarge("series degree above Nyquist")
    terms = np.flatnonzero(series.coeffs)
    if len(terms) != 1:
        c = np.zeros(n, dtype=complex)
        c[: len(series.coeffs)] = series.coeffs
        return np.fft.ifft(c, norm="forward")
    k = terms[0]
    q = 1 << (log2_size // 2)
    rows = _unit_roots(k * np.arange(0, n, q) % n, n)
    rows *= series.coeffs[k]
    cols = _unit_roots(k * np.arange(q) % n, n)
    out = np.empty(n, dtype=complex)
    np.multiply(rows[:, None], cols, out=out.reshape(n // q, q))
    return out


def pole_sum_on_grid(poles: np.ndarray, weights: np.ndarray, log2_size: int) -> np.ndarray:
    """F(zeta_m) = sum_j w_j / (p_j - zeta_m) at every grid point, for poles
    outside the closed disk, in a new array, from F's exact aliased spectrum.

    With rho_j = 1/p_j, each term's Taylor series folds modulo n onto the
    grid, so exactly

        F(zeta_m) = sum_{r<n} c_r zeta_m^r,   c_r = sum_j a_j rho_j^r,
        a_j = (w_j / p_j) / (1 - rho_j^n).

    With q = 2^floor(log2_size / 2) and r = q a + b, as in
    :func:`synthesize_analytic`, c is the product of an (n/q x J) row table
    a_j rho_j^(q a) and a (J x q) column table rho_j^b, and F is its inverse
    FFT, both written into the output.

    A power rho^x is |p|^-x w^(-(x k0 mod n)) e^(-i x dbeta), w = exp(2 pi
    i/n), with k0 the grid index nearest arg p and dbeta = arg p - 2 pi k0/n:
    the integer exponent is reduced exactly (:func:`_unit_roots`) and
    |x dbeta| <= pi, so no power carries the rounding of x arg p (1e-9 rad
    at x = 2^21, which moved g = exp(F) by 1e-8 of its maximum).  The
    product is one real matmul of the interleaved real and imaginary parts
    into the output's float view.  (Not a complex one: with OpenBLAS 0.3.31
    on a 2-core KVM machine, numpy's complex exp of 2^21 points ran 10 to 15
    times slower after a zgemm, and not after a dgemm.)  A dgemm sums each entry
    in an order that does not follow its thread count, so neither do the
    bits.  The samples take the exact nodes: within a few units of rounding
    of max |F| of the exact sum, where a direct sum at rounded nodes is off
    by about 1e-16 |F'|.
    """
    n = 1 << log2_size
    q = 1 << (log2_size // 2)
    poles = np.asarray(poles, dtype=complex)
    beta = np.angle(poles)
    k0 = np.rint(beta * (n / TWO_PI)).astype(np.int64)
    log_p = np.log(np.abs(poles)) + 1j * (beta - TWO_PI * k0 / n)

    def powers(x):  # rho_j^x in row x, column j
        spin = _unit_roots((-np.outer(x, k0) % n).reshape(-1), n).reshape(len(x), -1)
        spin *= np.exp(np.outer(-x, log_p))
        return spin

    rows = powers(q * np.arange(n // q))
    rows *= np.asarray(weights) / poles / -np.expm1(-n * log_p)
    cols = np.ascontiguousarray(powers(np.arange(q)).T)
    # row 2j holds rho_j^b, row 2j + 1 i rho_j^b, as (real, imag) pairs
    right = np.stack([cols, 1j * cols], axis=1).view(float).reshape(2 * len(poles), 2 * q)
    out = np.empty(n, dtype=complex)
    np.matmul(rows.view(float), right, out=out.view(float).reshape(n // q, 2 * q))
    return np.fft.ifft(out, norm="forward", out=out)
