"""Pole sums and closed-form t-derivatives of factors c(z)*exp(L(z)).

All smooth factors in this package (the cut-off g, outer functions, singular
inner functions, Blaschke products) are exponentials of functions whose z
derivatives are pole sums F(z) = sum_j w_j / (p_j - z), evaluated by
:func:`pole_sum`.  With z = e^{it} and psi(t) = L(e^{it}),

    psi^(n)(t) = i^n * sum_k S(n,k) z^k L^(k)(z)

(S = Stirling numbers of the second kind, from (z d/dz)^n), and the t
derivatives of exp(psi) follow from the complete Bell recurrence

    B_0 = 1,   B_{n+1} = sum_k C(n,k) psi^(k+1) B_{n-k},
    (d/dt)^m exp(psi) = B_m * exp(psi).

:func:`_dyadic_level_points` evaluates them on the dyadic distance windows
off a set, where the derivative-growth and decay certificates are fitted.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache
from math import comb

import numpy as np

from .boundary_calculus import grid_angles
from .circle_sets import BeurlingCarlesonSet, distances_to_set
from .errors import ResolutionError

# Point x pole entries per block of a pole sum.  2^15 complex entries are
# 512 kB, so a block's difference, power and quotient buffers stay in a core's
# cache between the passes over them.  Blocks of millions of entries go out to
# memory on every pass, and their 32 MB temporaries set the peak RSS of runs
# on small grids.
_BLOCK_ENTRIES = 1 << 15
# A pole sum of at least this many point x pole entries (128 blocks) splits
# its rows between the calling thread and a second one when the process may
# run on two CPUs; numpy releases the GIL inside the block's ufuncs and sums.
# Splitting every sum of the default 2^14-grid run raised its CPU time and
# left its wall time unchanged.  The sums that split are g's grid samples at
# 2^18 points and more.
_SPLIT_ENTRIES = 1 << 22
# (os.sched_getaffinity is Linux's; elsewhere every CPU counts.)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pole_sum(poles: np.ndarray, weights: np.ndarray, z, m_max: int = 0) -> list[np.ndarray]:
    """[F, F', ..., F^(m_max)] at z for F(z) = sum_j w_j / (p_j - z).

    F^(k)(z) = k! sum_j w_j / (p_j - z)^(k+1); each row is reduced with
    ``np.sum``, in blocks of at most ``_BLOCK_ENTRIES`` point x pole entries
    (:func:`_pole_rows`).  A sum of at least ``_SPLIT_ENTRIES`` entries runs
    its rows from the block boundary nearest below the middle on a second
    thread; the blocks and every row's arithmetic stay the same, so the
    output is bit-identical to the serial loop.  The results have the shape
    of ``z``.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = [np.empty(flat.shape, dtype=complex) for _ in range(m_max + 1)]
    if _CPUS < 2 or len(flat) * len(poles) < _SPLIT_ENTRIES:
        _pole_rows(poles, weights, flat, out, m_max, _block_buffers(len(flat), len(poles)))
        return [o.reshape(z.shape) for o in out]
    step = _block_rows(len(poles))
    cut = len(flat) // 2 // step * step
    # The second thread allocates nothing, and once joined it holds no
    # reference, so every array is allocated and freed by this thread in the
    # same order on every run (heap placement, and so peak RSS, stays put).
    second_buffers = _block_buffers(len(flat) - cut, len(poles))
    failed = []

    def second_half():
        try:
            _pole_rows(poles, weights, flat[cut:], [o[cut:] for o in out], m_max, second_buffers)
        except BaseException as exc:  # re-raised in the calling thread
            failed.append(exc)

    worker = threading.Thread(target=second_half)
    worker.start()
    try:
        _pole_rows(poles, weights, flat[:cut], [o[:cut] for o in out], m_max,
                   _block_buffers(cut, len(poles)))
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return [o.reshape(z.shape) for o in out]


def _block_rows(n_poles: int) -> int:
    return max(1, _BLOCK_ENTRIES // max(1, n_poles))


def _block_buffers(rows: int, n_poles: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The difference, power and quotient buffers for blocks of ``rows`` points."""
    shape = (min(_block_rows(n_poles), rows), n_poles)
    return tuple(np.empty(shape, dtype=complex) for _ in range(3))


def _pole_rows(poles, weights, rows: np.ndarray, out: list[np.ndarray], m_max: int, buffers) -> None:
    """The blocked loop of :func:`pole_sum` over the points ``rows``, summing
    F^(k) straight into ``out[k]`` (arrays of ``len(rows)``).  The caller owns
    ``out`` and the block ``buffers`` (:func:`_block_buffers`), which every
    block reuses; the loop allocates nothing.
    """
    step = _block_rows(len(poles))
    diff_buf, power_buf, quot_buf = buffers
    for i in range(0, len(rows), step):
        n = min(step, len(rows) - i)
        diff, power, quot = diff_buf[:n], power_buf[:n], quot_buf[:n]
        np.subtract(poles, rows[i : i + n, None], out=diff)
        fact = 1.0
        for k in range(m_max + 1):
            if k:
                fact *= k
                np.multiply(power if k > 1 else diff, diff, out=power)
            np.divide(weights, power if k else diff, out=quot)
            sums = np.sum(quot, axis=1, out=out[k][i : i + n])
            if k > 1:
                sums *= fact  # k!; the factor is 1 below k = 2


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if k == n:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def t_derivs_from_z_derivs(z: np.ndarray, z_derivs: list[np.ndarray], m_max: int):
    """psi^(n)(t) for n = 1..m_max from L^(k)(z), k = 1..m_max."""
    out = []
    for n in range(1, m_max + 1):
        acc = np.zeros_like(z, dtype=complex)
        zp = np.ones_like(z, dtype=complex)
        for k in range(1, n + 1):
            zp = zp * z
            s = stirling2(n, k)
            if s:
                acc += s * zp * z_derivs[k - 1]
        out.append((1j ** n) * acc)
    return out


def bell_factors(psi_derivs: list[np.ndarray], m_max: int) -> list[np.ndarray]:
    """B_0..B_m_max of the complete Bell recurrence (per point)."""
    shape = psi_derivs[0].shape if psi_derivs else ()
    bell = [np.ones(shape, dtype=complex)]
    for n in range(m_max):
        acc = np.zeros(shape, dtype=complex)
        for k in range(n + 1):
            acc += comb(n, k) * psi_derivs[k] * bell[n - k]
        bell.append(acc)
    return bell


def exp_t_derivatives(z: np.ndarray, value: np.ndarray, z_derivs: list[np.ndarray], m_max: int):
    """[G, G', ..., G^(m_max)] of G(t) = value(e^{it}) with value = exp(L)."""
    if m_max == 0:
        return [value]
    psi = t_derivs_from_z_derivs(z, z_derivs, m_max)
    bell = bell_factors(psi, m_max)
    return [value * b for b in bell]


def _dyadic_level_points(E: BeurlingCarlesonSet, grid_log2: int, levels: int, factor, m_max: int):
    """Dyadic distance windows off E and the t-derivatives of a factor there.

    Level l holds the grid angles at distance in [2^-l, 2^(1-l)) from E, for
    the ``levels`` deepest levels l <= grid_log2 - 3, so each window is at
    least 8 cells wide.  ``factor(z, m_max)`` returns ``exp(L(z))`` and
    ``[L'(z), ..., L^(m_max)(z)]``; each level yields ``(2^-l, distances,
    [|G|, |G'|, ..., |G^(m_max)|])`` for G(t) = exp(L(e^{it})).
    """
    l_max = grid_log2 - 3
    l_min = l_max - levels + 1
    if l_min < 1:
        raise ResolutionError("grid too coarse for the requested number of levels")
    t = grid_angles(grid_log2)
    dist = distances_to_set(t, E)
    out = []
    for l in range(l_min, l_max + 1):
        d = 2.0 ** (-l)
        sel = (dist >= d) & (dist < 2.0 * d)
        if np.count_nonzero(sel) < 8:
            raise ResolutionError(f"level 2^-{l}: fewer than 8 grid points at that distance")
        z = np.exp(1j * t[sel])
        value, z_derivs = factor(z, m_max)
        gm = exp_t_derivatives(z, value, z_derivs, m_max)
        out.append((d, dist[sel], [np.abs(g) for g in gm]))
    return out
