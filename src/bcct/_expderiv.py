"""Pole sums and closed-form t-derivatives of factors c(z)*exp(L(z)).

All smooth factors in this package (the cut-off g, outer functions, singular
inner functions, Blaschke products) are exponentials of functions whose z
derivatives are pole sums F(z) = sum_j w_j / (p_j - z), evaluated by
:func:`pole_sum` (outer functions at grid nodes by
:func:`bcct.boundary_calculus.herglotz_at_nodes` instead).  With z = e^{it}
and psi(t) = L(e^{it}),

    psi^(n)(t) = i^n * sum_k S(n,k) z^k L^(k)(z)

(S = Stirling numbers of the second kind, from (z d/dz)^n), and the t
derivatives of exp(psi) follow from the complete Bell recurrence

    B_0 = 1,   B_{n+1} = sum_k C(n,k) psi^(k+1) B_{n-k},
    (d/dt)^m exp(psi) = B_m * exp(psi).

:func:`_dyadic_level_points` evaluates them on the dyadic distance windows
off a set, where the derivative-growth and decay certificates are fitted.

Every pass runs on the calling thread; the package starts no thread.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .boundary_calculus import _unit_roots
from .circle_sets import TWO_PI, BeurlingCarlesonSet, distances_to_set
from .errors import ResolutionError

# Point x pole entries per block of a pole sum.  2^15 complex entries are
# 512 kB, so a block's difference, power and quotient buffers stay in a core's
# cache between the passes over them.  Blocks of millions of entries go out to
# memory on every pass, and their 32 MB temporaries set the peak RSS of runs
# on small grids.
_BLOCK_ENTRIES = 1 << 15


def pole_sum(poles: np.ndarray, weights: np.ndarray, z, m_max: int = 0) -> list[np.ndarray]:
    """[F, F', ..., F^(m_max)] at z for F(z) = sum_j w_j / (p_j - z).

    F^(k)(z) = k! sum_j w_j / (p_j - z)^(k+1); each row is reduced with
    ``np.sum`` straight into the output, in blocks of at most
    ``_BLOCK_ENTRIES`` point x pole entries that reuse one difference, power
    and quotient buffer.  The results have the shape of ``z``.
    """
    z = np.asarray(z, dtype=complex)
    points = z.reshape(-1)
    out = [np.empty(z.size, dtype=complex) for _ in range(m_max + 1)]
    step = max(1, _BLOCK_ENTRIES // max(1, len(poles)))
    diff_buf, power_buf, quot_buf = (
        np.empty((min(step, len(points)), len(poles)), dtype=complex) for _ in range(3)
    )
    for i in range(0, len(points), step):
        n = min(step, len(points) - i)
        diff, power, quot = diff_buf[:n], power_buf[:n], quot_buf[:n]
        np.subtract(poles, points[i : i + n, None], out=diff)
        fact = 1.0
        for k in range(m_max + 1):
            if k:
                fact *= k
                np.multiply(power if k > 1 else diff, diff, out=power)
            np.divide(weights, power if k else diff, out=quot)
            sums = np.sum(quot, axis=1, out=out[k][i : i + n])
            if k > 1:
                sums *= fact  # k!; the factor is 1 below k = 2
    return [o.reshape(z.shape) for o in out]


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
    least 8 cells wide.  ``factor(z, nodes, m_max)`` gets the points of every
    window at once, with their grid indices ``nodes`` (z = exp(i t_k) for k in
    nodes), and returns ``exp(L(z))`` and ``[L'(z), ..., L^(m_max)(z)]``; each
    level yields ``(2^-l, distances, [|G|, |G'|, ..., |G^(m_max)|])`` for
    G(t) = exp(L(e^{it})).

    A grid angle at distance below 2^(1-l_min) from E lies in a gap, that
    close to one of the gap's endpoints; the distance is a fraction of the
    circle, so the angle is fewer than n 2^(1-l_min) cells from that endpoint.
    Distances are therefore computed only at the candidate nodes within
    n 2^(1-l_min) + 2 cells of a boundary angle (the 2 covers the endpoint's
    rounding to a cell), taken modulo n, deduplicated and sorted: a few
    thousand nodes at 2^20 instead of the whole grid.  Each candidate's angle
    and distance are formed as on the whole grid (:func:`grid_angles`,
    :func:`distances_to_set`), and its point is the grid point's
    (:func:`_unit_roots`), so the windows, their distances and the
    magnitudes are those of the whole-grid selection bit for bit.
    """
    l_max = grid_log2 - 3
    l_min = l_max - levels + 1
    if l_min < 1:
        raise ResolutionError("grid too coarse for the requested number of levels")
    n = 1 << grid_log2
    reach = (n >> (l_min - 1)) + 2
    offsets = np.arange(-reach, reach + 1)
    candidates = np.unique(
        np.concatenate([(round(b * n / TWO_PI) + offsets) % n for b in E.boundary_angles])
    )
    t = candidates * TWO_PI
    t /= n
    dist = distances_to_set(t, E)
    windows = []
    for l in range(l_min, l_max + 1):
        d = 2.0 ** (-l)
        keep = np.flatnonzero((dist >= d) & (dist < 2.0 * d))
        if len(keep) < 8:
            raise ResolutionError(f"level 2^-{l}: fewer than 8 grid points at that distance")
        windows.append((d, keep))
    keep = np.concatenate([k for _, k in windows])
    nodes = candidates[keep]
    z = _unit_roots(nodes, n)
    value, z_derivs = factor(z, nodes, m_max)
    mags = [np.abs(g) for g in exp_t_derivatives(z, value, z_derivs, m_max)]
    cuts = np.cumsum([len(k) for _, k in windows])[:-1]
    per_window = zip(*(np.split(m, cuts) for m in mags))
    return [(d, dist[k], list(ms)) for (d, k), ms in zip(windows, per_window)]
