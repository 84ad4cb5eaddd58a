"""The analytic cut-off function attached to a Beurling-Carleson set.

Given the Whitney system {B_j} of the complement, with midpoints b_j, radii
r_j = 1 + |B_j| and multipliers lambda_j, the function

    h(z) = - sum_j lambda_j b_j |B_j| log(1/|B_j|) / (r_j b_j - z)

has strictly negative real part on the closed disk (every pole r_j b_j lies
just outside the circle), so g = exp(h) maps the disk to itself.  The
boundary function G(t) = g(e^{it}) is smooth off the set and decays faster
than every power of the distance to the set; :func:`certify_decay` checks a
finite proxy of that decay (monotone dyadic ratios).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._expderiv import _dyadic_level_points, pole_sum
from .boundary_calculus import _closed_disk, _unit_roots, pole_sum_on_grid
from .circle_sets import (
    ANGLE_SLACK,
    TWO_PI,
    BeurlingCarlesonSet,
    WhitneyArc,
    _lambda_rule,
    _rank_length,
    _whitney_mass,
    whitney_decompose,
)
from .errors import ResolutionError

# Ranks appended beyond k_max when computing tail data; the per-rank mass
# decays geometrically so 60 extra ranks exhaust double precision.
_EXTENSION_RANKS = 60
# Radius of the disk on which the truncation tail is certified.
TAIL_RADIUS = 0.99


@dataclass(frozen=True)
class CutoffFunction:
    """Truncated cut-off function together with its truncation certificate.

    ``tail_bound`` dominates the modulus change of h caused by all omitted
    Whitney ranks, uniformly on ``|z| <= TAIL_RADIUS``.  (No finite bound
    exists on the closed disk itself: near the set the omitted terms pile
    up, which is exactly how g vanishes there.)
    """

    whitney: tuple[WhitneyArc, ...]
    poles: np.ndarray        # r_j * b_j
    weights: np.ndarray      # lambda_j * b_j * |B_j| * log(1/|B_j|)
    boundary_angles: tuple[float, ...]
    tail_bound: float


def build_cutoff(E: BeurlingCarlesonSet, k_max: int = 16) -> CutoffFunction:
    """Construct the truncated cut-off data for the set E.

    The multipliers use the tail-sum rule computed over the Whitney system
    extended well beyond ``k_max``, so enlarging ``k_max`` only appends terms
    and never changes the lambda of an arc already present.  The certified
    ``tail_bound`` is the mass of the omitted ranks divided by the distance
    from their poles to the disk of radius ``TAIL_RADIUS``.  Raises
    :class:`ResolutionError` when a pole radius ``1 + |B|`` rounds to 1,
    since Re h < 0 on the closed disk needs every pole outside it.
    """
    base = whitney_decompose(E, k_max)
    for w in base:
        if not w.radius > 1.0:
            raise ResolutionError(
                f"gap {w.parent}: the rank {w.rank} Whitney pole rounds onto the unit circle"
            )
    lengths = [w.length for w in base]
    # Hypothetical continuation beyond k_max: only lengths are needed for the
    # lambda rule and the tail mass, so no arc geometry is constructed.  The
    # kept lengths exceed 2^-53, so no extension rank underflows to 0.
    ext_lengths = []
    for gap in E.gaps:
        for k in range(k_max + 1, k_max + _EXTENSION_RANKS + 1):
            ext_lengths.extend([_rank_length(gap.length, k)] * 2)
    all_lengths = np.array(lengths + ext_lengths)
    c = _whitney_mass(all_lengths)
    lam = _lambda_rule(c)

    kept = [replace(w, lam=float(l)) for w, l in zip(base, lam[: len(base)])]
    poles = np.array([w.pole for w in kept])
    weights = np.array([w.lam * w.midpoint * cw for w, cw in zip(kept, c[: len(base)])])

    lam_ext, c_ext = lam[len(base) :], c[len(base) :]
    radius_gap = all_lengths[len(base) :] + (1.0 - TAIL_RADIUS)
    tail = float(np.sum(lam_ext * c_ext / radius_gap))

    return CutoffFunction(
        whitney=tuple(kept),
        poles=poles,
        weights=weights,
        boundary_angles=E.boundary_angles,
        tail_bound=tail,
    )


def eval_h(c: CutoffFunction, z) -> complex | np.ndarray:
    """The pole series h at points of the closed disk |z| <= 1 + 1e-12
    (vectorized); a point outside it, NaN included, raises
    :class:`OutsideDomain`."""
    out = pole_sum(c.poles, -c.weights, _closed_disk(z, "h"))[0]
    return out if out.shape else complex(out)


def eval_g(c: CutoffFunction, z) -> complex | np.ndarray:
    """g = exp(h) on the domain of :func:`eval_h`; at points on the circle
    (| |z| - 1 | < 1e-12) within ANGLE_SLACK in angle of a gap endpoint
    e^{ib} (where the full series diverges to -infinity) the continuous
    extension 0 is returned.

    The chord |z - e^{ib}| carries a rounding error of about 1e-16, 1 % of
    ANGLE_SLACK, so it only preselects the points within 1e-11 of the
    endpoint; the angle decides among those few.
    """
    z = np.asarray(z, dtype=complex)
    vals = _g_from_h(c, z, eval_h(c, z))
    return vals if vals.shape else complex(vals)


def _g_from_h(c: CutoffFunction, z: np.ndarray, h) -> np.ndarray:
    """exp(h) at the points z, h being :func:`eval_h` there, with
    :func:`eval_g`'s endpoint zeros."""
    vals = np.asarray(np.exp(h))
    flat_z, flat_vals = z.reshape(-1), vals.reshape(-1)  # views of z and vals
    for b in c.boundary_angles:
        near = np.flatnonzero(np.abs(flat_z - np.exp(1j * b)) <= 1e-11)
        _zero_endpoint_hits(flat_z[near], flat_vals, near, b)
    return vals


def closure_extrema(c: CutoffFunction, interior, boundary) -> tuple[float, float]:
    """For the claims Re h < 0 and |g| <= 1: max Re h over the interior points
    (at least one), and max |g| over them and the boundary points (maybe none).
    h is summed once on the interior points and serves both claims."""
    interior = np.asarray(interior, dtype=complex)
    h = eval_h(c, interior)
    re_h = float(np.max(np.real(h)))
    g_max = max(
        float(np.max(np.abs(g), initial=0.0))
        for g in (_g_from_h(c, interior, h), eval_g(c, boundary))
    )
    return re_h, g_max


def boundary_samples(c: CutoffFunction, log2_size: int) -> np.ndarray:
    """g sampled on the uniform grid e^{i t_m}: the exp, in place, of h's
    grid samples from its exact aliased spectrum
    (:func:`bcct.boundary_calculus.pole_sum_on_grid`), with :func:`eval_g`'s
    endpoint zeros.  The values are g's at the exact nodes, within 1e-11 of
    max |g|; on criterion 3's grid they are as close to :func:`eval_g`,
    whose nodes are rounded.

    The grid cell is far wider than ANGLE_SLACK, so only the grid points next
    to b n / 2pi can lie within it of an endpoint b; only those three points
    are formed.
    """
    n = 1 << log2_size
    vals = pole_sum_on_grid(c.poles, -c.weights, log2_size)
    np.exp(vals, out=vals)
    for b in c.boundary_angles:
        m = round(b * n / TWO_PI)
        idx = np.arange(m - 1, m + 2) % n
        _zero_endpoint_hits(_unit_roots(idx, n), vals, idx, b)
    return vals


def _zero_endpoint_hits(z: np.ndarray, vals: np.ndarray, idx: np.ndarray, b: float) -> None:
    """Set vals[idx] to 0 where the point z (of the same length as idx) is
    on the circle within ANGLE_SLACK in angle of e^{ib}."""
    d = np.mod(np.angle(z) - b, TWO_PI)
    on_circle = np.abs(np.abs(z) - 1.0) < 1e-12
    vals[idx[on_circle & (np.minimum(d, TWO_PI - d) <= ANGLE_SLACK)]] = 0.0


def _g_and_h_derivs(c: CutoffFunction, z: np.ndarray, m_max: int):
    """g(z) and [h'(z), ..., h^(m_max)(z)] from one pole sum."""
    h = pole_sum(c.poles, -c.weights, z, m_max)
    return np.exp(h[0]), h[1:]


@dataclass(frozen=True)
class DecayReport:
    """Dyadic decay ratios rho(d) = max |G^(m)| / dist^N per level."""

    levels: tuple[float, ...]
    entries: dict
    grid_log2: int
    points_per_level: tuple[int, ...]

    def monotone(self, N: int, m: int) -> bool:
        return bool(self.entries[(N, m)]["monotone"])

    def rho(self, N: int, m: int) -> tuple[float, ...]:
        return tuple(self.entries[(N, m)]["rho"])

    def all_monotone(self) -> bool:
        return all(v["monotone"] for v in self.entries.values())

    def to_json(self) -> dict:
        return {
            "grid_log2": self.grid_log2,
            "levels": list(self.levels),
            "points_per_level": list(self.points_per_level),
            "checks": [
                {
                    "N": N,
                    "m": m,
                    "rho": [float(r) for r in v["rho"]],
                    "monotone": bool(v["monotone"]),
                }
                for (N, m), v in sorted(self.entries.items())
            ],
        }


def certify_decay(
    c: CutoffFunction,
    E: BeurlingCarlesonSet,
    orders_N,
    orders_m,
    grid_log2: int = 16,
) -> DecayReport:
    """Evaluate the dyadic decay ratios of G and its t-derivatives.

    Level l collects the grid points at distance in [2^-l, 2^(1-l)) from the
    set; rho is the maximum of |G^(m)| / dist^N over the level.  The deepest
    level is grid_log2 - 3 so each level window is at least 8 cells wide,
    and the certificate is the monotone decrease of rho over the 6 deepest
    levels.  Derivatives come from the closed-form pole sums, so the values
    are exact up to rounding even where g is extremely small.
    """
    orders_N = sorted(set(int(N) for N in orders_N))
    orders_m = sorted(set(int(m) for m in orders_m))
    if min(orders_N, default=0) < 0 or min(orders_m, default=0) < 0:
        raise ValueError("orders must be nonnegative")
    windows = _dyadic_level_points(
        E, grid_log2, 6, lambda z, nodes, m: _g_and_h_derivs(c, z, m), max(orders_m)
    )

    entries = {}
    for N in orders_N:
        for m in orders_m:
            rho = []
            for _, dsel, mags in windows:
                rho.append(float(np.max(mags[m] / dsel**N)))
            mono = all(rho[i + 1] <= rho[i] * (1.0 + 1e-12) for i in range(len(rho) - 1))
            entries[(N, m)] = {"rho": rho, "monotone": mono}

    return DecayReport(
        levels=tuple(w[0] for w in windows),
        entries=entries,
        grid_log2=grid_log2,
        points_per_level=tuple(len(w[1]) for w in windows),
    )
