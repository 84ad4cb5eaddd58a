"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is pinned here.  Criterion 2's dyadic-ratio sweep is
asserted exactly as stated; the shallow levels reachable on a 2^16 grid are
not yet in the asymptotic regime of the default multiplier rule for the
higher orders, so that sub-check fails (see the companion deep-grid test
that certifies the full sweep at 2^20, and the criterion-2 paragraph of
README.md, "One acceptance check is expected to fail", for the analysis).
"""

import math
import time

import numpy as np

from bcct.boundary_calculus import AnalyticSeries, fejer_means, sup_norm_bound
from bcct.circle_sets import TWO_PI, Arc, validate_set, whitney_exactness
from bcct.cutoff import build_cutoff, certify_decay, closure_extrema
from bcct.dbr import divisor_psd, permanence_report
from bcct.factors import InnerFunction, SingularMeasure
from bcct.fixtures import (
    Scale,
    dbr_divisor_pair,
    disk_points,
    endpoint_atom,
    interior_gap_atom,
    monomial,
    standard_member,
    two_gap,
)
from bcct.spaces import (
    annihilator_residuals,
    moments_beta,
    moments_beta_quadrature,
    rapid_weight,
    toeplitz_truncation,
    weighted_operator_norm,
)
from bcct.transforms import (
    backshift_identity,
    flip_check,
    model_space_orthogonality,
    smooth_transform,
    split_transform,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def random_disjoint_gaps(rng, count):
    cuts = np.sort(rng.uniform(0.0, 1.0, 2 * count))
    gaps = []
    for i in range(count):
        a, b = cuts[2 * i], cuts[2 * i + 1]
        if b - a > 1e-3:
            gaps.append(Arc(TWO_PI * a, TWO_PI * (b - 2e-4)))
    return gaps


def test_criterion_1_whitney_exactness():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst_len = 0.0
    worst_dist = 0.0
    configs = 0
    while configs < 100:
        gaps = random_disjoint_gaps(rng, int(rng.integers(1, 7)))
        if not gaps:
            continue
        configs += 1
        len_resid, dist_resid = whitney_exactness(validate_set(gaps), 8)
        worst_len = max(worst_len, len_resid)
        worst_dist = max(worst_dist, dist_resid)
    elapsed = time.monotonic() - start
    ok = worst_len <= 1e-12 and worst_dist <= 1e-12 and elapsed < 1.0
    verdict(1, ok, f"whitney exactness: len {worst_len:.2e}, dist {worst_dist:.2e}, "
                   f"{elapsed:.2f}s over 100 configs")
    assert worst_len <= 1e-12
    assert worst_dist <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_cutoff_validity():
    start = time.monotonic()
    E = two_gap()
    c = build_cutoff(E, k_max=16)
    # half of 10^4 points uniform in the open disk, the rest on the circle
    rng = np.random.default_rng(7)
    interior = disk_points(rng, 10**4)[: 10**4 // 2]
    boundary = np.exp(1j * rng.uniform(0.0, TWO_PI, 10**4 - len(interior)))
    re_h, g_closure = closure_extrema(c, interior, boundary)
    rep = certify_decay(c, E, orders_N=range(5), orders_m=range(3), grid_log2=16)
    elapsed = time.monotonic() - start

    bound_ok = re_h < 0.0 and g_closure <= 1.0 + 1e-12
    failures = [(N, m) for N in range(5) for m in range(3) if not rep.monotone(N, m)]
    ok = bound_ok and not failures and elapsed < 30.0
    verdict(2, ok, f"cutoff validity: max Re h {re_h:.2e}, max |g| {g_closure:.12f}, "
                   f"non-monotone pairs {failures}, {elapsed:.1f}s")
    for N in range(5):
        for m in range(3):
            print(f"    rho(N={N}, m={m}):",
                  " ".join(f"{r:.3e}" for r in rep.rho(N, m)),
                  "monotone" if rep.monotone(N, m) else "NOT monotone")
    assert re_h < 0.0
    assert g_closure <= 1.0 + 1e-12
    assert elapsed < 30.0
    assert not failures, (
        "dyadic decay ratios are not monotone over the last 6 levels of the "
        f"2^16 grid for {failures}; the tail-sum multipliers at these levels "
        "(lambda between 2.3 and 10.3) are below the size the higher orders "
        "need, for every two-gap geometry; see the criterion-2 paragraph of README.md"
    )


def test_criterion_2_supplement_deep_grid_certificate():
    # The same sweep on a 2^20 grid (levels 2^-12..2^-17) is fully monotone:
    # the asymptotic regime of the construction is real, it just starts
    # deeper than a 2^16 grid can certify.
    E = two_gap()
    c = build_cutoff(E, k_max=24)
    rep = certify_decay(c, E, orders_N=range(5), orders_m=range(3), grid_log2=20)
    failures = [(N, m) for N in range(5) for m in range(3) if not rep.monotone(N, m)]
    print(f"    deep-grid sweep non-monotone pairs: {failures}")
    assert not failures


def test_criterion_3_smooth_transform():
    start = time.monotonic()
    ingredients = Scale(two_gap(), 21, 16).ingredients
    slopes = {}
    flips = {}
    norms = {}
    mean_residual = 0.0
    for k in (0, 1, 3):
        # not Scale.member, which would keep all three 2^21 members alive
        member = ingredients.member(monomial(k), None)
        res = smooth_transform(member, fit_window=(64, 1024))
        slopes[k] = res.decay_fit
        norms[k] = res.series.norm_h2()
        flips[k] = flip_check(member)
        mean_residual = max(mean_residual, abs(np.mean(member.samples)))
    elapsed = time.monotonic() - start
    ok = (
        all(s <= -4.0 for s in slopes.values())
        and all(n > 0.0 for n in norms.values())
        and all(f <= 1e-6 for f in flips.values())
        and elapsed < 60.0
    )
    verdict(3, ok, "smooth transform: slopes "
            + ", ".join(f"p=z^{k}: {s:.2f}" for k, s in slopes.items())
            + f"; flip max {max(flips.values()):.2e}; mean {mean_residual:.2e}; "
            + f"{elapsed:.1f}s")
    for k in (0, 1, 3):
        assert slopes[k] <= -4.0, f"slope for p = z^{k} is {slopes[k]}"
        assert norms[k] > 0.0
        assert flips[k] <= 1e-6
    assert mean_residual <= 1e-8
    assert elapsed < 60.0


def test_criterion_4_backshift_identity():
    member = Scale(two_gap(), 14, 12).member(0)
    worst = max(backshift_identity(member, k) for k in range(1, 9))
    ok = worst <= 1e-10
    verdict(4, ok, f"backward-shift identity residual {worst:.2e} for k <= 8")
    assert worst <= 1e-10


def test_criterion_5_rapid_weight_oracle():
    coeffs = AnalyticSeries(2.0 ** -np.arange(64, dtype=float))
    seq = rapid_weight(coeffs, 4)
    # independent direct-tail-summation oracle
    mags = np.abs(coeffs.coeffs) ** 2
    oracle = []
    for N in range(1, 5):
        for K in range(len(mags) + 1):
            if sum((k**N) * mags[k] for k in range(K, len(mags))) < 2.0 ** (-N):
                oracle.append(K)
                break
    k_arr = np.arange(64, dtype=float)
    cap = k_arr**np.sqrt(k_arr)
    cap[0] = 1.0
    total = float(np.sum(seq.alpha * mags))
    budget = coeffs.norm_h2() ** 2 + 2.0
    ok = (
        list(seq.k_indices) == oracle
        and seq.increasing
        and total <= budget
        and bool(np.all(seq.alpha <= cap * (1 + 1e-12)))
    )
    verdict(5, ok, f"rapid weight: K(N) {list(seq.k_indices)} == oracle {oracle}, "
                   f"mass {total:.3f} <= {budget:.3f}, capped, nondecreasing")
    assert list(seq.k_indices) == oracle
    assert seq.increasing
    assert total <= budget
    assert np.all(seq.alpha <= cap * (1 + 1e-12))


def test_criterion_6_toeplitz_norm_bounds():
    rng = np.random.default_rng(42)
    seq = rapid_weight(AnalyticSeries(2.0 ** -np.arange(80, dtype=float)), 4)
    worst = -np.inf
    for _ in range(20):
        raw = AnalyticSeries(rng.normal(size=65) + 1j * rng.normal(size=65))
        h = fejer_means(raw, 64)
        sup = sup_norm_bound(h, 14)
        M = toeplitz_truncation(h, 64)
        co = weighted_operator_norm(M, seq.alpha)
        mu = weighted_operator_norm(M.T, 1.0 / seq.alpha)
        worst = max(worst, co - sup, mu - sup)
    ok = worst <= 1e-8
    verdict(6, ok, f"toeplitz/multiplier norms: worst excess over sup {worst:.2e} "
                   f"across 20 symbols, both modes")
    assert worst <= 1e-8


def test_criterion_7_annihilator():
    scale = Scale(two_gap(), 14, 12)
    worst, control = annihilator_residuals([scale.member(k) for k in (0, 1, 3)])
    ok = worst <= 1e-7 and control >= 1e-2
    verdict(7, ok, f"annihilator residual {worst:.2e} (k <= 32, p in {{1, z, z^3}}); "
                   f"negative control {control:.2f}")
    assert worst <= 1e-7
    assert control >= 1e-2


def test_criterion_8_moments():
    worst_form = 0.0
    worst_spread = 0.0
    k_win = np.arange(64, 1025)
    for C in (0.0, 1.0, 2.5):
        beta = moments_beta(C, 1024)
        # closed form against the quadrature and the recursion
        quad = moments_beta_quadrature(C, 64)
        worst_form = max(worst_form, float(np.max(np.abs(beta[:65] - quad))))
        k = np.arange(1024, dtype=float)
        rec = beta[:-1] * (k + 1.0) / (k + C + 2.0)
        worst_form = max(worst_form, float(np.max(np.abs(beta[1:] - rec))))
        vals = beta[64:] * k_win.astype(float) ** (C + 1)
        center = math.exp(float(np.mean(np.log(vals))))
        worst_spread = max(worst_spread, float(np.max(np.abs(vals / center - 1.0))))
    ok = worst_form <= 1e-12 and worst_spread <= 0.10
    verdict(8, ok, f"moments: closed-form residual {worst_form:.2e}, "
                   f"tail-ratio spread {worst_spread:.3f} <= 0.10 on [2^6, 2^10]")
    assert worst_form <= 1e-12
    assert worst_spread <= 0.10


def test_criterion_9_model_space_membership():
    start = time.monotonic()
    m1 = standard_member("K1", monomial(0), 16, k_max=12)
    r1 = model_space_orthogonality(m1, max_k=32, band=1 << 17)
    m2 = standard_member("K2", monomial(0), 18, k_max=12)
    r2 = model_space_orthogonality(m2, max_k=32, band=1 << 20)
    elapsed = time.monotonic() - start
    ok = r1 <= 1e-7 and r2 <= 1e-7
    verdict(9, ok, f"model-space membership: K1 {r1:.2e}, K2 {r2:.2e} "
                   f"(k <= 32, atomic inner factor, {elapsed:.0f}s)")
    assert r1 <= 1e-7
    assert r2 <= 1e-7


def test_criterion_10_kernel_psd():
    E = two_gap()
    min_eig, swapped = divisor_psd(
        *dbr_divisor_pair(E, SingularMeasure((endpoint_atom(E, 0.1, "K"),)), 14)
    )
    ok = min_eig >= -1e-10 and swapped
    verdict(10, ok, f"kernel difference PSD: min eigenvalue {min_eig:.2e} on the "
                    f"32-point lattice; swapped control {'fails' if swapped else 'PASSES'}")
    assert min_eig >= -1e-10
    assert swapped


def test_criterion_11_split_functional_stability():
    start = time.monotonic()
    E = two_gap()
    ingredients = Scale(E, 16, 12).ingredients
    on = InnerFunction((), SingularMeasure((endpoint_atom(E, 0.1, "K"),)))
    off = InnerFunction((), SingularMeasure((interior_gap_atom(E, 0.1, "K"),)))
    rep_on = permanence_report(on, ingredients, None, 1 << 18)

    # reuse the compliant weight sequence for the off-carrier run
    m_on = ingredients.member(monomial(0), on)
    alpha = rapid_weight(AnalyticSeries(split_transform(m_on).u1.coeffs[:4096]), 4)
    rep_off = permanence_report(off, ingredients, alpha, 1 << 16)
    elapsed = time.monotonic() - start
    ok = rep_on.stable_within(2.0) and rep_off.u1_stability > 2.0
    verdict(11, ok, "split functionals: on-carrier stability "
            f"u1 {rep_on.u1_stability:.2f}, u2 {rep_on.u2_stability:.2f} (<= 2); "
            f"off-carrier u1 drift {rep_off.u1_stability:.2f} (trend, no threshold); "
            f"{elapsed:.0f}s")
    print(f"    on-carrier  u1 constants: {[f'{c:.3e}' for c in rep_on.u1_constants]}")
    print(f"    off-carrier u1 constants: {[f'{c:.3e}' for c in rep_off.u1_constants]}")
    assert rep_on.stable_within(2.0)
    assert rep_off.u1_stability > 2.0  # degradation observed, reported only
