"""Command-line orchestration of the verification suites.

Every suite emits one JSON verdict file with per-check entries
``{name, value, threshold, pass}`` plus plot-ready CSV data where useful.
Exit status: 0 when every executed certificate passes, 1 when one fails,
2 on configuration errors.  Verdict files are byte-deterministic for a
fixed config and seed (floats are canonicalized to 17 significant digits).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import fixtures
from .boundary_calculus import AnalyticSeries
from .circle_sets import (
    BeurlingCarlesonSet,
    _rank_length,
    _read_json,
    _whitney_mass,
    assign_lambdas,
    dist_arc_to_set,
    gaps_from_json,
    validate_set,
    whitney_decompose,
    whitney_residuals,
    whitney_to_csv,
)
from .cutoff import CutoffFunction, build_cutoff, certify_decay, eval_g, eval_h
from .dbr import kernel_difference_psd, permanence_report
from .errors import ConfigError, NotADivisor, ToolkitError
from .factors import (
    InnerFunction,
    OuterFunction,
    SingularMeasure,
    certify_W_derivatives,
    measure_from_json,
    outer_from_weight,
)
from .spaces import annihilator_check, rapid_weight
from .transforms import (
    KMember,
    MemberIngredients,
    backshift_identity,
    flip_check,
    smooth_transform,
)

# Rank-k Whitney arcs are |A| / (3 * 2**k) long: 3e-13 |A| at rank 40, within
# three decades of the angle resolution of a double; 2.0**k overflows at 1024.
K_MAX_LIMIT = 40


@dataclass
class _Run:
    """One run: its checked flags, its parsed inputs, and the ingredients
    several suites share, each built on first use.  Suites must not modify
    them."""

    suites: list[str]
    grid_log2: int
    k_max: int
    out_dir: Path
    seed: int
    E: BeurlingCarlesonSet
    measure: SingularMeasure
    coeffs: AnalyticSeries
    _members: dict[int, KMember] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def outer(self) -> OuterFunction:
        return outer_from_weight(fixtures.taper_weight(self.E, self.grid_log2))

    @cached_property
    def cutoff(self) -> CutoffFunction:
        return build_cutoff(self.E, k_max=self.k_max)

    @cached_property
    def ingredients(self) -> MemberIngredients:
        return MemberIngredients(self.E, self.outer, self.cutoff)

    def member(self, k: int) -> KMember:
        """The family-K member s = conj(zeta z^k g W), built once per k."""
        if k not in self._members:
            self._members[k] = self.ingredients.member(fixtures.monomial(k), None)
        return self._members[k]


def _read_set(source) -> BeurlingCarlesonSet:
    return validate_set(gaps_from_json(source))


def _parse_input(kind: str, parse, source):
    """parse(source), with any malformed-input error raised as ConfigError."""
    try:
        return parse(source)
    except (OSError, ValueError, KeyError, TypeError, RecursionError, ToolkitError) as exc:
        raise ConfigError(f"invalid {kind} file {source}: {exc}") from exc


def _round17(obj):
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, dict):
        return {k: _round17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round17(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_round17(obj), indent=2, sort_keys=True) + "\n")


def _check(name: str, value, threshold, ok) -> dict:
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(ok)}


# ---------------------------------------------------------------------------
# suites: each takes the run and returns its checks (plus any extra entries);
# run_suite adds the suite name and the verdict
# ---------------------------------------------------------------------------

def suite_whitney(run: _Run) -> dict:
    E = run.E
    arcs = assign_lambdas(whitney_decompose(E, run.k_max))
    len_resid = max(abs(w.length - _rank_length(E.gaps[w.parent].length, w.rank)) for w in arcs)
    dist_resid = max(abs(dist_arc_to_set(w.arc, E) - w.length) for w in arcs)
    c = _whitney_mass(np.array([w.length for w in arcs]))
    lam = np.array([w.lam for w in arcs])
    bound = 2.0 * math.sqrt(c.sum()) + c.sum()
    whitney_to_csv(arcs, run.out_dir / "whitney.csv")
    residuals = whitney_residuals(E, run.k_max)
    checks = [
        _check("length_rule", len_resid, 1e-12, len_resid <= 1e-12),
        _check("distance_rule", dist_resid, 1e-12, dist_resid <= 1e-12),
        _check("lambda_mass", float((lam * c).sum()), bound, (lam * c).sum() <= bound),
    ]
    return {
        "checks": checks,
        "residual_end_segments": [
            {"parent": n, "length_each_side": r} for n, r in residuals
        ],
    }


def disk_points(rng, count: int) -> np.ndarray:
    xy = rng.uniform(-1.0, 1.0, (3 * count, 2))
    z = xy[:, 0] + 1j * xy[:, 1]
    return z[np.abs(z) < 1.0][:count]


def suite_cutoff(run: _Run) -> dict:
    E, c = run.E, run.cutoff
    pts = disk_points(np.random.default_rng(run.seed), 10**4)
    re_h = float(np.max(np.real(eval_h(c, pts))))
    g_mag = float(np.max(np.abs(eval_g(c, pts))))
    # Shallow-level ratios for higher orders are not monotone under the
    # tail-sum multiplier rule; the CLI certifies the plain modulus decay and
    # reports the rest (deep-level certification needs finer grids).
    rep = certify_decay(c, E, orders_N=(0,), orders_m=(0,), grid_log2=run.grid_log2)
    _write_json(run.out_dir / "cutoff_decay.json", rep.to_json())
    checks = [
        _check("re_h_negative", re_h, 0.0, re_h < 0.0),
        _check("g_bounded", g_mag, 1.0 + 1e-12, g_mag <= 1.0 + 1e-12),
        _check("decay_monotone", rep.all_monotone(), True, rep.all_monotone()),
    ]
    return {"checks": checks}


def suite_outer(run: _Run) -> dict:
    E, w, W = run.E, run.outer.weight, run.outer
    w0 = abs(complex(W.eval(0.0))) - math.exp(w.log_integral)
    n = 1 << run.grid_log2
    neg = float(np.max(np.abs(W.spectrum[n // 2 + 1 :])))
    mod = float(np.max(np.abs(np.abs(W.boundary[w.mask]) - w.values[w.mask])))
    # derivative growth is certified on a weight with a genuine edge value
    # (the tapered weight is C^1 at the edge, so W' stays bounded and the
    # fitted constants scale like dist^2, exactly at the stability factor)
    w_edge = fixtures.const_weight(E, run.grid_log2, 0.5)
    rep = certify_W_derivatives(outer_from_weight(w_edge), E, orders_m=(0, 1))
    _write_json(run.out_dir / "outer_derivatives.json", rep.to_json())
    checks = [
        _check("center_value_identity", abs(w0), 1e-8, abs(w0) <= 1e-8),
        _check("analyticity", neg, 1e-8, neg <= 1e-8),
        _check("modulus_contract", mod, 1e-6, mod <= 1e-6),
        _check("derivative_stability_m1", rep.stable(1), True, rep.stable(1)),
    ]
    return {"checks": checks}


def suite_transform(run: _Run) -> dict:
    checks = []
    rows = []
    hi = min(1024, (1 << run.grid_log2) // 4)
    for k in (0, 1, 3):
        member = run.member(k)
        res = smooth_transform(member, fit_window=(64, hi))
        rows.append((k, res))
        checks.append(_check(f"nonzero_p{k}", res.series.norm_h2(), 0.0, res.nonzero))
        if k == 0:
            flip = flip_check(member)
            back = max(backshift_identity(member, j) for j in range(1, 5))
            checks.append(_check("flip", flip, 1e-2, flip <= 1e-2))
            checks.append(_check("backshift", back, 1e-10, back <= 1e-10))
        checks.append(_check(f"decay_slope_p{k}", res.decay_fit, None, True))
    with open(run.out_dir / "transform_spectrum.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["p", "n", "abs_S_n"])
        for k, res in rows:
            for i, cval in enumerate(np.abs(res.series.coeffs[: hi + 1])):
                wr.writerow([k, i, f"{cval:.17g}"])
    return {"checks": checks}


def _read_coeffs_csv(path) -> AnalyticSeries:
    """Coefficient CSV: either one value per line or rows (k, value), the
    value last.  A first line whose last field is not a number is a header;
    the other values and the sum of their squares must be finite numbers."""
    rows = [r for r in Path(path).read_text().strip().splitlines() if r]
    vals = []
    for i, r in enumerate(rows):
        try:
            vals.append(float(r.split(",")[-1]))
        except ValueError:
            if i:
                raise
    if not vals:
        raise ValueError("no coefficient values")
    # Python floats overflow to inf silently, where numpy would warn.
    if not math.isfinite(sum(v * v for v in vals)):
        raise ValueError("coefficient values and the sum of their squares must be finite")
    return AnalyticSeries(np.asarray(vals, dtype=complex))


def suite_weights(run: _Run) -> dict:
    coeffs = run.coeffs
    seq = rapid_weight(coeffs, 4)
    total = float(np.sum(seq.alpha * np.abs(coeffs.coeffs) ** 2))
    budget = coeffs.norm_h2() ** 2 + 2.0
    with open(run.out_dir / "weights_alpha.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "alpha_k"])
        for i, a in enumerate(seq.alpha):
            wr.writerow([i, f"{a:.17g}"])
    checks = [
        _check("nondecreasing", seq.increasing, True, seq.increasing),
        _check("weighted_mass", total, budget, total <= budget),
        _check("root_cap", seq.root_limit_certified, True, seq.root_limit_certified),
        _check("rapid_orders", seq.rapid_orders_certified, 3, seq.rapid_orders_certified >= 3),
    ]
    return {"checks": checks}


def suite_annihilator(run: _Run) -> dict:
    member = run.member(0)
    resid = float(np.max(annihilator_check(member, k_max=32)))
    control = float(
        annihilator_check(member, k_max=1, perturbation=fixtures.monomial(1))[1]
    )
    checks = [
        _check("residual", resid, 1e-7, resid <= 1e-7),
        _check("negative_control", control, 1e-2, control >= 1e-2),
    ]
    return {"checks": checks}


def suite_permanence(run: _Run) -> dict:
    theta = InnerFunction((), run.measure)
    band = 1 << min(run.grid_log2 + 4, 20)
    rep = permanence_report(theta, run.ingredients, None, band)
    checks = [
        _check("orthogonality", rep.orthogonality_residual, 1e-4, rep.orthogonality_residual <= 1e-4),
        _check("u1_stability", rep.u1_stability, 2.0, rep.u1_stability <= 2.0),
        _check("u2_stability", rep.u2_stability, 2.0, rep.u2_stability <= 2.0),
    ]
    return {"checks": checks}


def suite_dbr_psd(run: _Run) -> dict:
    b, b_n = fixtures.dbr_divisor_pair(min(run.grid_log2, 14))
    min_eig = kernel_difference_psd(b, b_n)
    swap_failed = False
    try:
        kernel_difference_psd(b_n, b)
    except NotADivisor:
        swap_failed = True
    checks = [
        _check("psd_min_eig", min_eig, -1e-10, min_eig >= -1e-10),
        _check("swap_control", swap_failed, True, swap_failed),
    ]
    return {"checks": checks}


_SUITE_FN = {
    "whitney": suite_whitney,
    "cutoff": suite_cutoff,
    "outer": suite_outer,
    "transform": suite_transform,
    "weights": suite_weights,
    "annihilator": suite_annihilator,
    "permanence": suite_permanence,
    "dbr-psd": suite_dbr_psd,
}
SUITES = tuple(_SUITE_FN)


def run_suite(run: _Run) -> int:
    """Execute the run's suites, write verdicts, return the exit status."""
    _make_out_dir(run.out_dir)
    ok = True
    for name in run.suites:
        try:
            res = _SUITE_FN[name](run)
        except ToolkitError as exc:
            res = {"checks": [_check("execution", str(exc), None, False)]}
        res["suite"] = name
        res["pass"] = all(c["pass"] for c in res["checks"])
        _write_json(run.out_dir / f"{name}.json", res)
        print(f"[{'pass' if res['pass'] else 'FAIL'}] suite {name}")
        ok = ok and res["pass"]
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=Path("bcct_out"), help="output directory")


def _make_out_dir(path: Path) -> Path:
    """Create the output directory; a path that cannot be one (an existing
    file, a file on the way) is a configuration error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {path} as the output directory: {exc}") from exc
    return path


def _run_from(args, suites) -> _Run:
    """Check every flag and parse every input file, once; return the run."""
    if args.grid < 8 or args.grid > 24:
        raise ConfigError("grid log2 size must be in [8, 24]")
    if not 0 <= args.kmax <= K_MAX_LIMIT:
        raise ConfigError(f"k_max must be in [0, {K_MAX_LIMIT}]")
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    parsed = {}
    for kind, ref, parse in (
        ("set", args.set_json, _read_set),
        ("coefficient", args.coeffs_csv, _read_coeffs_csv),
        ("measure", args.measure_json, measure_from_json),
    ):
        if ref is None:
            continue
        if not Path(ref).exists():
            raise ConfigError(f"referenced file {ref} does not exist")
        parsed[kind] = _parse_input(kind, parse, ref)
    E = parsed.get("set") or fixtures.two_gap()
    nu = parsed.get("measure") or SingularMeasure((fixtures.endpoint_atom(E, 0.1, "K"),))
    coeffs = parsed.get("coefficient") or AnalyticSeries(2.0 ** (-np.arange(257, dtype=float)))
    return _Run(
        suites=list(suites), grid_log2=args.grid, k_max=args.kmax,
        out_dir=args.out, seed=args.seed, E=E, measure=nu, coeffs=coeffs,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcct",
        description="verification suites for circle sets, cut-off functions and Cauchy transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a set JSON file")
    p_validate.add_argument("set_file")
    _add_out(p_validate)

    p_verify = sub.add_parser("verify", help="run selected suites")
    p_verify.add_argument("--suite", action="append", default=None, choices=SUITES + ("all",))
    p_verify.add_argument("--grid", type=int, default=14, help="log2 of the grid size")
    p_verify.add_argument("--kmax", type=int, default=10,
                          help=f"Whitney truncation depth, at most {K_MAX_LIMIT}")
    _add_out(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="random seed")
    p_verify.add_argument("--set", dest="set_json", type=str, default=None, help="set JSON file")
    p_verify.add_argument("--measure", dest="measure_json", type=str, default=None)
    p_verify.add_argument("--coeffs", dest="coeffs_csv", type=str, default=None,
                          help="coefficient CSV for the weights suite")

    p_report = sub.add_parser("report", help="aggregate verdicts in the output directory")
    _add_out(p_report)

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            E = _parse_input("set", _read_set, args.set_file)
            out = {"measure": E.measure, "entropy": E.entropy, "gaps": len(E.gaps)}
            _write_json(_make_out_dir(args.out) / "validate.json", out)
            print(json.dumps(_round17(out), sort_keys=True))
            return 0
        if args.command == "report":
            out_dir = args.out
            if not out_dir.is_dir():
                raise ConfigError(f"output directory {out_dir} does not exist")
            verdicts = {}
            for f in sorted(out_dir.glob("*.json")):
                obj = _parse_input("verdict", _read_json, f)
                if isinstance(obj, dict) and "pass" in obj:
                    if not isinstance(obj["pass"], bool):
                        raise ConfigError(f"invalid verdict file {f}: pass is not a boolean")
                    verdicts[f.name] = obj["pass"]
            # an empty or mistyped --out must not read as "every suite passed"
            if not verdicts:
                raise ConfigError(f"output directory {out_dir} holds no verdict file")
            for name, passed in verdicts.items():
                print(f"{name}: {'pass' if passed else 'FAIL'}")
            return 0 if all(verdicts.values()) else 1
        chosen = args.suite or ["all"]
        suites = list(SUITES) if "all" in chosen else chosen
        return run_suite(_run_from(args, suites))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
