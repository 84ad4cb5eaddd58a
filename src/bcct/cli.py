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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fixtures
from .boundary_calculus import AnalyticSeries
from .circle_sets import (
    Arc,
    BeurlingCarlesonSet,
    _whitney_mass,
    assign_lambdas,
    validate_set,
    whitney_decompose,
    whitney_exactness,
    whitney_residuals,
    wrap_angle,
)
from .cutoff import certify_decay, closure_extrema
from .dbr import divisor_psd, permanence_report
from .errors import ConfigError, ResolutionError, ToolkitError
from .factors import (
    Atom,
    InnerFunction,
    SingularMeasure,
    certify_W_derivatives,
    outer_from_weight,
)
from .spaces import annihilator_residuals, rapid_weight
from .transforms import backshift_identity, flip_check, smooth_transform

# Rank-k Whitney arcs are |A| / (3 * 2**k) long: 3e-13 |A| at rank 40, within
# three decades of the angle resolution of a double; 2.0**k overflows at 1024.
K_MAX_LIMIT = 40


@dataclass
class _Run:
    """One run: its checked flags, its parsed inputs, and the scale whose
    ingredients (the set E among them) the suites share."""

    suites: list[str]
    scale: fixtures.Scale
    out_dir: Path
    seed: int
    measure: SingularMeasure
    coeffs: AnalyticSeries


# ---------------------------------------------------------------------------
# files: every file the package reads or writes has its format here
# ---------------------------------------------------------------------------

def _read_json(path):
    """The JSON file at ``path``, parsed."""
    return json.loads(Path(path).read_text())


def _read_set(path) -> BeurlingCarlesonSet:
    """The set ``{"gaps": [{"start": rad, "end": rad}, ...]}`` in the JSON
    file at ``path``, each gap moved by a multiple of 2 pi so that it starts
    in [0, 2 pi); a gap that already does is kept as written."""
    gaps = []
    for g in _read_json(path)["gaps"]:
        s, e = float(g["start"]), float(g["end"])
        start = wrap_angle(s)
        gaps.append(Arc(start, e if start == s else start + (e - s)))
    return validate_set(gaps)


def _read_measure(path) -> SingularMeasure:
    """The measure ``{"atoms": [{"angle":.., "mass":.., "part":"C"|"K"}, ...]}``
    in the JSON file at ``path``, each angle reduced modulo 2 pi."""
    atoms = [Atom(float(a["angle"]), float(a["mass"]), str(a.get("part", "C")))
             for a in _read_json(path)["atoms"]]
    return SingularMeasure(tuple(Atom(wrap_angle(a.angle), a.mass, a.part) for a in atoms))


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


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# suites: each takes the run and returns its checks (plus any extra entries);
# run_suite adds the suite name and the verdict
# ---------------------------------------------------------------------------

def _check(name: str, value, threshold, ok) -> dict:
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(ok)}


def suite_whitney(run: _Run) -> dict:
    E, k_max = run.scale.E, run.scale.k_max
    len_resid, dist_resid = whitney_exactness(E, k_max)
    arcs = assign_lambdas(whitney_decompose(E, k_max))
    c = _whitney_mass(np.array([w.length for w in arcs]))
    lam = np.array([w.lam for w in arcs])
    bound = 2.0 * math.sqrt(c.sum()) + c.sum()
    _write_csv(run.out_dir / "whitney.csv", ["parent", "rank", "start", "end", "length", "lambda"],
               ([w.parent, w.rank, w.arc.start, w.arc.end, w.length, w.lam] for w in arcs))
    residuals = whitney_residuals(E, k_max)
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


def suite_cutoff(run: _Run) -> dict:
    E, c = run.scale.E, run.scale.cutoff
    pts = fixtures.disk_points(np.random.default_rng(run.seed), 10**4)
    re_h, g_mag = closure_extrema(c, pts, np.empty(0, dtype=complex))
    # Shallow-level ratios for higher orders are not monotone under the
    # tail-sum multiplier rule; the CLI certifies the plain modulus decay and
    # reports the rest (deep-level certification needs finer grids).
    rep = certify_decay(c, E, orders_N=(0,), orders_m=(0,), grid_log2=run.scale.grid_log2)
    _write_json(run.out_dir / "cutoff_decay.json", rep.to_json())
    checks = [
        _check("re_h_negative", re_h, 0.0, re_h < 0.0),
        _check("g_bounded", g_mag, 1.0 + 1e-12, g_mag <= 1.0 + 1e-12),
        _check("decay_monotone", rep.all_monotone(), True, rep.all_monotone()),
    ]
    return {"checks": checks}


def suite_outer(run: _Run) -> dict:
    s = run.scale
    E, w, W = s.E, s.outer.weight, s.outer
    w0 = abs(complex(W.eval(0.0))) - math.exp(w.log_integral)
    n = 1 << s.grid_log2
    neg = float(np.max(np.abs(W.spectrum[n // 2 + 1 :])))
    mod = float(np.max(np.abs(np.abs(W.boundary[w.mask]) - w.values[w.mask])))
    # derivative growth is certified on a weight with a genuine edge value
    # (the tapered weight is C^1 at the edge, so W' stays bounded and the
    # fitted constants scale like dist^2, exactly at the stability factor)
    w_edge = fixtures.const_weight(E, s.grid_log2, 0.5)
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
    hi = min(1024, (1 << run.scale.grid_log2) // 4)
    for k in (0, 1, 3):
        member = run.scale.member(k)
        res = smooth_transform(member, fit_window=(64, hi))
        rows += ([k, i, f"{c:.17g}"] for i, c in enumerate(np.abs(res.series.coeffs[: hi + 1])))
        checks.append(_check(f"nonzero_p{k}", res.series.norm_h2(), 0.0, res.nonzero))
        if k == 0:
            flip = flip_check(member)
            back = max(backshift_identity(member, j) for j in range(1, 5))
            checks.append(_check("flip", flip, 1e-2, flip <= 1e-2))
            checks.append(_check("backshift", back, 1e-10, back <= 1e-10))
        # a report: a band too short for the fit says so in its entry
        try:
            slope = res.decay_fit
        except ResolutionError as exc:
            slope = str(exc)
        checks.append(_check(f"decay_slope_p{k}", slope, None, True))
    _write_csv(run.out_dir / "transform_spectrum.csv", ["p", "n", "abs_S_n"], rows)
    return {"checks": checks}


def suite_weights(run: _Run) -> dict:
    coeffs = run.coeffs
    seq = rapid_weight(coeffs, 4)
    total = float(np.sum(seq.alpha * np.abs(coeffs.coeffs) ** 2))
    budget = coeffs.norm_h2() ** 2 + 2.0
    _write_csv(run.out_dir / "weights_alpha.csv", ["k", "alpha_k"],
               ([i, f"{a:.17g}"] for i, a in enumerate(seq.alpha)))
    checks = [
        _check("nondecreasing", seq.increasing, True, seq.increasing),
        _check("weighted_mass", total, budget, total <= budget),
        _check("root_cap", seq.root_limit_certified, True, seq.root_limit_certified),
        _check("rapid_orders", seq.rapid_orders_certified, 3, seq.rapid_orders_certified >= 3),
    ]
    return {"checks": checks}


def suite_annihilator(run: _Run) -> dict:
    resid, control = annihilator_residuals([run.scale.member(0)])
    checks = [
        _check("residual", resid, 1e-7, resid <= 1e-7),
        _check("negative_control", control, 1e-2, control >= 1e-2),
    ]
    return {"checks": checks}


def suite_permanence(run: _Run) -> dict:
    theta = InnerFunction((), run.measure)
    band = 1 << min(run.scale.grid_log2 + 4, 20)
    rep = permanence_report(theta, run.scale.ingredients, None, band)
    checks = [
        _check("orthogonality", rep.orthogonality_residual, 1e-4, rep.orthogonality_residual <= 1e-4),
        _check("u1_stability", rep.u1_stability, 2.0, rep.u1_stability <= 2.0),
        _check("u2_stability", rep.u2_stability, 2.0, rep.u2_stability <= 2.0),
    ]
    return {"checks": checks}


def suite_dbr_psd(run: _Run) -> dict:
    b, b_n = fixtures.dbr_divisor_pair(run.scale.E, run.measure, min(run.scale.grid_log2, 14))
    min_eig, swap_failed = divisor_psd(b, b_n)
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
        ("measure", args.measure_json, _read_measure),
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
        suites=list(suites), scale=fixtures.Scale(E, args.grid, args.kmax),
        out_dir=args.out, seed=args.seed, measure=nu, coeffs=coeffs,
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
