"""The three certificate workloads.

A workload is a fixed list of jobs; one round runs every job to its
verdicts.  Each job builds what it needs from the workload's generated
inputs and returns its certificate values as a flat dict, which the
worker compares with the committed reference.  Jobs call bcct through
module attributes (``cutoff.eval_h``, not a name imported here), so the
wrappers that ``spans.instrument`` installs see every call.

The seed selects one of ``DRAWS`` input draws (``draw = seed % DRAWS``);
the reference holds the values of every draw for the jobs that depend on
it, and one set of values for the others.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bcct.cli
from bcct import cutoff, dbr, factors, fixtures, spaces, transforms
from bcct.boundary_calculus import AnalyticSeries
from bcct.circle_sets import TWO_PI

DRAWS = 32


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[dict], dict]
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    make_inputs: Callable[[int, Path], dict]
    # hostspeed probe kinds whose slowdown follows this workload's rounds.
    probes: tuple[str, ...] = ("py", "fft", "mem")


def flatten(prefix: str, obj) -> dict:
    """Nested JSON-like values -> {dotted key: scalar}.  Lists of dicts that
    carry a ``name`` are keyed by that name, other lists by index."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(f"{prefix}.{k}", v))
    elif isinstance(obj, (list, tuple)):
        named = bool(obj) and all(isinstance(v, dict) and "name" in v for v in obj)
        for i, v in enumerate(obj):
            key = v["name"] if named else str(i)
            out.update(flatten(f"{prefix}.{key}", v))
    elif isinstance(obj, (bool, np.bool_)):
        out[prefix] = bool(obj)
    elif isinstance(obj, (int, np.integer)):
        out[prefix] = int(obj)
    elif isinstance(obj, (float, np.floating)):
        out[prefix] = float(obj)
    else:
        out[prefix] = None if obj is None else str(obj)
    return out


# ---------------------------------------------------------------------------
# verify-default: the CLI as users run it
# ---------------------------------------------------------------------------


def _verify_inputs(draw: int, scratch: Path) -> dict:
    return {"draw": draw, "out": scratch / "verify"}


def _verify_all(inputs: dict) -> dict:
    out = inputs["out"]
    if out.exists():
        shutil.rmtree(out)
    argv = ["verify", "--suite", "all", "--seed", str(inputs["draw"]), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        status = bcct.cli.main(argv)
    values = {"exit_status": status}
    for path in sorted(out.glob("*.json")):
        values.update(flatten(path.stem, json.loads(path.read_text())))
    return values


VERIFY_DEFAULT = Workload(
    name="verify-default",
    jobs=(Job("verify_all", _verify_all, seeded=True),),
    make_inputs=_verify_inputs,
)


# ---------------------------------------------------------------------------
# transform-2p21: criteria 3 and 2 at acceptance scale
# ---------------------------------------------------------------------------


def closure_points(rng, count: int):
    """Half the points uniform in the open disk, the rest on the circle."""
    xy = rng.uniform(-1.0, 1.0, (3 * count, 2))
    z = xy[:, 0] + 1j * xy[:, 1]
    interior = z[np.abs(z) < 1.0][: count // 2]
    boundary = np.exp(1j * rng.uniform(0.0, TWO_PI, count - len(interior)))
    return interior, boundary


def _transform_inputs(draw: int, scratch: Path) -> dict:
    interior, boundary = closure_points(np.random.default_rng(draw), 10**4)
    return {"interior": interior, "boundary": boundary}


def _criterion3(inputs: dict) -> dict:
    E = fixtures.two_gap()
    W = factors.outer_from_weight(fixtures.taper_weight(E, 21))
    g = cutoff.build_cutoff(E, k_max=16)
    g_samples = cutoff.boundary_samples(g, 21)
    values = {}
    for k in (0, 1, 3):
        member = transforms.build_member(
            "K", fixtures.monomial(k), cutoff=g, cutoff_set=E, outer=W, cutoff_samples=g_samples
        )
        res = transforms.smooth_transform(member, fit_window=(64, 1024))
        flip = transforms.flip_check(member)
        mean = abs(complex(np.mean(member.samples)))
        values[f"p{k}.decay_slope"] = res.decay_fit
        values[f"p{k}.norm_h2"] = res.series.norm_h2()
        values[f"p{k}.flip"] = flip
        values[f"p{k}.mean"] = mean
        values[f"p{k}.pass"] = (
            res.decay_fit <= -4.0 and res.nonzero and flip <= 1e-6 and mean <= 1e-8
        )
    return values


def _decay_values(rep) -> dict:
    values = flatten("decay", rep.to_json())
    values["pass"] = rep.all_monotone()
    return values


def _criterion2_2p16(inputs: dict) -> dict:
    E = fixtures.two_gap()
    c = cutoff.build_cutoff(E, k_max=16)
    re_h = float(np.max(np.real(cutoff.eval_h(c, inputs["interior"]))))
    g_max = float(
        max(
            np.max(np.abs(cutoff.eval_g(c, inputs["interior"]))),
            np.max(np.abs(cutoff.eval_g(c, inputs["boundary"]))),
        )
    )
    rep = cutoff.certify_decay(c, E, orders_N=range(5), orders_m=range(3), grid_log2=16)
    values = _decay_values(rep)
    values.update({"re_h_max": re_h, "g_max": g_max, "closure_pass": re_h < 0 and g_max <= 1 + 1e-12})
    return values


def _criterion2_2p20(inputs: dict) -> dict:
    E = fixtures.two_gap()
    c = cutoff.build_cutoff(E, k_max=24)
    rep = cutoff.certify_decay(c, E, orders_N=range(5), orders_m=range(3), grid_log2=20)
    return _decay_values(rep)


TRANSFORM_2P21 = Workload(
    name="transform-2p21",
    jobs=(
        Job("criterion3", _criterion3),
        Job("criterion2_2p16", _criterion2_2p16, seeded=True),
        Job("criterion2_2p20", _criterion2_2p20),
    ),
    make_inputs=_transform_inputs,
    # Its rounds stream 64 MB Cauchy-kernel blocks; they slow down with the
    # shared cache, and less than small-array numerics do.
    probes=("py", "mem", "big"),
)


# ---------------------------------------------------------------------------
# model-space-deep: criteria 9 and 11 on the paper's fixtures
# ---------------------------------------------------------------------------


def _model_inputs(draw: int, scratch: Path) -> dict:
    # The acceptance tolerances are pinned to the paper's fixtures, so this
    # workload takes nothing from the seed.
    return {}


def _orthogonality(family: str, grid_log2: int, band: int) -> dict:
    member = fixtures.standard_member(family, fixtures.monomial(0), grid_log2, k_max=12)
    resid = transforms.model_space_orthogonality(member, max_k=32, band=band)
    return {"residual": resid, "pass": resid <= 1e-7}


def _carrier_inputs():
    E = fixtures.two_gap()
    return E, fixtures.taper_weight(E, 16)


def _on_carrier(inputs: dict) -> dict:
    E, w = _carrier_inputs()
    on = factors.InnerFunction((), factors.SingularMeasure((fixtures.endpoint_atom(E, 0.1, "K"),)))
    rep = dbr.permanence_functional_check(on, E, w, cutoff_kmax=12, orth_band=1 << 18)
    values = flatten("report", rep.to_json())
    values["pass"] = rep.stable_within(2.0)
    return values


def _off_carrier(inputs: dict) -> dict:
    E, w = _carrier_inputs()
    on = factors.InnerFunction((), factors.SingularMeasure((fixtures.endpoint_atom(E, 0.1, "K"),)))
    off = factors.InnerFunction(
        (), factors.SingularMeasure((fixtures.interior_gap_atom(E, 0.1, "K"),))
    )
    W = factors.outer_from_weight(w)
    g_E = cutoff.build_cutoff(E, k_max=12)
    m_on = transforms.build_member(
        "K2", fixtures.monomial(0), cutoff=g_E, cutoff_set=E, outer=W, theta=on
    )
    u1 = transforms.split_transform(m_on).u1.coeffs[:4096]
    alpha = spaces.rapid_weight(AnalyticSeries(u1), 4)
    rep = dbr.permanence_functional_check(
        off, E, w, alpha=alpha, cutoff_kmax=12, orth_band=1 << 16
    )
    values = flatten("report", rep.to_json())
    values["drift_observed"] = rep.u1_stability > 2.0
    return values


MODEL_SPACE_DEEP = Workload(
    name="model-space-deep",
    jobs=(
        Job("k1_2p16_band2p17", lambda inputs: _orthogonality("K1", 16, 1 << 17)),
        Job("k2_2p18_band2p20", lambda inputs: _orthogonality("K2", 18, 1 << 20)),
        Job("permanence_on_carrier", _on_carrier),
        Job("permanence_off_carrier", _off_carrier),
    ),
    make_inputs=_model_inputs,
)


WORKLOADS = {w.name: w for w in (VERIFY_DEFAULT, TRANSFORM_2P21, MODEL_SPACE_DEEP)}
