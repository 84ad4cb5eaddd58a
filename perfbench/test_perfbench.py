"""Tests of the benchmark's own logic: span reduction, instrumentation and
the reference checks.  Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from checks import close, compare, load_reference  # noqa: E402
from run import tail_percentile  # noqa: E402
from spans import Span, Tracer, instrument, round_metrics, self_times, union_length  # noqa: E402
from worker import run_round  # noqa: E402
from workloads import Job, Workload  # noqa: E402


def span(id, start, end, parent=None, layer="cutoff", name=None):
    return Span(id, name or f"s{id}", layer, start, end, parent, 1)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (3, 4)]) == 4.0
    assert union_length([(1, 5), (2, 3)]) == 4.0


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 5.0, parent=0),  # overlaps its sibling
        span(3, 9.0, 12.0, parent=0),  # sticks out of the parent
        span(4, 1.5, 2.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_round_metrics_layers_and_unattributed_time():
    spans = [
        span(0, 0.0, 10.0, layer=None, name="round"),
        span(1, 0.0, 4.0, parent=0, layer=None, name="job.a"),
        span(2, 1.0, 3.0, parent=1, layer="cli", name="cli.main"),
        span(3, 1.5, 2.5, parent=2, layer="cutoff", name="cutoff.eval_h"),
        span(4, 5.0, 8.0, parent=0, layer="factors", name="factors.outer_from_weight"),
    ]
    spans[4].error = True
    m = round_metrics(spans)
    assert m["traced_round_s"] == pytest.approx(10.0)
    assert m["unattributed_s"] == pytest.approx(10.0 - 2.0 - 3.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cli.main.s"] == pytest.approx(1.0)
    assert m["cutoff.eval_h.s"] == pytest.approx(1.0)
    assert m["cutoff.eval_h.share"] == pytest.approx(10.0)
    assert m["cli.main.total_share"] == pytest.approx(20.0)
    assert m["factors.share"] == pytest.approx(30.0) and m["spaces.share"] == 0.0
    assert m["factors.errors"] == 1 and m["cutoff.errors"] == 0
    assert m["spaces.calls"] == 0


def test_instrument_wraps_rebinds_counts_and_restores():
    import bcct
    import bcct.cli
    from bcct import cutoff, fixtures, transforms

    original = cutoff.eval_h
    tracer = Tracer()
    tracer.trace = 1
    restore = instrument(tracer)
    try:
        assert cutoff.eval_h is not original
        assert bcct.eval_h is cutoff.eval_h  # re-exported name rebound too
        assert bcct.cli._SUITE_FN["whitney"].__wrapped__ is not None
        c = cutoff.build_cutoff(fixtures.two_gap(), k_max=4)
        z = np.array([0.1, 0.2j, -0.3])
        with tracer.span("round"):
            cutoff.eval_g(c, z)
    finally:
        restore()
    assert cutoff.eval_h is original and bcct.eval_h is original
    assert not hasattr(bcct.cli._SUITE_FN["whitney"], "__wrapped__")
    assert transforms.cutoff_boundary_samples is cutoff.boundary_samples
    names = [s.name for s in tracer.spans]
    assert "cutoff.eval_g" in names and "cutoff.eval_h" in names
    m = round_metrics(tracer.spans, tracer.counts[1], tracer.keys[1])
    assert m["cutoff.eval_h.pole_evals"] == 3 * len(c.poles)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cutoff.eval_h"].parent == by_name["cutoff.eval_g"].id


def test_tail_percentile_needs_ten_rounds_beyond():
    assert tail_percentile([1.0] * 19) is None
    p, v = tail_percentile(list(range(1, 21)))
    assert p == 50 and v == 10
    p, v = tail_percentile(list(range(1, 101)))
    assert p == 90 and v == 90


def test_close_tolerances():
    assert close(1.0, 1.0 + 1e-9)
    assert not close(1.0, 1.0 + 1e-3)
    assert close(3e-16, 1e-15)  # both at the rounding floor
    assert not close(True, 1)
    assert close(float("nan"), float("nan"))
    assert compare(None, {"a": 1.0}) == ["a"]
    assert compare({"a": 1.0, "b": 2}, {"a": 1.0}) == ["b"]


def _fake_workload(returned):
    job = Job("verify_all", lambda inputs: returned() if callable(returned) else returned)
    return Workload("verify-default", (job,), lambda draw, scratch: {})


def test_perturbed_certificate_value_raises_error_rate():
    reference = load_reference()
    ref = reference["verify-default"]["values"]["verify_all"]
    key = next(k for k, v in ref.items() if isinstance(v, float) and abs(v) > 1e-6)

    _, _, attempted, failures = run_round(_fake_workload(dict(ref)), {}, 0, reference)
    assert attempted == len(ref) and failures == []

    perturbed = dict(ref)
    perturbed[key] = ref[key] * (1.0 + 1e-3)
    _, _, attempted, failures = run_round(_fake_workload(perturbed), {}, 0, reference)
    assert failures == [f"verify_all:{key}"]
    assert len(failures) / attempted > 0.0

    def boom():
        raise RuntimeError("job failed")

    _, _, attempted, failures = run_round(_fake_workload(boom), {}, 0, reference)
    assert len(failures) == attempted == len(ref)


def test_host_speed_factor_is_mean_slowdown_over_probe_kinds():
    sampler = hostspeed.Sampler()
    assert sampler.factor() == 1.0
    ref = hostspeed.REFERENCE_S
    sampler.times["py"] += [ref["py"], 3 * ref["py"]]  # 2x slower
    sampler.times["fft"] += [ref["fft"]]  # at reference speed
    assert sampler.factor() == pytest.approx(1.5)
    sampler.reset()
    assert sampler.samples() == 0 and sampler.factor() == 1.0


def test_host_speed_sampler_probes_while_python_runs():
    import time

    sampler = hostspeed.Sampler(tuple(hostspeed.REFERENCE_S)).start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert sampler.samples() >= 8
    assert all(sampler.times[k] for k in sampler.kinds)
    assert 0.1 < sampler.factor() < 10.0
