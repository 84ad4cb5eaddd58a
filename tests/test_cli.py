import inspect
import json
import math
import sys
import warnings
from collections import Counter

import pytest

import bcct.cli
import bcct.cutoff
import bcct.factors
import bcct.fixtures
import bcct.transforms
from bcct.circle_sets import wrap_angle
from bcct.cli import SUITES, _read_coeffs_csv, main


def write_one_gap(tmp_path):
    p = tmp_path / "one_gap.json"
    p.write_text(json.dumps({"gaps": [{"start": 0.0, "end": math.pi}]}))
    return p


class TestValidate:
    def test_valid_set(self, tmp_path, capsys):
        p = write_one_gap(tmp_path)
        rc = main(["validate", str(p), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["measure"] == pytest.approx(0.5)
        assert (tmp_path / "out" / "validate.json").exists()

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["validate", str(p), "--out", str(tmp_path / "out")]) == 2

    def test_overlapping_gaps_exit_2(self, tmp_path):
        p = tmp_path / "overlap.json"
        p.write_text(json.dumps({"gaps": [
            {"start": 0.0, "end": 1.0}, {"start": 0.5, "end": 1.5}]}))
        assert main(["validate", str(p), "--out", str(tmp_path / "out")]) == 2


class TestVerify:
    def test_whitney_suite_on_one_gap(self, tmp_path):
        p = write_one_gap(tmp_path)
        out = tmp_path / "out"
        rc = main(["verify", "--suite", "whitney", "--set", str(p), "--out", str(out)])
        assert rc == 0
        verdict = json.loads((out / "whitney.json").read_text())
        assert verdict["pass"]
        csv_lines = (out / "whitney.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "parent,rank,start,end,length,lambda"

    def test_transform_suite_emits_slope_report(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["verify", "--suite", "transform", "--grid", "13", "--kmax", "8",
                   "--out", str(out)])
        assert rc == 0
        verdict = json.loads((out / "transform.json").read_text())
        names = {c["name"] for c in verdict["checks"]}
        assert {"decay_slope_p0", "decay_slope_p1", "decay_slope_p3"} <= names
        assert (out / "transform_spectrum.csv").exists()

    def test_cutoff_suite_writes_six_decay_levels(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["verify", "--suite", "cutoff", "--grid", "13", "--kmax", "8", "--out", str(out)])
        assert rc == 0
        decay = json.loads((out / "cutoff_decay.json").read_text())
        assert len(decay["levels"]) == 6

    def test_unknown_suite_exits_2(self, tmp_path):
        rc = main(["verify", "--suite", "whitney", "--set", "missing_file.json",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["verify", "--suite", "weights", "--suite", "whitney",
                       "--seed", "7", "--out", str(out)])
            assert rc == 0
        for name in ("weights.json", "whitney.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_each_member_built_once(self, tmp_path, monkeypatch):
        # the transform and annihilator suites share the family-K member for
        # p = 1; the permanence suite builds its four K2 members
        built = Counter()
        real = bcct.transforms.build_member

        def counting(family, p, **kwargs):
            built[family, p.degree] += 1
            return real(family, p, **kwargs)

        monkeypatch.setattr(bcct.transforms, "build_member", counting)
        assert main(["verify", "--suite", "all", "--out", str(tmp_path / "out")]) == 0
        assert built == {("K", 0): 1, ("K", 1): 1, ("K", 3): 1,
                         ("K2", 0): 1, ("K2", 1): 1, ("K2", 2): 1, ("K2", 3): 1}

    def test_run_builds_each_ingredient_once(self, tmp_path, monkeypatch):
        # the suites share one cut-off, its grid samples and the taper
        # weight's outer factor (the outer and dbr-psd suites build outer
        # factors of other weights)
        tapers = _spy(monkeypatch, bcct.fixtures.taper_weight)
        cutoffs = _spy(monkeypatch, bcct.cutoff.build_cutoff)
        samples = _spy(monkeypatch, bcct.cutoff.boundary_samples)
        outers = _spy(monkeypatch, bcct.factors.outer_from_weight)
        assert main(["verify", "--suite", "all", "--out", str(tmp_path / "out")]) == 0
        assert len(tapers) == 1
        assert len(cutoffs) == 1
        assert len(samples) == 1
        assert sum(args["w"] is tapers[0][1] for args, _ in outers) == 1

    def test_cutoff_suite_builds_no_weight(self, tmp_path, monkeypatch):
        tapers = _spy(monkeypatch, bcct.fixtures.taper_weight)
        assert main(["verify", "--suite", "cutoff", "--out", str(tmp_path / "out")]) == 0
        assert tapers == []

    def test_suites_alone_match_all(self, tmp_path):
        # the suites of one run share their ingredients; a suite that modified
        # one in place would change what the later suites write
        together = tmp_path / "all"
        main(["verify", "--suite", "all", "--grid", "12", "--out", str(together)])
        for suite in SUITES:
            alone = tmp_path / suite
            main(["verify", "--suite", suite, "--grid", "12", "--out", str(alone)])
            for f in alone.iterdir():
                assert f.read_bytes() == (together / f.name).read_bytes(), f.name


def _spy(monkeypatch, fn):
    """Route fn through a recorder wherever a bcct module holds it (the
    modules import it by name); return the list of its calls, each as
    (arguments by name, result)."""
    calls = []
    signature = inspect.signature(fn)

    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((signature.bind(*args, **kwargs).arguments, result))
        return result

    for name, module in list(sys.modules.items()):
        if name == "bcct" or name.startswith("bcct."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def _input_file(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MALFORMED_INPUTS = {
    "truncated_set_json": lambda d: [
        "verify", "--suite", "whitney", "--set", _input_file(d, "s.json", '{"gaps": [{"start": 0.0,')],
    "negative_atom_mass": lambda d: [
        "verify", "--suite", "permanence",
        "--measure", _input_file(d, "m.json", '{"atoms": [{"angle": 0.0, "mass": -1}]}')],
    "nan_atom_mass": lambda d: [
        "verify", "--suite", "permanence",
        "--measure", _input_file(d, "m.json", '{"atoms": [{"angle": 0.0, "mass": NaN}]}')],
    "infinite_atom_angle": lambda d: [
        "verify", "--suite", "permanence",
        "--measure", _input_file(d, "m.json", '{"atoms": [{"angle": Infinity, "mass": 0.1}]}')],
    "non_numeric_coeffs_row": lambda d: [
        "verify", "--suite", "weights",
        "--coeffs", _input_file(d, "c.csv", "k,value\n0,1\n1,abc\n")],
    "empty_coeffs": lambda d: [
        "verify", "--suite", "weights", "--coeffs", _input_file(d, "e.csv", "k,value\n")],
    "nan_coeff": lambda d: [
        "verify", "--suite", "weights",
        "--coeffs", _input_file(d, "c.csv", "k,value\n0,1\n1,nan\n")],
    # each value is finite, but the sum of their squares overflows
    "overflowing_coeffs_square": lambda d: [
        "verify", "--suite", "weights",
        "--coeffs", _input_file(d, "c.csv", "1e170\n1e170\n1e170\n")],
    "kmax_too_large": lambda d: ["verify", "--suite", "whitney", "--kmax", "2000"],
    "negative_seed": lambda d: ["verify", "--suite", "whitney", "--seed", "-1"],
    "overlapping_set_gaps": lambda d: [
        "verify", "--suite", "whitney", "--set", _input_file(d, "o.json", json.dumps(
            {"gaps": [{"start": 0.0, "end": 1.0}, {"start": 0.5, "end": 1.5}]}))],
    # end > start, but the normalized length (end - start) / 2pi underflows to 0
    "zero_length_gap": lambda d: [
        "verify", "--suite", "whitney",
        "--set", _input_file(d, "z.json", '{"gaps": [{"start": 0.0, "end": 5e-324}]}')],
    "zero_length_gap_validate": lambda d: [
        "validate", _input_file(d, "z.json", '{"gaps": [{"start": 0.0, "end": 5e-324}]}')],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    argv = MALFORMED_INPUTS[case](tmp_path) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


IGNORED_FLAGS = {
    "validate_grid": lambda d: ["validate", str(write_one_gap(d)), "--grid", "99"],
    "validate_measure": lambda d: ["validate", str(write_one_gap(d)), "--measure", "missing.json"],
    "report_seed": lambda d: ["report", "--seed", "-1"],
    "report_set": lambda d: ["report", "--set", "missing.json"],
}


@pytest.mark.parametrize("case", sorted(IGNORED_FLAGS))
def test_flag_a_subcommand_does_not_take_exits_2(tmp_path, capsys, case):
    # validate reads only its set file and --out, report only --out
    argv = IGNORED_FLAGS[case](tmp_path) + ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    lambda d: ["verify", "--suite", "whitney"],
    lambda d: ["validate", str(write_one_gap(d))],
], ids=["verify", "validate"])
def test_out_naming_a_regular_file_exits_2(tmp_path, capsys, command):
    # mkdir raised FileExistsError here: a traceback and exit 1
    target = tmp_path / "afile"
    target.write_text("keep me")
    assert main(command(tmp_path) + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert target.read_text() == "keep me"


def test_heavy_atom_fails_permanence(tmp_path, capsys):
    # e^{-800} underflows, so theta's coefficients cannot be formed; the
    # suite must fail, not report a residual of 0.0, and report must read
    # the failed verdict
    m = _input_file(tmp_path, "m.json", '{"atoms": [{"angle": 1.0, "mass": 800}]}')
    out = tmp_path / "out"
    argv = ["verify", "--suite", "permanence", "--grid", "10", "--measure", m, "--out", str(out)]
    assert main(argv) == 1
    verdict = json.loads((out / "permanence.json").read_text())
    assert verdict["pass"] is False
    assert [c["name"] for c in verdict["checks"]] == ["execution"]
    assert "800" in verdict["checks"][0]["value"]
    assert capsys.readouterr().err == ""
    assert main(["report", "--out", str(out)]) == 1
    assert capsys.readouterr().out == "permanence.json: FAIL\n"


def test_atom_just_below_underflow_runs_permanence(tmp_path, capsys):
    # e^{-705} is a normal double, so theta's coefficients exist: the suite
    # records its own checks, not an execution failure, and warns nothing
    m = _input_file(tmp_path, "m.json", '{"atoms": [{"angle": 1.0, "mass": 705}]}')
    out = tmp_path / "out"
    argv = ["verify", "--suite", "permanence", "--grid", "10", "--measure", m, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    verdict = json.loads((out / "permanence.json").read_text())
    assert [c["name"] for c in verdict["checks"]] == ["orthogonality", "u1_stability", "u2_stability"]
    assert all(math.isfinite(c["value"]) for c in verdict["checks"])
    assert capsys.readouterr().err == ""


def test_large_atom_angle_is_reduced_mod_2pi(tmp_path, capsys):
    # exp(-1j * angle * k) overflowed at 1e308, and past about 1e16 the grid
    # angle t is lost in t - angle; the loader stores the angle mod 2 pi
    verdicts = []
    for i, angle in enumerate((1e308, wrap_angle(1e308))):
        m = _input_file(tmp_path, f"m{i}.json", json.dumps({"atoms": [{"angle": angle, "mass": 0.1}]}))
        out = tmp_path / f"out{i}"
        argv = ["verify", "--suite", "permanence", "--grid", "10", "--measure", m, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(argv)
        verdicts.append((out / "permanence.json").read_bytes())
    assert verdicts[0] == verdicts[1]
    assert b"execution" not in verdicts[0]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kmax", ["10", "40"])
def test_tiny_gap_fails_cutoff_without_overflow(tmp_path, capsys, kmax):
    # Every Whitney pole of a 1e-300 gap has radius 1 + |B| == 1.0: it lies on
    # the circle, so build_cutoff refuses it before any pole sum overflows.
    s = _input_file(tmp_path, "s.json", '{"gaps": [{"start": 0.0, "end": 1e-300}]}')
    out = tmp_path / "out"
    argv = ["verify", "--suite", "cutoff", "--set", s, "--kmax", kmax, "--out", str(out)]
    assert main(argv) == 1
    verdict = json.loads((out / "cutoff.json").read_text())
    assert verdict["checks"] == [{
        "name": "execution", "pass": False, "threshold": None,
        "value": f"gap 0: the rank -{kmax} Whitney pole rounds onto the unit circle",
    }]
    assert capsys.readouterr().err == ""


def test_tiny_gap_poles_on_circle_fail_each_cutoff_suite(tmp_path, capsys):
    # Poles on the circle would overflow the pole sums (1 / 0) and put NaN
    # into g; each suite that builds the cut-off fails cleanly instead.
    s = _input_file(tmp_path, "s.json", '{"gaps": [{"start": 0.0, "end": 1e-300}]}')
    out = tmp_path / "out"
    argv = ["verify", "--suite", "all", "--set", s, "--kmax", "40", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == ""
    for suite in SUITES:
        assert (out / f"{suite}.json").exists(), suite
    assert json.loads((out / "whitney.json").read_text())["pass"] is True
    for suite in ("cutoff", "transform", "annihilator", "permanence"):
        verdict = json.loads((out / f"{suite}.json").read_text())
        assert verdict["checks"] == [{
            "name": "execution", "pass": False, "threshold": None,
            "value": "gap 0: the rank -40 Whitney pole rounds onto the unit circle",
        }], suite


def test_tiny_gap_whitney_mass_is_finite(tmp_path, capsys):
    # Ranks up to 40 of a 1e-300 gap are subnormal: 1/|B| would overflow and
    # make the mass and its bound both infinite, which would pass.
    s = _input_file(tmp_path, "s.json", '{"gaps": [{"start": 0.0, "end": 1e-300}]}')
    out = tmp_path / "out"
    argv = ["verify", "--suite", "whitney", "--set", s, "--kmax", "40", "--out", str(out)]
    assert main(argv) == 0
    verdict = json.loads((out / "whitney.json").read_text())
    (mass,) = [c for c in verdict["checks"] if c["name"] == "lambda_mass"]
    assert math.isfinite(mass["value"]) and math.isfinite(mass["threshold"])
    assert 0.0 < mass["value"] <= mass["threshold"] < 1e-148
    assert capsys.readouterr().err == ""


def test_gap_below_whitney_resolution_fails_each_suite(tmp_path, capsys):
    # A one-ulp gap is a valid set, but its Whitney arcs of rank 10 collapse
    # to a point; every suite still writes its verdict.
    s = _input_file(tmp_path, "s.json", '{"gaps": [{"start": 1.0, "end": 1.0000000000000002}]}')
    out = tmp_path / "out"
    assert main(["verify", "--suite", "all", "--set", s, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    for suite in SUITES:
        assert (out / f"{suite}.json").exists(), suite
    for suite in ("whitney", "cutoff", "transform", "annihilator", "permanence"):
        verdict = json.loads((out / f"{suite}.json").read_text())
        assert verdict["checks"] == [{
            "name": "execution", "pass": False, "threshold": None,
            "value": "gap 0: the rank -10 Whitney arc is below double-precision resolution",
        }], suite


@pytest.mark.parametrize("first", [".5", "+0.5", " 0.5"])
def test_headerless_coeffs_keep_first_value(tmp_path, first):
    # a first line that parses as a number is data, whatever its first character
    p = _input_file(tmp_path, "c.csv", f"{first}\n0.25\n0.125\n0.0625\n")
    assert list(_read_coeffs_csv(p).coeffs) == [0.5, 0.25, 0.125, 0.0625]


class TestReport:
    def test_aggregates_verdicts(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["verify", "--suite", "whitney", "--out", str(out)])
        rc = main(["report", "--out", str(out)])
        assert rc == 0
        assert "whitney.json: pass" in capsys.readouterr().out

    def test_truncated_verdict_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "whitney.json").write_text('{"suite": "whitney", "pass":')
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ['"false"', "null"])
    def test_non_boolean_pass_exits_2(self, tmp_path, capsys, flag):
        # bool("false") is True: only a JSON boolean is a verdict
        out = tmp_path / "out"
        out.mkdir()
        (out / "whitney.json").write_text(f'{{"suite": "whitney", "pass": {flag}}}')
        assert main(["report", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.err

    def test_missing_out_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("files", [{}, {"cutoff_decay.json": '{"levels": []}'}],
                             ids=["empty", "no_verdict"])
    def test_out_dir_without_verdicts_exits_2(self, tmp_path, capsys, files):
        # a mistyped but existing --out must not read as "every suite passed"
        out = tmp_path / "out"
        out.mkdir()
        for name, text in files.items():
            (out / name).write_text(text)
        assert main(["report", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.err


class TestSubcommands:
    def test_weights_subcommand(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["verify", "--suite", "weights", "--out", str(out)])
        assert rc == 0
        lines = (out / "weights_alpha.csv").read_text().strip().splitlines()
        assert lines[0] == "k,alpha_k"

    def test_weights_from_csv(self, tmp_path):
        csv_in = _input_file(tmp_path, "coeffs.csv", "k,value\n" + "\n".join(
            f"{k},{2.0 ** -k:.17g}" for k in range(64)))
        out = tmp_path / "out"
        rc = main(["verify", "--suite", "weights", "--coeffs", csv_in, "--out", str(out)])
        assert rc == 0
        cert = json.loads((out / "weights.json").read_text())
        assert cert["pass"]
