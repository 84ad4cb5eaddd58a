import json
import math
from collections import Counter

import pytest

import bcct.cli
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
        # the transform and annihilator suites share the member for p = 1
        built = Counter()
        real = bcct.cli.build_member

        def counting(family, p, **kwargs):
            built[p.degree] += 1
            return real(family, p, **kwargs)

        monkeypatch.setattr(bcct.cli, "build_member", counting)
        assert main(["verify", "--suite", "all", "--out", str(tmp_path / "out")]) == 0
        assert built == {0: 1, 1: 1, 3: 1}

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
        "weights", "--coeffs", _input_file(d, "c.csv", "k,value\n0,1\n1,abc\n")],
    "empty_coeffs": lambda d: ["weights", "--coeffs", _input_file(d, "e.csv", "k,value\n")],
    "nan_coeff": lambda d: ["weights", "--coeffs", _input_file(d, "c.csv", "k,value\n0,1\n1,nan\n")],
    "kmax_too_large": lambda d: ["whitney", "--kmax", "2000"],
    "tol_nan": lambda d: ["verify", "--suite", "permanence", "--tol", "nan"],
    "tol_inf": lambda d: ["verify", "--suite", "permanence", "--tol", "inf"],
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


def test_heavy_atom_fails_permanence(tmp_path, capsys):
    # e^{-800} underflows, so theta's coefficients cannot be formed; the
    # suite must fail, not report a residual of 0.0
    m = _input_file(tmp_path, "m.json", '{"atoms": [{"angle": 1.0, "mass": 800}]}')
    out = tmp_path / "out"
    argv = ["verify", "--suite", "permanence", "--grid", "10", "--measure", m, "--out", str(out)]
    assert main(argv) == 1
    verdict = json.loads((out / "permanence.json").read_text())
    assert verdict["pass"] is False
    assert [c["name"] for c in verdict["checks"]] == ["execution"]
    assert "800" in verdict["checks"][0]["value"]
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


class TestEnvironment:
    def test_out_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("BCCT_OUT", str(target))
        rc = main(["verify", "--suite", "whitney"])
        assert rc == 0
        assert (target / "whitney.json").exists()


class TestReport:
    def test_aggregates_verdicts(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["verify", "--suite", "whitney", "--out", str(out)])
        rc = main(["report", "--out", str(out)])
        assert rc == 0
        assert "whitney.json: pass" in capsys.readouterr().out

    def test_tol_sets_orthogonality_threshold_and_report_fails(self, tmp_path, capsys):
        # The permanence residual at grid 10 is about 5e-4: --tol 1e-300
        # fails the orthogonality check and --tol 1.0 passes it.
        checks = {}
        for tol in ("1e-300", "1.0"):
            out = tmp_path / tol
            argv = ["verify", "--suite", "permanence", "--grid", "10", "--tol", tol,
                    "--out", str(out)]
            rc = main(argv)
            verdict = json.loads((out / "permanence.json").read_text())
            checks[tol] = {c["name"]: c for c in verdict["checks"]}
            assert rc == (1 if tol == "1e-300" else 0)
        assert checks["1e-300"]["orthogonality"]["threshold"] == 1e-300
        assert checks["1e-300"]["orthogonality"]["pass"] is False
        assert checks["1.0"]["orthogonality"]["threshold"] == 1.0
        assert checks["1.0"]["orthogonality"]["pass"] is True
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path / "1e-300")]) == 1
        assert capsys.readouterr().out == "permanence.json: FAIL\n"

    def test_truncated_verdict_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "whitney.json").write_text('{"suite": "whitney", "pass":')
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_missing_out_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestSubcommands:
    def test_weights_subcommand(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["weights", "--out", str(out)])
        assert rc == 0
        lines = (out / "weights_alpha.csv").read_text().strip().splitlines()
        assert lines[0] == "k,alpha_k"

    def test_weights_from_csv(self, tmp_path):
        csv_in = tmp_path / "coeffs.csv"
        csv_in.write_text("k,value\n" + "\n".join(
            f"{k},{2.0 ** -k:.17g}" for k in range(64)))
        out = tmp_path / "out"
        rc = main(["weights", "--coeffs", str(csv_in), "--out", str(out)])
        assert rc == 0
        cert = json.loads((out / "weights.json").read_text())
        assert cert["pass"]

    def test_cutoff_subcommand(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["cutoff", "--grid", "13", "--kmax", "8", "--out", str(out)])
        assert rc == 0
        decay = json.loads((out / "cutoff_decay.json").read_text())
        assert len(decay["levels"]) == 6
