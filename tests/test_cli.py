import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import bcct.cli
import bcct.cutoff
import bcct.factors
import bcct.fixtures
import bcct.transforms
from bcct.circle_sets import Arc, assign_lambdas, validate_set, whitney_decompose, wrap_angle
from bcct.cli import SUITES, _read_coeffs_csv, _read_measure, _read_set, main
from bcct.factors import SingularMeasure
from bcct.spaces import rapid_weight
from bcct.transforms import smooth_transform

# ---------------------------------------------------------------------------
# The command-line contract, one row per case: exit 2 on any malformed input,
# and never a traceback.  Every row runs through main() in process and through
# `python -m bcct.cli` in a fresh interpreter under PYTHONWARNINGS=error.
# ---------------------------------------------------------------------------

# stderr rules, each a regular expression that must match all of stderr
EMPTY = ""
CONFIG_ERROR = r"config error: .+"


def usage_error(reason: str) -> str:
    """argparse's usage line, then its error line naming the reason."""
    return rf"usage: bcct .+\nbcct: error: {reason}.*"


@dataclass(frozen=True)
class Row:
    """One case, run in an empty directory.  The ``files`` (name -> text; a
    name ending in "/" is an empty directory) are written, the ``before``
    commands run and must exit 0 or 1 with empty stderr, then ``argv`` must
    exit with ``status``, with a stderr that ``stderr`` matches, no traceback,
    and, on exit 2, an empty stdout.  ``check(d, out)`` then gets the
    directory and the stdout.  Commands are split on whitespace."""

    id: str
    argv: str
    status: int
    stderr: str = EMPTY
    files: dict[str, str] = field(default_factory=dict)
    before: tuple[str, ...] = ()
    check: Callable[[Path, str], None] | None = None


def _json(d: Path, name: str):
    return json.loads((d / name).read_text())


def _execution_in(d: Path, suites, message: str) -> None:
    """Each of the suites writes exactly one check: the failed execution."""
    for suite in suites:
        assert _json(d, f"out/{suite}.json")["checks"] == [{
            "name": "execution", "pass": False, "threshold": None, "value": message,
        }], suite


def _every_verdict_written(d: Path) -> None:
    for suite in SUITES:
        assert (d / f"out/{suite}.json").exists(), suite


def _stdout_is(text: str):
    def check(d, out):
        assert out == text
    return check


def _valid_set(d, out):
    assert json.loads(out)["measure"] == pytest.approx(0.5)
    assert (d / "out/validate.json").exists()


def _whitney_on_one_gap(d, out):
    assert _json(d, "out/whitney.json")["pass"] is True
    csv_lines = (d / "out/whitney.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "parent,rank,start,end,length,lambda"


def _slope_report(d, out):
    names = {c["name"] for c in _json(d, "out/transform.json")["checks"]}
    assert {"decay_slope_p0", "decay_slope_p1", "decay_slope_p3"} <= names
    assert (d / "out/transform_spectrum.csv").exists()


def _slopes_say_why_at_grid_8(d, out):
    # the band is too short for the slope fit: each slope entry says so, and
    # the nonzero, flip and backshift checks still run
    checks = {c["name"]: c for c in _json(d, "out/transform.json")["checks"]}
    assert all(checks[f"nonzero_p{k}"]["pass"] for k in (0, 1, 3))
    assert checks["flip"]["pass"] is False and checks["backshift"]["pass"] is True
    for k in (0, 1, 3):
        assert checks[f"decay_slope_p{k}"]["value"] == "fit window is empty at this band"


def _dbr_psd_reads_the_set(d, out):
    # the divisor pair is built on the run's set, not on the default one
    one, default = ({c["name"]: c for c in _json(d, f"{o}/dbr-psd.json")["checks"]}
                    for o in ("out", "default"))
    assert all(c["pass"] for c in one.values())
    assert one["psd_min_eig"]["value"] != default["psd_min_eig"]["value"]


def _six_decay_levels(d, out):
    assert len(_json(d, "out/cutoff_decay.json")["levels"]) == 6


def _keeps_the_file(d, out):
    assert (d / "afile").read_text() == "keep me"


def _heavy_atom_fails(d, out):
    # e^{-800} underflows, so theta's coefficients cannot be formed; the
    # suite must fail, not report a residual of 0.0
    verdict = _json(d, "out/permanence.json")
    assert verdict["pass"] is False
    assert [c["name"] for c in verdict["checks"]] == ["execution"]
    assert "800" in verdict["checks"][0]["value"]


def _runs_permanence_checks(d, out):
    # e^{-705} is a normal double: the suite records its own checks
    checks = _json(d, "out/permanence.json")["checks"]
    assert [c["name"] for c in checks] == ["orthogonality", "u1_stability", "u2_stability"]
    assert all(math.isfinite(c["value"]) for c in checks)


def _far_matches_near(d, out):
    # the same points, written far from [0, 2 pi) and as their residues
    near = {f.name: f.read_bytes() for f in (d / "near").iterdir()}
    assert near == {f.name: f.read_bytes() for f in (d / "far").iterdir()}
    assert not any(b"execution" in text for text in near.values())


def _finite_whitney_mass(d, out):
    # Ranks up to 40 of a 1e-300 gap are subnormal: 1/|B| would overflow and
    # make the mass and its bound both infinite, which would pass.
    (mass,) = [c for c in _json(d, "out/whitney.json")["checks"] if c["name"] == "lambda_mass"]
    assert math.isfinite(mass["value"]) and math.isfinite(mass["threshold"])
    assert 0.0 < mass["value"] <= mass["threshold"] < 1e-148


def _tiny_gap_fails_each_cutoff_suite(d, out):
    _every_verdict_written(d)
    assert _json(d, "out/whitney.json")["pass"] is True
    _execution_in(d, ("cutoff", "transform", "annihilator", "permanence"),
                  POLE_ON_CIRCLE.format(kmax=40))


def _below_resolution_fails_each_suite(d, out):
    _every_verdict_written(d)
    _execution_in(d, ("whitney", "cutoff", "transform", "annihilator", "permanence"),
                  "gap 0: the rank -10 Whitney arc is below double-precision resolution")


ONE_GAP = {"one_gap.json": json.dumps({"gaps": [{"start": 0.0, "end": math.pi}]})}
OVERLAPPING_GAPS = json.dumps({"gaps": [{"start": 0.0, "end": 1.0}, {"start": 0.5, "end": 1.5}]})
# every Whitney pole of a 1e-300 gap has radius 1 + |B| == 1.0: it lies on
# the circle, so build_cutoff refuses it before any pole sum overflows
TINY_GAP = {"s.json": '{"gaps": [{"start": 0.0, "end": 1e-300}]}'}
POLE_ON_CIRCLE = "gap 0: the rank -{kmax} Whitney pole rounds onto the unit circle"
DEEP_JSON = "[" * 100_000 + "]" * 100_000
PASSING_VERDICT = {"out/whitney.json": '{"suite": "whitney", "pass": true}'}
PERMANENCE = "verify --suite permanence --grid 10 --measure m.json --out out"


def _atom(angle, mass) -> str:
    return json.dumps({"atoms": [{"angle": angle, "mass": mass}]})


def _gap(start, end) -> str:
    return json.dumps({"gaps": [{"start": start, "end": end}]})


CONTRACT = [
    # validate
    Row("validate_valid_set", "validate one_gap.json --out out", 0, files=ONE_GAP,
        check=_valid_set),
    Row("validate_malformed_json", "validate bad.json --out out", 2, CONFIG_ERROR,
        files={"bad.json": "{not json"}),
    Row("validate_overlapping_gaps", "validate o.json --out out", 2, CONFIG_ERROR,
        files={"o.json": OVERLAPPING_GAPS}),
    # one suite on one input
    Row("whitney_suite_on_one_gap", "verify --suite whitney --set one_gap.json --out out", 0,
        files=ONE_GAP, check=_whitney_on_one_gap),
    Row("transform_suite_emits_slope_report",
        "verify --suite transform --grid 13 --kmax 8 --out out", 0, check=_slope_report),
    Row("transform_suite_at_grid_8", "verify --suite transform --grid 8 --out out", 1,
        check=_slopes_say_why_at_grid_8),
    Row("dbr_psd_on_one_gap", "verify --suite dbr-psd --set one_gap.json --out out", 0,
        files=ONE_GAP, before=("verify --suite dbr-psd --out default",),
        check=_dbr_psd_reads_the_set),
    # a one-point set has no arc of E for the divisor to keep
    Row("dbr_psd_on_a_point", "verify --suite dbr-psd --set p.json --out out", 1,
        files={"p.json": _gap(1.0, 1.0 + 2.0 * math.pi)},
        check=lambda d, out: _execution_in(d, ("dbr-psd",),
                                           "a one-point set has no arc of positive length")),
    Row("cutoff_suite_writes_six_decay_levels",
        "verify --suite cutoff --grid 13 --kmax 8 --out out", 0, check=_six_decay_levels),
    # malformed input files and flags out of range
    Row("missing_set_file", "verify --suite whitney --set missing_file.json --out out", 2,
        CONFIG_ERROR),
    Row("truncated_set_json", "verify --suite whitney --set s.json --out out", 2, CONFIG_ERROR,
        files={"s.json": '{"gaps": [{"start": 0.0,'}),
    Row("overlapping_set_gaps", "verify --suite whitney --set o.json --out out", 2, CONFIG_ERROR,
        files={"o.json": OVERLAPPING_GAPS}),
    # end > start, but the normalized length (end - start) / 2pi underflows to 0
    Row("zero_length_gap", "verify --suite whitney --set z.json --out out", 2, CONFIG_ERROR,
        files={"z.json": _gap(0.0, 5e-324)}),
    Row("zero_length_gap_validate", "validate z.json --out out", 2, CONFIG_ERROR,
        files={"z.json": _gap(0.0, 5e-324)}),
    Row("negative_atom_mass", PERMANENCE, 2, CONFIG_ERROR, files={"m.json": _atom(0.0, -1)}),
    Row("nan_atom_mass", PERMANENCE, 2, CONFIG_ERROR,
        files={"m.json": '{"atoms": [{"angle": 0.0, "mass": NaN}]}'}),
    Row("infinite_atom_angle", PERMANENCE, 2, CONFIG_ERROR,
        files={"m.json": '{"atoms": [{"angle": Infinity, "mass": 0.1}]}'}),
    Row("non_numeric_coeffs_row", "verify --suite weights --coeffs c.csv --out out", 2,
        CONFIG_ERROR, files={"c.csv": "k,value\n0,1\n1,abc\n"}),
    Row("empty_coeffs", "verify --suite weights --coeffs c.csv --out out", 2, CONFIG_ERROR,
        files={"c.csv": "k,value\n"}),
    Row("nan_coeff", "verify --suite weights --coeffs c.csv --out out", 2, CONFIG_ERROR,
        files={"c.csv": "k,value\n0,1\n1,nan\n"}),
    # each value is finite, but the sum of their squares overflows
    Row("overflowing_coeffs_square", "verify --suite weights --coeffs c.csv --out out", 2,
        CONFIG_ERROR, files={"c.csv": "1e170\n1e170\n1e170\n"}),
    Row("kmax_too_large", "verify --suite whitney --kmax 2000 --out out", 2, CONFIG_ERROR),
    Row("negative_seed", "verify --suite whitney --seed -1 --out out", 2, CONFIG_ERROR),
    # JSON nested past the parser's recursion limit, in each file a run reads
    Row("nested_json_validate", "validate deep.json --out out", 2, CONFIG_ERROR,
        files={"deep.json": DEEP_JSON}),
    Row("nested_json_set", "verify --suite whitney --set deep.json --out out", 2, CONFIG_ERROR,
        files={"deep.json": DEEP_JSON}),
    Row("nested_json_measure", "verify --suite permanence --measure deep.json --out out", 2,
        CONFIG_ERROR, files={"deep.json": DEEP_JSON}),
    Row("nested_json_verdict", "report --out out", 2, CONFIG_ERROR,
        files={"out/whitney.json": DEEP_JSON}),
    # validate reads only its set file and --out, report only --out; verify is
    # the one way to run a suite, and no flag moves a threshold
    Row("validate_grid", "validate one_gap.json --grid 99 --out out", 2,
        usage_error("unrecognized arguments"), files=ONE_GAP),
    Row("validate_measure", "validate one_gap.json --measure missing.json --out out", 2,
        usage_error("unrecognized arguments"), files=ONE_GAP),
    Row("report_seed", "report --seed -1 --out out", 2, usage_error("unrecognized arguments"),
        files=PASSING_VERDICT),
    Row("report_set", "report --set missing.json --out out", 2,
        usage_error("unrecognized arguments"), files=PASSING_VERDICT),
    Row("unknown_subcommand", "whitney --out out", 2,
        usage_error("argument command: invalid choice")),
    Row("removed_tol_flag", "verify --suite whitney --tol 1e-3 --out out", 2,
        usage_error("unrecognized arguments")),
    # --out must name a directory, and the file it names stays as it was
    Row("out_is_a_file_verify", "verify --suite whitney --out afile", 2, CONFIG_ERROR,
        files={"afile": "keep me"}, check=_keeps_the_file),
    Row("out_is_a_file_validate", "validate one_gap.json --out afile", 2, CONFIG_ERROR,
        files={"afile": "keep me", **ONE_GAP}, check=_keeps_the_file),
    # inputs at the edge of double precision
    Row("heavy_atom_fails_permanence", PERMANENCE, 1, files={"m.json": _atom(1.0, 800)},
        check=_heavy_atom_fails),
    Row("heavy_atom_report_reads_fail", "report --out out", 1, files={"m.json": _atom(1.0, 800)},
        before=(PERMANENCE,), check=_stdout_is("permanence.json: FAIL\n")),
    Row("atom_just_below_underflow", PERMANENCE, 1, files={"m.json": _atom(1.0, 705)},
        check=_runs_permanence_checks),
    # exp(-1j * angle * k) overflowed at 1e308, and past about 1e16 the grid
    # angle t is lost in t - angle; the loader stores the angle mod 2 pi
    Row("large_atom_angle_reduced_mod_2pi",
        "verify --suite permanence --grid 10 --measure far.json --out far", 1,
        files={"far.json": _atom(1e308, 0.1), "near.json": _atom(wrap_angle(1e308), 0.1)},
        before=("verify --suite permanence --grid 10 --measure near.json --out near",),
        check=_far_matches_near),
    # a set file's gaps are moved by multiples of 2 pi to start in [0, 2 pi)
    Row("large_gap_angle_reduced_mod_2pi", "verify --suite all --set far.json --out far", 0,
        files={"far.json": _gap(1e9, 1e9 + 1.0),
               "near.json": _gap(wrap_angle(1e9), wrap_angle(1e9) + 1.0)},
        before=("verify --suite all --set near.json --out near",), check=_far_matches_near),
    Row("tiny_gap_cutoff_kmax10", "verify --suite cutoff --set s.json --kmax 10 --out out", 1,
        files=TINY_GAP,
        check=lambda d, out: _execution_in(d, ("cutoff",), POLE_ON_CIRCLE.format(kmax=10))),
    Row("tiny_gap_cutoff_kmax40", "verify --suite cutoff --set s.json --kmax 40 --out out", 1,
        files=TINY_GAP,
        check=lambda d, out: _execution_in(d, ("cutoff",), POLE_ON_CIRCLE.format(kmax=40))),
    # poles on the circle would overflow the pole sums (1 / 0) and put NaN
    # into g; each suite that builds the cut-off fails cleanly instead
    Row("tiny_gap_each_cutoff_suite", "verify --suite all --set s.json --kmax 40 --out out", 1,
        files=TINY_GAP, check=_tiny_gap_fails_each_cutoff_suite),
    Row("tiny_gap_whitney_mass_finite", "verify --suite whitney --set s.json --kmax 40 --out out",
        0, files=TINY_GAP, check=_finite_whitney_mass),
    # a one-ulp gap is a valid set, but its Whitney arcs of rank 10 collapse
    # to a point; every suite still writes its verdict
    Row("gap_below_whitney_resolution", "verify --suite all --set s.json --out out", 1,
        files={"s.json": _gap(1.0, 1.0000000000000002)}, check=_below_resolution_fails_each_suite),
    # report
    Row("report_aggregates_verdicts", "report --out out", 0,
        before=("verify --suite whitney --out out",),
        check=_stdout_is("whitney.json: pass\n")),
    Row("report_missing_out_dir", "report --out missing", 2, CONFIG_ERROR),
    Row("report_truncated_verdict", "report --out out", 2, CONFIG_ERROR,
        files={"out/whitney.json": '{"suite": "whitney", "pass":'}),
    # bool("false") is True: only a JSON boolean is a verdict
    Row("report_string_pass", "report --out out", 2, CONFIG_ERROR,
        files={"out/whitney.json": '{"suite": "whitney", "pass": "false"}'}),
    Row("report_null_pass", "report --out out", 2, CONFIG_ERROR,
        files={"out/whitney.json": '{"suite": "whitney", "pass": null}'}),
    # a mistyped but existing --out must not read as "every suite passed"
    Row("report_empty_out_dir", "report --out out", 2, CONFIG_ERROR, files={"out/": ""}),
    Row("report_out_dir_without_verdict", "report --out out", 2, CONFIG_ERROR,
        files={"out/cutoff_decay.json": '{"levels": []}'}),
]


def _run_row(row: Row, d: Path, run) -> None:
    """Run a row in directory d; run(argv) returns (status, stdout, stderr)."""
    for name, text in row.files.items():
        path = d / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith("/"):
            path.mkdir()
        else:
            path.write_text(text)
    for command in row.before:
        status, _, err = run(command.split())
        assert status in (0, 1) and err == "", (command, status, err)
    status, out, err = run(row.argv.split())
    assert "Traceback" not in err
    assert re.fullmatch(row.stderr, err, re.S), err
    assert status == row.status
    if status == 2:
        assert out == ""
    if row.check is not None:
        row.check(d, out)


def _run_in_process(row: Row, tmp_path, monkeypatch, capsys) -> None:
    # pytest's filterwarnings = error fails the row on any warning
    def run(argv):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        return (status, *capsys.readouterr())

    monkeypatch.chdir(tmp_path)
    _run_row(row, tmp_path, run)


@pytest.mark.parametrize("row", CONTRACT, ids=lambda row: row.id)
def test_contract_in_process(row, tmp_path, monkeypatch, capsys):
    _run_in_process(row, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("row", CONTRACT, ids=lambda row: row.id)
def test_contract_in_fresh_interpreter(row, tmp_path):
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=str(Path(bcct.cli.__file__).parents[1]))

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "bcct.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    _run_row(row, tmp_path, run)


ROW = {row.id: row for row in CONTRACT}


# The validate and report rows also run in process under the test names they
# have long had, so a record of past runs still finds each of them.
class TestValidate:
    def test_valid_set(self, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW["validate_valid_set"], tmp_path, monkeypatch, capsys)

    def test_malformed_json_exits_2(self, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW["validate_malformed_json"], tmp_path, monkeypatch, capsys)

    def test_overlapping_gaps_exit_2(self, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW["validate_overlapping_gaps"], tmp_path, monkeypatch, capsys)


class TestReport:
    def test_aggregates_verdicts(self, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW["report_aggregates_verdicts"], tmp_path, monkeypatch, capsys)

    def test_missing_out_dir_exits_2(self, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW["report_missing_out_dir"], tmp_path, monkeypatch, capsys)

    def test_truncated_verdict_exits_2(self, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW["report_truncated_verdict"], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("row_id", ["report_string_pass", "report_null_pass"],
                             ids=['"false"', "null"])
    def test_non_boolean_pass_exits_2(self, row_id, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW[row_id], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("row_id", ["report_empty_out_dir", "report_out_dir_without_verdict"],
                             ids=["empty", "no_verdict"])
    def test_out_dir_without_verdicts_exits_2(self, row_id, tmp_path, monkeypatch, capsys):
        _run_in_process(ROW[row_id], tmp_path, monkeypatch, capsys)


class TestVerify:
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
        # weight's outer factor (the outer suite builds outer factors of
        # other weights)
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

    def test_dbr_psd_samples_nothing_on_the_grid(self, tmp_path, monkeypatch):
        # the divisor certificate reads its symbols' interior values only:
        # no outer factor is built and theta is never sampled on the grid
        outers = _spy(monkeypatch, bcct.factors.outer_from_weight)
        thetas = []
        sample = bcct.factors.InnerFunction.boundary_samples

        def counting(theta, grid_log2):
            thetas.append(grid_log2)
            return sample(theta, grid_log2)

        monkeypatch.setattr(bcct.factors.InnerFunction, "boundary_samples", counting)
        assert main(["verify", "--suite", "dbr-psd", "--out", str(tmp_path / "out")]) == 0
        assert outers == []
        assert thetas == []

    def test_swap_control_can_fail(self, tmp_path, monkeypatch):
        # a symbol paired with itself divides both ways round, so the dbr-psd
        # suite's swap control fails and the run exits 1
        E = bcct.fixtures.two_gap()
        b = bcct.fixtures.dbr_symbol(E, SingularMeasure((bcct.fixtures.endpoint_atom(E),)), 12)
        monkeypatch.setattr(bcct.fixtures, "dbr_divisor_pair", lambda E, nu, grid_log2: (b, b))
        out = tmp_path / "out"
        assert main(["verify", "--suite", "dbr-psd", "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads((out / "dbr-psd.json").read_text())["checks"]}
        assert checks["swap_control"]["value"] is False
        assert checks["swap_control"]["pass"] is False
        assert checks["psd_min_eig"]["pass"] is True

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


@pytest.mark.parametrize("first", [".5", "+0.5", " 0.5"])
def test_headerless_coeffs_keep_first_value(tmp_path, first):
    # a first line that parses as a number is data, whatever its first character
    p = _input_file(tmp_path, "c.csv", f"{first}\n0.25\n0.125\n0.0625\n")
    assert list(_read_coeffs_csv(p).coeffs) == [0.5, 0.25, 0.125, 0.0625]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestFileFormats:
    """The readers and writers of the files a run reads and writes."""

    def test_json_round_trip(self, tmp_path):
        E = validate_set([Arc(0.25, 1.0), Arc(2.0, 2.75)])
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"gaps": [{"start": g.start, "end": g.end} for g in E.gaps]}))
        E2 = _read_set(path)
        assert E2.entropy == pytest.approx(E.entropy, abs=1e-15)

    def test_json_from_string(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"gaps": [{"start": 0.0, "end": 1.0}]}')
        E = _read_set(path)
        assert len(E.gaps) == 1 and E.gaps[0].end == 1.0

    def test_whitney_csv(self, tmp_path):
        set_json = _input_file(tmp_path, "set.json", _gap(0.0, 1.0))
        out = tmp_path / "out"
        assert main(["verify", "--suite", "whitney", "--kmax", "3", "--set", set_json,
                     "--out", str(out)]) == 0
        arcs = assign_lambdas(whitney_decompose(validate_set([Arc(0.0, 1.0)]), 3))
        lines = (out / "whitney.csv").read_text().strip().splitlines()
        assert lines[0] == "parent,rank,start,end,length,lambda"
        assert len(lines) == len(arcs) + 1

    def test_measure_schema(self, tmp_path):
        p = tmp_path / "nu.json"
        p.write_text(
            '{"atoms": [{"angle": 0.5, "mass": 0.1, "part": "C"},'
            ' {"angle": 2.0, "mass": 0.2, "part": "K"}]}'
        )
        nu = _read_measure(p)
        assert [(a.angle, a.mass, a.part) for a in nu.atoms] == [(0.5, 0.1, "C"), (2.0, 0.2, "K")]

    def test_measure_file(self, tmp_path):
        p = tmp_path / "nu.json"
        p.write_text(json.dumps({"atoms": [{"angle": 1.0, "mass": 0.5}]}))
        nu = _read_measure(p)
        assert nu.atoms[0].part == "C"

    def test_csv_values_round_trip(self, tmp_path):
        # each CSV of a run reads back, bit for bit, to the array it was
        # written from: the Whitney floats as repr, the others as .17g
        coeffs_csv = _input_file(tmp_path, "c.csv", "k,value\n" + "\n".join(
            f"{k},{2.0 ** -k:.17g}" for k in range(64)))
        out = tmp_path / "out"
        assert main(["verify", "--suite", "whitney", "--suite", "transform", "--suite", "weights",
                     "--grid", "12", "--kmax", "8", "--coeffs", coeffs_csv,
                     "--out", str(out)]) == 0
        scale = bcct.fixtures.Scale(bcct.fixtures.two_gap(), 12, 8)

        def read(name, header, floats, fmt):
            with open(out / name, newline="") as fh:
                first, *rows = csv.reader(fh)
            assert first == header
            for row in rows:
                assert row[-floats:] == [fmt(float(v)) for v in row[-floats:]]
            return np.array([[float(v) for v in row] for row in rows])

        got = read("whitney.csv", ["parent", "rank", "start", "end", "length", "lambda"], 4, repr)
        want = [[w.parent, w.rank, w.arc.start, w.arc.end, w.length, w.lam]
                for w in assign_lambdas(whitney_decompose(scale.E, 8))]
        assert np.array_equal(_bits(got), _bits(want))

        got = read("transform_spectrum.csv", ["p", "n", "abs_S_n"], 1, lambda v: f"{v:.17g}")
        want = [[k, n, c] for k in (0, 1, 3)
                for n, c in enumerate(np.abs(smooth_transform(scale.member(k)).series.coeffs[:1025]))]
        assert np.array_equal(_bits(got), _bits(want))

        got = read("weights_alpha.csv", ["k", "alpha_k"], 1, lambda v: f"{v:.17g}")
        alpha = rapid_weight(_read_coeffs_csv(coeffs_csv), 4).alpha
        assert np.array_equal(_bits(got), _bits([[k, a] for k, a in enumerate(alpha)]))


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
