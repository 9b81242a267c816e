"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from massflat import cli, errors
from massflat.cli import main
from massflat.profiles import schwarzschild, stripes
from massflat.serialization import dumps_profile, loads_profile, write_profile


@pytest.fixture
def schwarz_path(tmp_path):
    path = tmp_path / "schwarz.json"
    write_profile(schwarzschild(3, 0.05), path)
    return str(path)


@pytest.fixture
def bad_paths(tmp_path):
    """Files the format refuses: Latin-1 bytes, nesting deeper than the
    JSON parser recurses, and a stripes profile with the retired "stripe"
    piece kind (a stripe of curvature K is now the power law K/2 r^3)."""
    paths = {name: tmp_path / f"{name}.json"
             for name in ("latin1", "nested", "stripe")}
    paths["latin1"].write_bytes(
        b'{"dimension": 3, "r_min": 0.0, "pieces": "caf\xe9"}')
    paths["nested"].write_text("[" * 100000 + "]" * 100000,
                               encoding="utf-8")
    doc = json.loads(dumps_profile(stripes((1.0, 2.0), 0.1)))
    doc["pieces"][1] = {"kind": "stripe", "from": 1.0, "to": 1.5,
                        "params": {"curvature": 0.025}}
    paths["stripe"].write_text(json.dumps(doc), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(schwarz_path, capsys):
    code, out, err = run(capsys, "validate", schwarz_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["issues"] == []


def test_validate_reports_issues(tmp_path, capsys):
    # declared horizon but the head mass does not close the boundary sphere
    doc = {
        "dimension": 3,
        "r_min": 0.5,
        "pieces": [
            {"kind": "constant", "from": 0.5, "to": "inf",
             "params": {"value": 0.1}},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    codes = {issue["code"] for issue in report["issues"]}
    assert "boundary/horizon-mismatch" in codes


def test_validate_reports_a_non_finite_slope_on_stdout_only(tmp_path):
    # m_H' = 0.05 r^(-1/2) is infinite at r = 0: the report names it, and
    # numpy's divide warning neither prints nor, under -W error, crashes
    doc = {"dimension": 3, "r_min": 0.0, "pieces": [
        {"kind": "power-law", "from": 0.0, "to": 1.0,
         "params": {"coefficient": 0.1, "exponent": 0.5}},
        {"kind": "constant", "from": 1.0, "to": "inf",
         "params": {"value": 0.1}}]}
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "massflat.cli", "validate",
         str(path)], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, "")
    codes = {issue["code"] for issue in json.loads(proc.stdout)["issues"]}
    assert "numeric/nonfinite" in codes


def test_validate_format_error_is_usage(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error:" in err
    code, out, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


def test_describe_with_model(schwarz_path, capsys):
    code, out, err = run(capsys, "describe", schwarz_path, "--r-cap", "6.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert doc["adm_mass"] == 0.05
    assert doc["valid"] is True
    assert doc["model"]["r_cap"] == 6.0
    assert doc["model"]["r_disk"] == 0.1
    assert doc["model"]["s_cap"] > 6.0


def test_describe_text_format(schwarz_path, capsys):
    code, out, err = run(capsys, "describe", schwarz_path, "--format", "text")
    assert code == 0
    assert "adm_mass = 0.05" in out
    assert "dimension = 3" in out


def test_certificate_outputs_budget(schwarz_path, capsys):
    code, out, err = run(
        capsys, "certificate", schwarz_path,
        "--alpha0", str(4.0 * math.pi), "--D", "0.5", "--epsilon", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] > 0.0
    assert doc["total_scalable"] > 0.0
    assert doc["delta_budget"]["delta"] > 0.0
    assert len(doc["delta_budget"]["slack"]) == 6
    assert "sampled_cm" not in doc


def test_certificate_sampled_cm(schwarz_path, capsys):
    code, out, err = run(
        capsys, "certificate", schwarz_path,
        "--alpha0", str(4.0 * math.pi), "--D", "0.5", "--epsilon", "0.5",
        "--sampled-cm", "--mesh-h", "0.05", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    rep = doc["sampled_cm"]
    assert rep["violations"] == 0
    assert rep["seed"] == 3
    assert rep["mesh_h"] == 0.05
    assert rep["c_m_sampled"] <= rep["c_m_bound"] + 1e-12


def test_delta_command(capsys):
    code, out, err = run(
        capsys, "delta", "--epsilon", "0.5", "--D", "0.5",
        "--alpha0", str(4.0 * math.pi))
    assert code == 0
    doc = json.loads(out)
    assert 0.0 < doc["delta"] < 1e-10
    assert all(entry["ok"] for entry in doc["slack"])


def test_delta_rejects_bad_epsilon(capsys):
    code, out, err = run(
        capsys, "delta", "--epsilon", "-1", "--D", "0.5", "--alpha0", "1.0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("epsilon", ["1e-300", "1e-200"])
def test_delta_that_underflows_exits_1(epsilon, capsys):
    code, out, err = run(
        capsys, "delta", "--epsilon", epsilon, "--D", "1", "--alpha0", "1")
    assert code == 1
    assert out == ""
    assert err == (f"error: the mass budget underflows at epsilon={epsilon}, "
                   f"D=1.0, alpha0=1.0\n")


def test_delta_past_the_top_of_the_double_range(capsys):
    # the well cut's overflowing term gives way to alpha0: a budget
    code, out, err = run(
        capsys, "delta", "--epsilon", "1e300", "--D", "1", "--alpha0", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_eps"] == 1.0
    assert all(entry["ok"] for entry in doc["slack"])
    # an overflowing ring area: one error line, no traceback
    code, out, err = run(
        capsys, "delta", "--epsilon", "1", "--D", "1e200", "--alpha0", "1")
    assert code == 1
    assert out == ""
    assert err == ("error: the mass budget underflows at epsilon=1.0, "
                   "D=1e+200, alpha0=1.0\n")


_NON_POSITIVE = [
    ("delta", "--epsilon", "inf", "--D", "0.5", "--alpha0", "1.0"),
    ("delta", "--epsilon", "0.5", "--D", "inf", "--alpha0", "1.0"),
    ("delta", "--epsilon", "0.5", "--D", "0.5", "--alpha0", "inf"),
    *(("certificate", "{path}", "--alpha0", str(4.0 * math.pi), "--D", "0.5",
       "--epsilon", "0.5", "--sampled-cm", "--mesh-h", h)
      for h in ("nan", "0", "-1", "inf")),
    ("example", "deep-well", "--well-depth", "inf"),
    ("example", "deep-well", "--alpha0", "inf"),
    ("certificate", "{path}", "--alpha0", str(4.0 * math.pi), "--D", "inf",
     "--epsilon", "0.5"),
    ("certificate", "{path}", "--alpha0", "inf", "--D", "0.5",
     "--epsilon", "0.5"),
    ("gh", "{path}", "--alpha0", "inf", "--D", "0.5"),
    ("gh", "{path}", "--alpha0", str(4.0 * math.pi), "--D", "-1"),
    ("sweep", "--family", "schwarzschild", "--values", "1e-3", "--alpha0",
     str(4.0 * math.pi), "--D", "inf", "--epsilon", "0.5"),
    ("sweep", "--family", "schwarzschild", "--values", "1e-3", "--alpha0",
     str(4.0 * math.pi), "--D", "0.5", "--epsilon", "nan"),
]
# the name each message gives the parameter that failed
_NAMES = {"--D": "D", "--alpha0": "alpha0", "--epsilon": "epsilon",
          "--mesh-h": "mesh spacing h", "--well-depth": "well depth L"}


@pytest.mark.parametrize("argv", _NON_POSITIVE, ids=" ".join)
def test_non_finite_or_non_positive_parameters_exit_2(argv, schwarz_path,
                                                      capsys):
    code, out, err = run(capsys,
                         *(a.format(path=schwarz_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    bad = next(opt for opt, value in zip(argv, argv[1:])
               if value in ("inf", "nan", "0", "-1"))
    assert f"error: {_NAMES[bad]} must be finite and positive" in err


_REFUSED = [
    (("example", "schwarzschild", "--dimension", "2"),
     "dimension must be an integer >= 3, got 2"),
    (("example", "deep-well", "--dimension", "2"),
     "dimension must be an integer >= 3, got 2"),
    (("example", "stripes", "--radii", "1,inf"),
     "stripe radius must be finite and positive, got inf"),
    (("example", "stripes", "--radii", "nan,2"),
     "stripe radius must be finite and positive, got nan"),
    (("example", "stripes", "--dimension", "4"),
     "stripes are 3-dimensional only, got dimension 4"),
    (("certificate", "{path}", "--alpha0", str(4.0 * math.pi), "--D", "0.5",
      "--epsilon", "0.5", "--sampled-cm", "--mesh-h", "0.05", "--seed", "-1"),
     "seed must be >= 0, got -1"),
    (("delta", "--epsilon", "0.5", "--D", "0.5", "--alpha0", "12.5",
      "--dimension", "400"),
     "the unit sphere area in dimension 400 is not a finite double"),
    *((argv, "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in "
             "position 45: invalid continuation byte")
      for argv in (("validate", "{latin1}"),
                   ("certificate", "{latin1}", "--alpha0", "12.5", "--D",
                    "0.5", "--epsilon", "0.5"))),
    *((argv, "JSON nested too deeply to parse")
      for argv in (("validate", "{nested}"), ("describe", "{nested}"))),
    (("validate", "{stripe}"), "pieces[1].kind 'stripe' is not recognized"),
]


@pytest.mark.parametrize("argv, message", _REFUSED,
                         ids=[" ".join(a) for a, _ in _REFUSED])
def test_refused_inputs_exit_2_with_one_error_line(argv, message,
                                                   schwarz_path, bad_paths,
                                                   capsys):
    code, out, err = run(capsys, *(a.format(path=schwarz_path, **bad_paths)
                                   for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_sweep_records_a_bad_dimension_per_row(capsys):
    for family, dimension, message in (
            ("schwarzschild", "2", "dimension must be an integer >= 3, got 2"),
            ("stripes", "5", "stripes are 3-dimensional only, got dimension 5"),
            ("schwarzschild", "400",
             "the unit sphere area in dimension 400 is not a finite double")):
        code, out, err = run(
            capsys, "sweep", "--family", family, "--values", "1e-3,1e-2",
            "--dimension", dimension, "--alpha0", str(4.0 * math.pi),
            "--D", "0.5", "--epsilon", "0.5", "--format", "json")
        assert code == 1
        assert err == ""
        rows = json.loads(out)
        assert [row["status"] for row in rows] == [f"error: {message}"] * 2


def test_sweep_records_a_malformed_file_per_row(schwarz_path, bad_paths,
                                                capsys):
    code, out, err = run(
        capsys, "sweep", "--family", "file", "--values",
        ",".join([bad_paths["nested"], bad_paths["latin1"], schwarz_path]),
        "--alpha0", str(4.0 * math.pi), "--D", "0.5", "--epsilon", "0.5",
        "--format", "json")
    assert code == 1
    assert err == ""
    status = [row["status"] for row in json.loads(out)]
    assert status[0] == "error: JSON nested too deeply to parse"
    assert status[1].startswith("error: not UTF-8 text: ")
    assert status[2] == "ok"


def test_gh_command(schwarz_path, capsys):
    code, out, err = run(
        capsys, "gh", schwarz_path,
        "--alpha0", str(4.0 * math.pi), "--D", "0.5")
    assert code == 0
    best = json.loads(out)
    code, out, err = run(
        capsys, "gh", schwarz_path,
        "--alpha0", str(4.0 * math.pi), "--D", "0.5",
        "--r-eps", str(best["r_eps"]))
    assert code == 0
    pinned = json.loads(out)
    assert pinned["total"] == best["total"]
    assert pinned["rho"] >= pinned["rho_prime"]


def test_sweep_csv_determinism(tmp_path, capsys):
    args = ("sweep", "--family", "schwarzschild", "--values", "1e-3,1e-4",
            "--alpha0", str(4.0 * math.pi), "--D", "0.5",
            "--epsilon", "0.5")
    code, out1, err = run(capsys, *args)
    assert code == 0
    code, out2, err = run(capsys, *args)
    assert out1 == out2
    header = out1.splitlines()[0].split(",")
    assert header[0] == "family"
    assert "well_depth" in header
    assert "status" in header
    assert len(out1.splitlines()) == 3
    out_path = tmp_path / "rows.csv"
    code, out3, err = run(capsys, *args, "--out", str(out_path))
    assert code == 0
    assert out3 == ""
    assert out_path.read_text(encoding="utf-8") == out1


def test_sweep_json_and_failed_rows(capsys):
    code, out, err = run(
        capsys, "sweep", "--family", "schwarzschild", "--values", "1e-3,-1",
        "--alpha0", str(4.0 * math.pi), "--D", "0.5", "--epsilon", "0.5",
        "--format", "json")
    assert code == 1  # the negative mass row fails, the sweep keeps going
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")


def test_a_far_cap_gives_finite_real_totals(tmp_path, capsys):
    # with 33 knots on the tail piece a cap of 1e300 gave a negative total,
    # whose quartic root made total_scalable complex
    path = tmp_path / "sch.json"
    write_profile(schwarzschild(3, 0.1), path)
    window = ("--alpha0", str(4.0 * math.pi), "--D", "0.5",
              "--epsilon", "0.5")
    totals = []
    for cap in ((), ("--r-cap", "1e300")):
        code, out, err = run(capsys, "certificate", str(path), *window, *cap)
        assert code == 0, err
        totals.append(json.loads(out)["total"])
    assert totals[1] == pytest.approx(totals[0], rel=1e-12, abs=0.0)
    code, out, err = run(capsys, "sweep", "--family", "schwarzschild",
                         "--values", "0.1", *window, "--r-cap", "1e300",
                         "--format", "json")
    assert code == 0, err
    (row,) = json.loads(out)
    assert row["status"] == "ok"
    for key in ("total", "total_scalable"):
        assert isinstance(row[key], float) and math.isfinite(row[key]), key
        assert row[key] > 0.0, key


def test_example_families_roundtrip(capsys):
    for family, extra in (("flat", ()),
                          ("schwarzschild", ("--mass", "0.2")),
                          ("deep-well", ("--delta", "0.05")),
                          ("stripes", ("--radii", "1,2,3,4"))):
        code, out, err = run(capsys, "example", family, *extra)
        assert code == 0, family
        profile = loads_profile(out)
        assert dumps_profile(profile) == out.rstrip("\n")


def test_example_feeds_validate(tmp_path, capsys):
    code, out, err = run(capsys, "example", "deep-well", "--delta", "0.02")
    path = tmp_path / "well.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "certificate")[0] == 2  # missing required args
    assert run(capsys, "no-such-command")[0] == 2
    code, out, err = run(capsys, "--help")
    assert code == 0


# exit codes as the README documents them: 2 for malformed input and bad
# argument values, 1 for every other domain failure
_EXIT_CODES = {
    errors.MassflatError: 1,
    errors.DomainError: 2,
    errors.RangeError: 2,
    errors.ProfileFormatError: 2,
    errors.InvalidProfileError: 1,
    errors.WindowOverflowError: 1,
    errors.QuadratureError: 1,
    errors.CertificateError: 1,
}


def _error_classes(cls):
    return {cls}.union(*(_error_classes(c) for c in cls.__subclasses__()))


def test_exit_code_table_names_every_error_class():
    assert _error_classes(errors.MassflatError) == set(_EXIT_CODES)


@pytest.mark.parametrize("cls", list(_EXIT_CODES),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_documented_code(cls, monkeypatch,
                                                          capsys):
    def fail(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(cli, "delta_budget", fail)
    code, out, err = run(capsys, "delta", "--epsilon", "0.5", "--D", "0.5",
                         "--alpha0", "1.0")
    assert code == _EXIT_CODES[cls]
    assert out == ""
    assert err == "error: boom\n"


def _write_doc(tmp_path, name, pieces, r_min):
    path = tmp_path / name
    path.write_text(json.dumps({"dimension": 3, "r_min": r_min,
                                "pieces": pieces}), encoding="utf-8")
    return str(path)


def test_no_environment_variable_loosens_the_checks(tmp_path, capsys,
                                                    monkeypatch):
    # the boundary mass 0.125 does not close the horizon at r_min = 0.5
    mismatch = _write_doc(tmp_path, "mismatch.json", [
        {"kind": "constant", "from": 0.5, "to": "inf",
         "params": {"value": 0.125}}], 0.5)
    # m_H jumps from 0 to 0.2 at r = 1
    jump = _write_doc(tmp_path, "jump.json", [
        {"kind": "constant", "from": 0.0, "to": 1.0, "params": {"value": 0.0}},
        {"kind": "constant", "from": 1.0, "to": "inf",
         "params": {"value": 0.2}}], 0.0)
    tube = ("--alpha0", str(4.0 * math.pi), "--D", "0.5", "--epsilon", "0.5")
    for value in ("nan", "inf", "1e-6"):
        monkeypatch.setenv("MASSFLAT_TOL", value)
        code, out, err = run(capsys, "validate", mismatch)
        assert code == 1, value
        assert json.loads(out)["valid"] is False
        code, out, err = run(capsys, "validate", jump)
        assert code == 1, value
        code, out, err = run(capsys, "certificate", jump, *tube)
        assert code == 1, value
        assert out == ""
        assert "joint/value" in err


def test_each_command_takes_only_the_options_it_reads(schwarz_path, capsys):
    tube = ("--alpha0", str(4.0 * math.pi), "--D", "0.5")
    sweep = ("sweep", "--family", "schwarzschild", "--values", "1e-3",
             *tube, "--epsilon", "0.5")
    for argv in (("validate", schwarz_path, "--format", "csv"),
                 ("validate", schwarz_path, "--seed", "1"),
                 ("describe", schwarz_path, "--mesh-h", "0.1"),
                 ("delta", *tube, "--epsilon", "0.5", "--format", "csv"),
                 ("gh", schwarz_path, *tube, "--mesh-h", "0.1"),
                 ("gh", schwarz_path, *tube, "--seed", "1"),
                 ("example", "flat", "--format", "text"),
                 ("example", "flat", "--format", "json"),
                 (*sweep, "--format", "text"),
                 (*sweep, "--seed", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
    code, out, err = run(capsys, "validate", schwarz_path, "--format", "text")
    assert code == 0
    assert out == "valid = True\n"
    code, out, err = run(capsys, "delta", *tube, "--epsilon", "0.5",
                         "--format", "text")
    assert code == 0
    assert "\ndelta = 1.27" in out


def test_start_up_imports_no_scipy(schwarz_path):
    # scipy is a test reference only: no command imports it, the sampled
    # embedding check included.  Nor does any import numpy.polynomial: the
    # quadrature rule is a hard-coded table
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    sampled = ["certificate", schwarz_path, "--alpha0", str(4.0 * math.pi),
               "--D", "0.5", "--epsilon", "0.5", "--sampled-cm",
               "--mesh-h", "0.1"]
    for argv in (["-c", "import massflat"],
                 ["-m", "massflat.cli", "validate", schwarz_path],
                 ["-m", "massflat.cli", *sampled]):
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        names = [line.rsplit("|", 1)[-1].strip()
                 for line in proc.stderr.splitlines()
                 if line.startswith("import time:")]
        assert "massflat.geometry" in names
        assert [n for n in names if n.split(".")[0] == "scipy"] == []
        assert [n for n in names
                if n.split(".")[:2] == ["numpy", "polynomial"]] == []


def test_no_module_of_the_package_imports_scipy():
    package = Path(cli.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks():
    """The README's ```sh blocks, each as its list of lines."""
    text = _README.read_text(encoding="utf-8")
    return [block.splitlines()
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)]


def _run_readme_line(line, capsys):
    """Run one README command line in-process: massflat's arguments, then
    an optional "> file" or "| grep 'text'".  Returns the lines it shows."""
    argv = shlex.split(line)
    assert argv[0] == "massflat", line
    sink = pattern = None
    if ">" in argv:
        sink = argv[argv.index(">") + 1]
        argv = argv[:argv.index(">")]
    if "|" in argv:
        assert argv[argv.index("|") + 1] == "grep", line
        pattern = argv[argv.index("|") + 2]
        argv = argv[:argv.index("|")]
    assert main(argv[1:]) == 0, line
    out = capsys.readouterr().out
    if sink is not None:
        Path(sink).write_text(out, encoding="utf-8")
        return []
    return [x for x in out.splitlines() if pattern is None or pattern in x]


def test_readme_commands_print_what_the_readme_shows(tmp_path, monkeypatch,
                                                     capsys):
    # every README command after a "$ " prompt prints the lines shown under
    # it: all of them, in order, where the README shows the whole output,
    # and the lines without "..." as a subsequence where it elides some.
    # The files they read come from the README's example commands.
    monkeypatch.chdir(tmp_path)
    blocks = _readme_blocks()
    for block in blocks:
        for line in block:
            if line.startswith("massflat example "):
                _run_readme_line(line, capsys)
    sessions = []
    for block in blocks:
        if block and block[0].startswith("$ "):
            for line in block:
                if line.startswith("$ "):
                    sessions.append((line[2:], []))
                else:
                    sessions[-1][1].append(line)
    assert [command.split()[1] for command, _ in sessions] == [
        "validate", "describe", "delta", "example", "certificate", "gh"]
    for command, shown in sessions:
        out = _run_readme_line(command, capsys)
        kept = [x for x in shown if "..." not in x]
        if kept == shown:
            assert out == shown, command
            continue
        at = iter(out)
        missing = [x for x in kept if x not in at]
        assert missing == [], (command, missing)
