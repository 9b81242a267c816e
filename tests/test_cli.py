"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import json
import math

import pytest

from massflat import cli, errors
from massflat.cli import main
from massflat.profiles import schwarzschild
from massflat.serialization import dumps_profile, loads_profile, write_profile


@pytest.fixture
def schwarz_path(tmp_path):
    path = tmp_path / "schwarz.json"
    write_profile(schwarzschild(3, 0.05), path)
    return str(path)


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
    assert "MASSFLAT_TOL" in out


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
