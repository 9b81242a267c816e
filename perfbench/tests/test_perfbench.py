"""Tests of the benchmark itself: tail rule, seeding, names, checkers, tracer.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import massflat as mf  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- the tail-percentile rule ---------------------------------------------------

def test_tail_has_exactly_ten_samples_above_it():
    for n in (11, 12, 37, 100, 2500):
        xs = [float(k) for k in range(n)][::-1]
        value, pct = run.tail(xs)
        assert sum(x > value for x in xs) == run.TAIL_BEYOND
        assert pct == pytest.approx(100.0 * (n - run.TAIL_BEYOND) / n)


def test_tail_picks_the_highest_such_percentile():
    value, pct = run.tail(range(1, 101))
    assert (value, pct) == (90, 90.0)


def test_tail_needs_more_than_ten_samples():
    value, pct = run.tail([1.0] * 10)
    assert math.isnan(value) and math.isnan(pct)


def test_loop_makes_enough_ops_for_the_tail():
    class Instant:
        def inputs(self, i):
            return i

        def run(self, spec):
            return spec

        def check(self, spec, result):
            return [] if result == spec else ["wrong"]

    res = run.Loop(Instant()).run(0.0, min_ops=run.TAIL_BEYOND + 1)
    assert len(res["latencies"]) == res["passed"] == run.TAIL_BEYOND + 1
    assert not math.isnan(run.tail(res["latencies"])[0])


# -- the reference speed ----------------------------------------------------------

def test_slowness_is_the_reference_median_over_its_nominal_time():
    assert run.slowness([run.REF_S] * 3) == pytest.approx(1.0)
    samples = [2.0 * run.REF_S, 3.0 * run.REF_S, 100.0 * run.REF_S]
    assert run.slowness(samples) == pytest.approx(3.0)


def test_reference_task_does_the_same_work_every_time():
    first = run._ref_data().copy()
    dt = run.reference_task()
    assert 0.0 < dt < 10.0
    assert (run._ref_data() == first).all()


def test_loop_samples_the_reference_and_leaves_it_out_of_wall():
    class Instant:
        def inputs(self, i):
            return i

        def run(self, spec):
            return spec

        def check(self, spec, result):
            return []

    loop = run.Loop(Instant())
    t0 = time.perf_counter()
    res = loop.run(0.5)
    elapsed = time.perf_counter() - t0
    # one sample when the loop starts, then one per REF_EVERY_S
    assert abs(len(loop.ref) - (1 + 0.5 / run.REF_EVERY_S)) <= 1
    assert res["wall"] == pytest.approx(elapsed - sum(loop.ref), abs=0.05)


# -- seeded inputs ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["sweep", "mesh", "certify", "cli"])
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def generated(seed, where):
        wl = cls(seed, tmp_path / where, ROOT)
        text = json.dumps([wl.inputs(i) for i in range(40)], sort_keys=True)
        if name == "cli":
            # the rotation names the files; compare their bytes instead
            text = json.dumps(sorted(p.name for p in wl.files.values()))
            files = b"".join(p.read_bytes() for p in sorted(wl.files.values()))
            return text.encode() + files
        return text.encode()

    assert generated(7, "a") == generated(7, "b")
    assert generated(7, "a") != generated(8, "c")


def test_certify_draws_every_kind_of_spline():
    wl = workloads.Certify(3, None, ROOT)
    splines = [job["spline"] for i in range(60)
               for job in wl.inputs(i)["splines"]]
    assert {s["dimension"] for s in splines} == {3, 4, 5}
    assert any(s["r_min"] > 0 for s in splines)
    assert any(s["r_min"] == 0 for s in splines)


# -- names ---------------------------------------------------------------------------

def test_metric_names_and_benchmark_file_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.NAMES)
    for name in list(e2e) + list(layer) + list(run.NAMES):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_layer_reports_errors():
    for layer in tracing.LAYERS:
        assert f"{layer}.errors" in run.PER_LAYER


# -- checkers flag planted wrong answers -----------------------------------------

def test_sweep_checker():
    wl = workloads.Sweep(1, None, ROOT)
    spec = {"deltas": [1e-3, 1e-5]}
    rows = wl.run(spec)
    assert wl.check(spec, rows) == []
    low = [dict(rows[0], gh_total=9.0), rows[1]]
    assert wl.check(spec, low)
    broken = [rows[0], dict(rows[1], rho=math.nan)]
    assert wl.check(spec, broken)
    failed = [rows[0], dict(rows[1], status="error: planted")]
    assert wl.check(spec, failed)
    assert wl.check({"deltas": spec["deltas"][::-1]}, rows)


def test_mesh_checker():
    wl = workloads.Mesh(1, None, ROOT)
    spec = {"M": 0.1, "check_seed": 0}
    model = mf.ManifoldModel(mf.schwarzschild(3, 0.1), workloads.MESH_R_CAP)
    window = mf.tubular_window(model, 4.0 * math.pi, 0.5)
    assert wl.check(spec, (model, window, {"violations": 0})) == []
    assert wl.check(spec, (model, window, {"violations": 1}))
    other = mf.ManifoldModel(mf.schwarzschild(3, 0.1 * (1 + 1e-6)),
                             workloads.MESH_R_CAP)
    assert wl.check(spec, (other, window, {"violations": 0}))


def test_schwarzschild_closed_forms_match_the_model():
    model = mf.ManifoldModel(mf.schwarzschild(3, 0.07), 8.0)
    for r in (0.2, 1.0, 5.0):
        assert float(model.s(r)) == pytest.approx(
            workloads.schwarzschild_s(r, 0.07), rel=1e-12)
        assert float(model.F(r)) == pytest.approx(
            workloads.schwarzschild_F(r, 0.07), rel=1e-12)


def test_certify_checker():
    wl = workloads.Certify(5, None, ROOT)
    spec = wl.inputs(0)
    result = wl.run(spec)
    assert [r[0] for r in result] == (["schwarzschild", "deep-well", "stripes"]
                                      * wl.POINTS + ["spline"] * wl.SPLINES)
    assert wl.check(spec, result) == []

    def planted(k, **changes):
        family, job, budget, profile, cert = result[k]
        budget = dataclasses.replace(budget, **changes.pop("budget", {}))
        cert = dataclasses.replace(cert, **changes)
        return result[:k] + [(family, job, budget, profile, cert)] + result[k + 1:]

    cert = result[0][4]
    assert cert.bounds["delta_eff"] is not None
    assert wl.check(spec, planted(0, vol_A0=2.0 * cert.bounds["A0"] + 1e-9))
    assert wl.check(spec, planted(1, total=spec["points"][0]["epsilon"]))
    k = 3 * wl.POINTS
    assert wl.check(spec, planted(k, total=math.nan))
    slack = [dict(e) for e in result[k][2].slack]
    slack[2]["ok"] = False
    assert wl.check(spec, planted(k, budget={"slack": slack}))
    assert wl.check(spec, result[:-1])


def test_cli_checker(tmp_path):
    wl = workloads.Cli(2, tmp_path, ROOT)
    spec = next(wl.inputs(i) for i in range(12)
                if wl.inputs(i)["argv"][0] == "delta")
    result = wl.run(spec)
    assert result[0] == 0
    assert wl.check(spec, result) == []
    assert wl.check(spec, result) == []          # a repeat, same bytes
    code, out, err = result
    changed = out.replace(b"1", b"2", 1)
    assert changed != out
    assert wl.check(spec, (code, changed, err))
    assert wl.check(spec, (1, out, err))
    assert wl.check(spec, (code, b"not json", err))


def test_cli_checker_expects_rejections(tmp_path):
    wl = workloads.Cli(2, tmp_path, ROOT)
    rejected = [wl.inputs(i) for i in range(12) if wl.inputs(i)["code"] != 0]
    assert sorted(s["code"] for s in rejected) == [1, 1, 1, 2]
    malformed = next(s for s in rejected if s["code"] == 2)
    assert wl.check(malformed, (2, b"", b"error: not valid JSON")) == []
    assert wl.check(malformed, (0, b"", b"error: not valid JSON"))
    assert wl.check(malformed, (2, b"{}", b"error: not valid JSON"))


def test_split_importtime():
    err = (b"import time: self [us] | cumulative | imported package\n"
           b"import time:       100 |        100 |   numpy.core\n"
           b"import time:       250 |        350 | scipy.sparse\n"
           b"error: boom\n"
           b"import time:        50 |        400 | scipy\n")
    rest, total, scipy = workloads.split_importtime(err)
    assert rest == b"error: boom\n"
    assert total == pytest.approx(400e-6)
    assert scipy == pytest.approx(300e-6)


# -- the tracer ---------------------------------------------------------------------

def test_tracer_counts_without_changing_results():
    model = mf.ManifoldModel(mf.schwarzschild(3, 0.1), 8.0)
    window = mf.tubular_window(model, 4.0 * math.pi, 0.5)
    before = mf.metric_embedding_check(model, window, mesh_h=0.1, seed=1)

    tracer = tracing.Tracer()
    tracer.hook_dijkstra()
    tracer.install()
    tracer.enabled = True
    try:
        model2 = mf.ManifoldModel(mf.schwarzschild(3, 0.1), 8.0)
        after = mf.metric_embedding_check(model2, window, mesh_h=0.1, seed=1)
    finally:
        tracer.enabled = False
    assert after == before
    values = tracing.layer_metrics(tracer.raw(), 1)
    assert values["geometry.build.calls"] == 1
    assert values["mesh.dijkstra.calls"] == values["mesh.dijkstra.sources"] > 0
    assert 0 < values["mesh.dijkstra.useful_frac"] < 1
    assert values["embedding.check.busy_s"] >= values["mesh.dijkstra.busy_s"] > 0
    assert values["geometry.r_of_s.newton_steps"] > 0
    for layer in tracing.LAYERS:
        assert values[f"{layer}.errors"] == 0
