"""The four benchmark workloads: seeded inputs, one op each, output checks.

Each workload draws the inputs of op ``i`` from ``numpy.random.default_rng
([seed, 0, i])``, so the same seed gives the same inputs whatever the run
length, and the package receives only those numbers (and, for ``cli``, the
profile files written at set-up).  ``run`` calls the public API with its
defaults; ``check`` returns a list of problems, empty when the output is
right.

- ``sweep``: the paper's separation experiment, ``run_sweep("deep-well")``
  on three deltas.  Geometry queries and ``best_gh_bound`` do the work.
- ``mesh``: ``metric_embedding_check`` on a Schwarzschild tube at the CLI's
  default mesh spacing.  Dijkstra does the work.
- ``certify``: ``delta_budget``, validated ``ManifoldModel``s and
  ``flat_certificate`` on budget members and random spline profiles.
  Table building is heavy and queries are light.
- ``cli``: ``python -m massflat.cli`` as a subprocess, including rejected
  inputs.  Interpreter and import start-up is most of each call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import massflat as mf

SWEEP_ALPHA0 = math.pi / 100.0
SWEEP_D = 0.05
SWEEP_EPSILON = 0.02
SWEEP_WELL_DEPTH = 10.0     # run_sweep's default well_depth
MESH_R_CAP = 8.0
MESH_H = 0.02               # the CLI's default --mesh-h
CHILD_TIMEOUT_S = 60.0
REL = 1e-9


def _rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    """Generator for op ``i`` (stream 0) or for set-up inputs (stream 1)."""
    return np.random.default_rng([int(seed) % 2**64, stream, int(i)])


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def volume_problems(volumes: dict, bounds: dict) -> list:
    """Region volumes above their analytic bounds, when the bounds apply."""
    if bounds.get("delta_eff") is None:
        return []
    return [f"vol_{k}={v!r} exceeds its bound {bounds[k]!r}"
            for k, v in volumes.items()
            if not v <= bounds[k] * (1.0 + REL) + 1e-12]


def slack_problems(slack) -> list:
    return [f"budget condition {e['condition']} not ok" for e in slack
            if not e["ok"]]


# -- random admissible spline profiles ----------------------------------------

def spline_numbers(rng: np.random.Generator, dimension: int) -> dict:
    """Knots and values of a random admissible spline profile.

    Same draws as the test suite's ``random_spline_profile``: a constant
    head, a monotone spline clamped below 0.9 of the wall at the previous
    knot, a flat tail; about half the draws start on a boundary sphere.
    """
    m = int(dimension)
    r1 = 0.3 + 0.4 * rng.random()
    n_knot = int(rng.integers(4, 9))
    gaps = 0.2 + rng.random(n_knot - 1)
    knots = r1 + np.concatenate([[0.0], np.cumsum(gaps)])
    wall = 0.5 * knots ** (m - 2)
    if rng.random() < 0.5:
        r_min = (0.2 + 0.4 * rng.random()) * r1
        v0 = 0.5 * r_min ** (m - 2)
    else:
        r_min = 0.0
        v0 = 0.0
    values = np.empty(n_knot)
    values[0] = v = v0
    for k in range(1, n_knot):
        cap = 0.9 * wall[k - 1]
        v = min(v + 0.8 * rng.random() * max(cap - v, 0.0), cap)
        values[k] = v
    return {"dimension": m, "r_min": float(r_min),
            "knots": [float(x) for x in knots],
            "values": [float(x) for x in values]}


def spline_profile(spec: dict) -> mf.HawkingProfile:
    """Build the profile from ``spline_numbers`` with the package's pieces."""
    knots = np.array(spec["knots"])
    values = np.array(spec["values"])
    slopes = mf.monotone_slopes(knots, values)
    # the constant head and tail meet the spline with slope zero, which is
    # always inside the Fritsch-Carlson monotone region
    slopes[0] = 0.0
    slopes[-1] = 0.0
    pieces = (
        mf.ConstantPiece(spec["r_min"], float(knots[0]), float(values[0])),
        mf.CubicSplinePiece(knots=[float(x) for x in knots],
                            values=[float(x) for x in values],
                            slopes=[float(x) for x in slopes]),
        mf.ConstantPiece(float(knots[-1]), math.inf, float(values[-1])),
    )
    return mf.HawkingProfile(dimension=spec["dimension"], r_min=spec["r_min"],
                             pieces=pieces)


# -- in-process workloads ------------------------------------------------------

class Sweep:
    """Deep-well sweep rows: flat bounds shrink, GH bounds stay at the depth."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        deltas = 10.0 ** _rng(self.seed, i).uniform(-6.0, -2.0, 3)
        return {"deltas": [float(d) for d in deltas]}

    def run(self, spec: dict):
        return mf.run_sweep("deep-well", spec["deltas"], alpha0=SWEEP_ALPHA0,
                            D=SWEEP_D, epsilon=SWEEP_EPSILON)

    def check(self, spec: dict, rows) -> list:
        if [row["parameter"] for row in rows] != spec["deltas"]:
            return ["rows do not match the deltas in input order"]
        bad = []
        for row in rows:
            tag = f"delta={row['parameter']!r}"
            if row["status"] != "ok":
                bad.append(f"{tag}: status {row['status']!r}")
                continue
            if not row["gh_total"] >= SWEEP_WELL_DEPTH - REL:
                bad.append(f"{tag}: gh_total {row['gh_total']!r} below the "
                           f"well depth {SWEEP_WELL_DEPTH}")
            for key in ("rho", "rho_prime", "total"):
                if not _finite(row[key]):
                    bad.append(f"{tag}: {key} = {row[key]!r} is not finite")
        return bad


def schwarzschild_s(r: float, M: float) -> float:
    """Closed-form radial arclength of 3-D Schwarzschild from the horizon."""
    return math.sqrt(r * (r - 2.0 * M)) + 2.0 * M * math.acosh(
        math.sqrt(r / (2.0 * M)))


def schwarzschild_F(r: float, M: float) -> float:
    """Closed-form graph height of 3-D Schwarzschild (Flamm's paraboloid)."""
    return math.sqrt(8.0 * M * (r - 2.0 * M))


class Mesh:
    """Sampled embedding check of a Schwarzschild tube on a Dijkstra mesh."""

    name = "mesh"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        return {"M": float(rng.uniform(0.05, 0.15)),
                "check_seed": int(rng.integers(0, 2**31))}

    def run(self, spec: dict):
        model = mf.ManifoldModel(mf.schwarzschild(3, spec["M"]), MESH_R_CAP)
        window = mf.tubular_window(model, 4.0 * math.pi, 0.5)
        report = mf.metric_embedding_check(model, window, mesh_h=MESH_H,
                                           seed=spec["check_seed"])
        return model, window, report

    def check(self, spec: dict, result) -> list:
        model, window, report = result
        bad = []
        if report["violations"] != 0:
            bad.append(f"{report['violations']} embedding violations")
        M, r0 = spec["M"], window.r0
        for label, got, ref in (("s", model.s(r0), schwarzschild_s(r0, M)),
                                ("F", model.F(r0), schwarzschild_F(r0, M))):
            if not abs(float(got) - ref) <= REL * abs(ref):
                bad.append(f"{label}(r0) = {float(got)!r}, closed form {ref!r}")
        return bad


class Certify:
    """Budgets, validated models and flat certificates on a family mix.

    One op is POINTS points (epsilon, D, alpha0) of the acceptance lattice's
    kind, each with its budget and the three budget members certified under
    it, plus SPLINES random spline profiles, each with its own budget:
    twenty certificates.  The machine stalls single ops for tens of
    milliseconds at random; with five certificates per op (about 40 ms) such
    stalls set the tail, which then spread 0.38 between runs.
    """

    name = "certify"
    MEMBERS = ("schwarzschild", "deep-well", "stripes")
    POINTS = 4
    SPLINES = 8

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        points = [{"epsilon": float(rng.uniform(0.5, 1.0)),
                   "D": float(rng.uniform(0.5, 2.0)),
                   "alpha0": float(rng.uniform(4.0, 16.0)) * math.pi}
                  for _ in range(self.POINTS)]
        splines = []
        for _ in range(self.SPLINES):
            m = int(rng.integers(3, 6))
            r0 = float(rng.uniform(0.8, 3.0))
            splines.append({"m": m, "epsilon": float(rng.uniform(0.1, 1.0)),
                            "D": float(rng.uniform(0.1, 1.0)),
                            "alpha0": mf.unit_sphere_area(m) * r0 ** (m - 1),
                            "spline": spline_numbers(rng, m)})
        return {"points": points, "splines": splines}

    @staticmethod
    def _certify(profile, m, job):
        r0 = (job["alpha0"] / mf.unit_sphere_area(m)) ** (1.0 / (m - 1))
        model = mf.ManifoldModel(profile, 4.0 * (r0 + job["D"]))
        return mf.flat_certificate(model, job["alpha0"], job["D"],
                                   job["epsilon"])

    def run(self, spec: dict) -> list:
        """(family, job, budget, profile, certificate) per certificate."""
        out = []
        for p in spec["points"]:
            budget = mf.delta_budget(p["epsilon"], p["D"], p["alpha0"], 3)
            d = budget.delta
            members = (mf.schwarzschild(3, 0.5 * d),
                       mf.deep_well(3, 0.9 * d, p["alpha0"], 10.0),
                       mf.stripes((1.0, 2.0), d))
            for family, profile in zip(self.MEMBERS, members):
                out.append((family, p, budget, profile,
                            self._certify(profile, 3, p)))
        for job in spec["splines"]:
            m = job["m"]
            budget = mf.delta_budget(job["epsilon"], job["D"], job["alpha0"], m)
            profile = spline_profile(job["spline"])
            out.append(("spline", job, budget, profile,
                        self._certify(profile, m, job)))
        return out

    def check(self, spec: dict, result) -> list:
        bad = []
        if len(result) != (len(self.MEMBERS) * len(spec["points"])
                           + len(spec["splines"])):
            bad.append(f"{len(result)} certificates")
        for family, job, budget, profile, cert in result:
            found = slack_problems(budget.slack)
            found += volume_problems(cert.volumes(), cert.bounds)
            # +inf is a valid bound: a window that reaches a minimal
            # boundary sphere sees an infinite graph slope there
            if not cert.total >= 0.0:
                found.append(f"certificate total {cert.total!r}")
            if family != "spline":
                if not profile.adm_mass < budget.delta:
                    found.append(f"mass {profile.adm_mass!r} not below "
                                 f"the budget {budget.delta!r}")
                if not cert.total < job["epsilon"]:
                    found.append(f"total {cert.total!r} not below "
                                 f"epsilon {job['epsilon']!r}")
            bad += [f"{family}: {msg}" for msg in found]
        return bad


# -- the command line, as a subprocess -----------------------------------------

def _cli_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("MASSFLAT_TOL", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv, cwd: Path, env: dict, out_path: Path, err_path: Path):
    """Run a child to completion: exit code, stdout, stderr."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return code, out_path.read_bytes(), err_path.read_bytes()


def split_importtime(stderr: bytes):
    """Separate ``-X importtime`` lines from the program's own stderr.

    Returns (program stderr, total import seconds, scipy import seconds);
    both totals sum the ``self`` column, so nothing is counted twice.
    """
    rest, total_us, scipy_us = [], 0, 0
    for line in stderr.decode("utf-8", "replace").splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us = int(fields[0])
        name = fields[2].strip()
        total_us += self_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return "".join(rest).encode("utf-8"), total_us / 1e6, scipy_us / 1e6


class Cli:
    """The CLI as a user runs it, good and rejected inputs in rotation."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.env = _cli_env(Path(root))
        self.seen = {}              # argv -> (code, stdout) of its first run
        self.peak_rss_mb = 0.0
        self.traced = False
        self.trace_parts = []
        self.import_s = self.import_scipy_s = 0.0
        self.exit_nonzero = 0
        self.crashes = 0
        self.files = self._write_profiles()
        self.rotation = self._rotation()

    def _write_profiles(self) -> dict:
        rng = _rng(self.seed, 0, stream=1)
        M = float(rng.uniform(0.02, 0.2))
        delta = float(10.0 ** rng.uniform(-4.0, -2.0))
        spline = spline_numbers(rng, 3)
        r_bad = float(rng.uniform(0.3, 0.8))
        cut = float(rng.uniform(0.2, 0.8))
        self.params = {"M": M, "delta": delta,
                       "epsilon": float(rng.uniform(0.3, 1.0)),
                       "D": float(rng.uniform(0.2, 0.8)),
                       "alpha0": float(rng.uniform(4.0, 9.0)) * math.pi}
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {"schwarzschild": mf.schwarzschild(3, M),
                 "deep-well": mf.deep_well(3, delta, 4.0 * math.pi, 10.0),
                 "spline": spline_profile(spline)}
        paths = {}
        for name, profile in files.items():
            paths[name] = self.workdir / f"{name}.json"
            mf.write_profile(profile, paths[name])
        # a declared boundary sphere whose mass does not close it: fails
        # validation (boundary/horizon-mismatch)
        paths["inadmissible"] = self.workdir / "inadmissible.json"
        paths["inadmissible"].write_text(mf.canonical_json({
            "dimension": 3, "r_min": r_bad,
            "pieces": [{"kind": "constant", "from": r_bad, "to": "inf",
                        "params": {"value": 0.25 * r_bad}}]}) + "\n",
            encoding="utf-8")
        # a strict prefix of a JSON object never parses
        text = paths["schwarzschild"].read_text(encoding="utf-8")
        paths["malformed"] = self.workdir / "malformed.json"
        paths["malformed"].write_text(text[:max(1, int(cut * len(text)))],
                                      encoding="utf-8")
        return paths

    def _rotation(self) -> list:
        """(argv, expected exit code, stdout is JSON) for each op in turn."""
        f = {k: str(v) for k, v in self.files.items()}
        p = self.params
        tube = ["--alpha0", repr(p["alpha0"]), "--D", repr(p["D"])]
        cert = tube + ["--epsilon", repr(p["epsilon"])]
        r0 = math.sqrt(p["alpha0"] / (4.0 * math.pi))
        short_cap = repr(r0 + 0.25 * p["D"])
        return [
            (["validate", f["schwarzschild"]], 0, True),
            (["describe", f["schwarzschild"], "--r-cap", "8.0"], 0, True),
            (["certificate", f["schwarzschild"]] + cert, 0, True),
            (["gh", f["deep-well"]] + tube, 0, True),
            (["delta"] + cert, 0, True),
            (["example", "deep-well", "--delta", repr(p["delta"])], 0, True),
            (["validate", f["spline"]], 0, True),
            (["certificate", f["spline"]] + cert, 0, True),
            (["validate", f["inadmissible"]], 1, True),
            (["certificate", f["inadmissible"]] + cert, 1, False),
            (["validate", f["malformed"]], 2, False),
            (["certificate", f["schwarzschild"]] + cert
             + ["--r-cap", short_cap], 1, False),
        ]

    def inputs(self, i: int) -> dict:
        argv, code, is_json = self.rotation[i % len(self.rotation)]
        return {"argv": argv, "code": code, "json": is_json}

    def run(self, spec: dict):
        if self.traced:
            part = self.workdir / "trace.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(Path(__file__).with_name("cli_shim.py")), str(part)]
        else:
            rss = self.workdir / "rss"
            cmd = [sys.executable,
                   str(Path(__file__).with_name("cli_run.py")), str(rss)]
        code, out, err = run_child(
            cmd + spec["argv"], self.workdir, self.env,
            self.workdir / "stdout", self.workdir / "stderr")
        if not self.traced and rss.exists():
            self.peak_rss_mb = max(self.peak_rss_mb, float(rss.read_text()))
            rss.unlink()
        if code not in (0, 1, 2):
            self.crashes += 1
        if code != 0:
            self.exit_nonzero += 1
        if self.traced:
            err, imp, imp_scipy = split_importtime(err)
            self.import_s += imp
            self.import_scipy_s += imp_scipy
            if part.exists():
                self.trace_parts.append(json.loads(part.read_text()))
                part.unlink()
        return code, out, err

    def check(self, spec: dict, result) -> list:
        code, out, err = result
        argv = tuple(spec["argv"])
        bad = []
        if code != spec["code"]:
            bad.append(f"exit code {code}, expected {spec['code']}: "
                       f"{err.decode('utf-8', 'replace')[-300:]}")
        first = self.seen.setdefault(argv, (code, out))
        if first != (code, out):
            bad.append("output differs from the first run of the same argv")
        if not spec["json"]:
            if out:
                bad.append("a rejected input printed to stdout")
            if not err.startswith(b"error: "):
                bad.append("a rejected input gave no error message")
            return bad
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return bad + [f"stdout is not JSON: {exc}"]
        return bad + self._semantic(argv[0], spec, doc)

    def _semantic(self, command: str, spec: dict, doc) -> list:
        p = self.params
        if command == "validate":
            return ([] if doc.get("valid") is (spec["code"] == 0)
                    else [f"valid = {doc.get('valid')!r}"])
        if command == "describe":
            ok = doc["adm_mass"] == p["M"] and doc["model"]["r_cap"] == 8.0
            return [] if ok else ["describe reports the wrong profile"]
        if command == "certificate":
            vols = {k[len("vol_"):]: v for k, v in doc.items()
                    if k.startswith("vol_")}
            return (volume_problems(vols, doc["bounds"])
                    + slack_problems(doc["delta_budget"]["slack"]))
        if command == "gh":
            return [] if _finite(doc["total"]) and doc["total"] > 0 \
                else [f"gh total {doc['total']!r}"]
        if command == "delta":
            return ([] if doc["delta"] > 0 else ["empty budget"]) \
                + slack_problems(doc["slack"])
        if command == "example":
            adm = mf.loads_profile(json.dumps(doc)).adm_mass
            return [] if adm <= 0.5 * p["delta"] * (1 + REL) \
                else [f"example mass {adm!r} above delta/2"]
        return [f"no check for {command}"]


WORKLOADS = {w.name: w for w in (Sweep, Mesh, Certify, Cli)}
