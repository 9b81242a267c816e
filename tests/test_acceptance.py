"""End-to-end acceptance checks.

One test per stated guarantee of the library, each printing a single
pass/fail line with its runtime so the suite log doubles as a report.
Shared heavyweight artifacts (the random profile batch, the budget lattice
certificates, the separation sweep) are memoized at module level because
later checks reuse the exact objects earlier ones certified.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from massflat.certificates import delta_budget, flat_certificate
from massflat.embedding import (
    annulus_distance,
    embedding_constant_bound,
    metric_embedding_check,
    q_slope,
    tube_distance,
)
from massflat.geometry import ManifoldModel, TubularWindow, tubular_window
from massflat.profiles import (
    deep_well,
    flat,
    schwarzschild,
    stripes,
    unit_sphere_area,
    validate,
)
from massflat.sweeps import run_sweep

from util import random_spline_profile

_CACHE: dict = {}

LATTICE_EPSILONS = (0.5, 1.0)
LATTICE_WIDTHS = (0.5, 2.0)
LATTICE_AREAS = (4.0 * math.pi, 16.0 * math.pi)

SWEEP_ALPHA0 = math.pi / 100.0
SWEEP_D = 0.05
SWEEP_EPSILON = 0.02
SWEEP_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


_CONSOLE = None


@pytest.fixture(autouse=True)
def _live_console(capsys):
    # report lines bypass capture so a plain pytest run still shows them
    global _CONSOLE
    _CONSOLE = capsys
    try:
        yield
    finally:
        _CONSOLE = None


def _report(num: int, label: str, t0: float, limit, failures) -> None:
    dt = time.perf_counter() - t0
    if limit is not None and dt > limit:
        failures.append(f"runtime {dt:.2f} s exceeds the {limit:.0f} s budget")
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:2d} {label:<44s} {status} ({dt:7.2f} s)"
    if _CONSOLE is not None:
        with _CONSOLE.disabled():
            print(line)
    else:
        print(line)
    assert not failures, failures[:8]


def _random_models():
    """Twenty seeded random admissible spline profiles with their models."""
    if "random" not in _CACHE:
        rng = np.random.default_rng(2024)
        out = []
        for k in range(20):
            p = random_spline_profile(rng, 3 + k % 3)
            r_cap = float(p.pieces[1].knots[-1] + 3.0)
            out.append((p, ManifoldModel(p, r_cap)))
        _CACHE["random"] = out
    return _CACHE["random"]


def _lattice_certificates():
    """Budgets and member certificates over the (epsilon, D, alpha0) grid."""
    if "lattice" not in _CACHE:
        omega = unit_sphere_area(3)
        points = []
        for eps in LATTICE_EPSILONS:
            for D in LATTICE_WIDTHS:
                for alpha0 in LATTICE_AREAS:
                    budget = delta_budget(eps, D, alpha0, 3)
                    d = budget.delta
                    r0 = (alpha0 / omega) ** 0.5
                    r_cap = 4.0 * (r0 + D)
                    members = []
                    for name, p in (
                            ("schwarzschild", schwarzschild(3, 0.5 * d)),
                            ("deep-well", deep_well(3, 0.9 * d, alpha0, 10.0)),
                            ("stripes", stripes((1.0, 2.0), d))):
                        model = ManifoldModel(p, r_cap)
                        cert = flat_certificate(model, alpha0, D, eps)
                        members.append((name, p, cert))
                    points.append({"epsilon": eps, "D": D, "alpha0": alpha0,
                                   "budget": budget, "members": members})
        _CACHE["lattice"] = points
    return _CACHE["lattice"]


def _separation_sweep():
    """Deep-well sweep rows plus the certificates behind them."""
    if "sweep" not in _CACHE:
        rows = run_sweep("deep-well", list(SWEEP_DELTAS), alpha0=SWEEP_ALPHA0,
                         D=SWEEP_D, epsilon=SWEEP_EPSILON)
        omega = unit_sphere_area(3)
        r0 = (SWEEP_ALPHA0 / omega) ** 0.5
        certs = []
        for d in SWEEP_DELTAS:
            model = ManifoldModel(deep_well(3, d, SWEEP_ALPHA0, 10.0),
                                  4.0 * (r0 + SWEEP_D))
            certs.append(flat_certificate(model, SWEEP_ALPHA0, SWEEP_D,
                                          SWEEP_EPSILON))
        _CACHE["sweep"] = (rows, certs)
    return _CACHE["sweep"]


def test_criterion_01_closed_form_reconstruction():
    t0 = time.perf_counter()
    failures = []
    for mass in (0.01, 0.1, 1.0):
        model = ManifoldModel(schwarzschild(3, mass), 10.0)
        rs = np.linspace(1.01 * model.r_min, 10.0, 400)
        got = np.asarray(model.F(rs))
        ref = 2.0 * np.sqrt(2.0 * mass * (rs - 2.0 * mass))
        rel = np.max(np.abs(got - ref) / ref)
        if rel > 1e-8:
            failures.append(f"mass {mass}: graph height off by {rel:.2e}")
    _report(1, "closed-form graph reconstruction", t0, 1.0, failures)


def test_criterion_02_mass_roundtrip_from_slope():
    t0 = time.perf_counter()
    failures = []
    for k, (p, model) in enumerate(_random_models()):
        span = model.r_cap - model.r_min
        rs = model.r_min + span * np.linspace(1e-4, 1.0, 200)
        fp = np.asarray(model.f_prime(rs))
        xi = rs ** (model.dimension - 2)
        back = xi * fp**2 / (2.0 * (1.0 + fp**2))
        ref = np.asarray(p.mass(rs))
        err = np.max(np.abs(back - ref) / np.maximum(ref, 1e-300))
        if err > 1e-8:
            failures.append(f"profile {k}: slope inversion off by {err:.2e}")
        # independent route: finite differences of the tabulated height,
        # sampled mid-interval so the stencil never straddles a knot (the
        # slope is only C0 there and the high-order stencil loses accuracy)
        knots = np.asarray(p.pieces[1].knots, dtype=float)
        edges = np.concatenate([knots, [model.r_cap]])
        for a, b in zip(edges[:-1], edges[1:]):
            r = 0.5 * (a + b)
            h = min(1e-3 * span, 0.15 * (b - a))
            fd = (8.0 * (float(model.F(r + h)) - float(model.F(r - h)))
                  - (float(model.F(r + 2 * h)) - float(model.F(r - 2 * h)))
                  ) / (12.0 * h)
            fp_r = float(model.f_prime(r))
            if abs(fd - fp_r) > 1e-6 * max(1.0, abs(fp_r)):
                failures.append(
                    f"profile {k}: tabulated height disagrees with the "
                    f"slope at r={r:.4f} ({fd:.3e} vs {fp_r:.3e})")
                break
    _report(2, "Hawking mass round-trip from the slope", t0, 10.0, failures)


def test_criterion_03_curvature_sign_agreement():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(303)
    positives = 0
    for k, (p, model) in enumerate(_random_models()):
        span = model.r_cap - model.r_min
        rs = model.r_min + span * rng.uniform(1e-3, 1.0, 500)
        q = model.quantities(rs)
        mps, curvs = q["m_H_prime"], q["R"]
        scale_m = max(np.max(np.abs(mps)), 1e-300)
        scale_r = max(np.max(np.abs(curvs)), 1e-300)
        sgn_m = np.where(np.abs(mps) <= 1e-8 * scale_m, 0, np.sign(mps))
        sgn_r = np.where(np.abs(curvs) <= 1e-8 * scale_r, 0, np.sign(curvs))
        opposite = int(np.sum(sgn_m * sgn_r < 0))
        if opposite:
            failures.append(f"profile {k}: {opposite} points with opposite "
                            "signs of m_H' and R")
        if np.min(mps) < -1e-8 * scale_m or np.min(curvs) < -1e-8 * scale_r:
            failures.append(f"profile {k}: negative slope or curvature on an "
                            "admissible profile")
        positives += int(np.sum((sgn_m > 0) & (sgn_r > 0)))
    if positives < 1000:
        failures.append(f"only {positives} strictly positive agreements; "
                        "the check is nearly vacuous")
    _report(3, "monotonicity/curvature sign agreement", t0, 10.0, failures)


def test_criterion_04_stripe_sphere_fit():
    t0 = time.perf_counter()
    failures = []
    p = stripes((1.0, 2.0), 0.1)
    model = ManifoldModel(p, 4.0)
    stripe = p.pieces[1]
    curvature = 2.0 * stripe.coefficient
    rs = np.linspace(stripe.r_lo + 1e-9, stripe.r_hi - 1e-9, 257)
    fs = np.asarray(model.F(rs))
    # the stripe graph is a circular arc: fit the center height and check
    # the squared-radius residual pointwise
    zeta = float(np.mean(fs + np.sqrt(1.0 / curvature - rs**2)))
    residual = np.max(np.abs((fs - zeta) ** 2 + rs**2 - 1.0 / curvature))
    if residual >= 1e-6:
        failures.append(f"circle residual {residual:.2e} >= 1e-6")
    _report(4, "stripe profiles trace spheres", t0, 5.0, failures)


def test_criterion_05_slope_sandwich_and_r_min_bound():
    t0 = time.perf_counter()
    failures = []
    extras = [flat(3), schwarzschild(3, 0.01), schwarzschild(3, 0.1),
              schwarzschild(3, 1.0), deep_well(3, 0.05, 4.0 * math.pi, 1.0),
              stripes((1.0, 2.0, 3.0, 4.0), 0.1)]
    batch = list(_random_models()) + [
        (p, ManifoldModel(p, float(2.5 * ((2.0 * p.adm_mass) + 2.0))))
        for p in extras]
    for k, (p, model) in enumerate(batch):
        m = p.dimension
        adm = p.adm_mass
        horizon_scale = (2.0 * adm) ** (1.0 / (m - 2)) if adm > 0 else 0.0
        if p.r_min > horizon_scale + 1e-9:
            failures.append(f"profile {k}: r_min {p.r_min} above the horizon "
                            f"scale {horizon_scale}")
        r1 = model.r_min + 0.25 * (model.r_cap - model.r_min)
        m1 = float(p.mass(r1))
        lo = max(r1, horizon_scale) * (1.0 + 1e-9)
        n = max(8, int(math.ceil(256 * math.log10(model.r_cap / lo))))
        rs = np.geomspace(lo, model.r_cap, n)
        fp = np.asarray(model.f_prime(rs))
        lower = np.array([q_slope(m1, r, m) for r in rs])
        upper = np.array([q_slope(adm, r, m) for r in rs])
        if np.any(fp < lower - 1e-9 * np.maximum(1.0, lower)):
            failures.append(f"profile {k}: slope drops below the sandwich")
        if np.any(fp > upper + 1e-9 * np.maximum(1.0, upper)):
            failures.append(f"profile {k}: slope exceeds the sandwich")
    for mass in (0.01, 0.1, 1.0):
        p = schwarzschild(3, mass)
        if abs(p.r_min - 2.0 * mass) > 1e-12 * max(1.0, 2.0 * mass):
            failures.append(f"schwarzschild {mass}: r_min misses 2 m_ADM")
    _report(5, "slope sandwich and r_min bound", t0, None, failures)


def test_criterion_06_mesh_oracle_on_a_deep_well():
    # exact tube distances between nodes of a mesh of spacing h
    t0 = time.perf_counter()
    failures = []
    model = ManifoldModel(deep_well(3, 0.2, 4.0 * math.pi, 1.0), 8.0)
    r_a, r_b = 0.24, 0.9
    h = 1e-2
    consts = embedding_constant_bound(model, r_a, r_b)

    s_a, s_b = float(model.s(r_a)), float(model.s(r_b))
    # the mesh of the sampled embedding check: powers of two of steps
    n_s = 1 + 2 ** math.ceil(math.log2((s_b - s_a) / h))
    n_theta = 2 ** math.ceil(math.log2(2.0 * math.pi * r_b / h))
    rng = np.random.default_rng(11)
    n_nodes = n_s * n_theta
    src = rng.choice(n_nodes, size=16, replace=False)
    tgt = rng.choice(n_nodes, size=64, replace=False)

    def polar(nodes):
        i, j = np.divmod(nodes, n_theta)
        r = np.clip(model.r_of_s(s_a + (s_b - s_a) / (n_s - 1) * i), r_a, r_b)
        return r, 2.0 * math.pi / n_theta * j, model.F(r)

    r_s, th_s, f_s = polar(src)
    r_t, th_t, f_t = polar(tgt)
    d_tube = tube_distance(model, r_a, r_s[:, None], th_s[:, None],
                           r_t[None, :], th_t[None, :])
    d_flat = annulus_distance(r_a, r_s[:, None], th_s[:, None],
                              r_t[None, :], th_t[None, :])
    d_amb = np.hypot(d_flat, f_s[:, None] - f_t[None, :])
    excess = d_tube - d_amb
    if excess.size < 1000:
        failures.append(f"only {excess.size} sampled pairs")
    if np.max(excess) > consts.C_M_bound:
        failures.append(f"worst tube-minus-ambient excess {np.max(excess):.4f}"
                        f" exceeds the bound {consts.C_M_bound:.4f}")
    if np.min(excess) < -1e-9:
        failures.append("tube distance fell below the ambient product "
                        "distance, which is impossible for an embedding")
    _report(6, "product-space oracle bounds tube distances", t0, 60.0,
            failures)


def test_criterion_07_strip_allowance_is_necessary():
    t0 = time.perf_counter()
    failures = []
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    rep = metric_embedding_check(model, window, mesh_h=0.02, seed=0)
    if rep["violations"] != 0:
        failures.append(f"{rep['violations']} violations with the proper "
                        "strip allowance")

    # same check with the allowance removed on a steep well: the shortcut
    # through the ambient product must now beat the tube by a clear margin
    steep = ManifoldModel(deep_well(3, 0.2, 4.0 * math.pi, 3.0), 8.0)
    w = TubularWindow(alpha0=4.0 * math.pi, D=0.5, r0=1.0,
                      s0=float(steep.s(1.0)),
                      r_minus=0.05, r_plus=0.3,
                      s_minus=float(steep.s(0.05)),
                      s_plus=float(steep.s(0.3)), clamped=False)
    forced = metric_embedding_check(steep, w, mesh_h=0.01, seed=0, S=0.0)
    if forced["violations"] == 0:
        failures.append("no violation detected with the allowance forced "
                        "to zero on a steep well")
    if forced["max_violation"] < 2.0 * forced["tol_min"]:
        failures.append(f"forced violation {forced['max_violation']:.4f} is "
                        "not clearly above the solve tolerance")
    _report(7, "embedding allowance: sufficient and necessary", t0, 60.0,
            failures)


def test_criterion_08_budget_certifies_the_lattice():
    t0 = time.perf_counter()
    failures = []
    count = 0
    for point in _lattice_certificates():
        eps, D, alpha0 = point["epsilon"], point["D"], point["alpha0"]
        tag = f"eps={eps} D={D} alpha0={alpha0 / math.pi:.0f}pi"
        budget = point["budget"]
        if not budget.delta > 0:
            failures.append(f"{tag}: empty budget")
        if not all(entry["ok"] for entry in budget.slack):
            failures.append(f"{tag}: a smallness condition failed")
        for name, p, cert in point["members"]:
            count += 1
            if not validate(p).ok:
                failures.append(f"{tag} {name}: member profile inadmissible")
            if not p.adm_mass < budget.delta:
                failures.append(f"{tag} {name}: member mass above the budget")
            if not cert.total < eps:
                failures.append(f"{tag} {name}: certificate total "
                                f"{cert.total:.3e} >= epsilon")
    if count != 24:
        failures.append(f"expected 24 member certificates, got {count}")
    _report(8, "mass budget certifies every family member", t0, 120.0,
            failures)


def test_criterion_09_flat_and_gh_bounds_separate():
    t0 = time.perf_counter()
    failures = []
    rows, _ = _separation_sweep()
    bad = [r["parameter"] for r in rows if r["status"] != "ok"]
    if bad:
        failures.append(f"failed sweep rows at {bad}")
    else:
        totals = [r["total"] for r in rows]
        if not all(b < a for a, b in zip(totals, totals[1:])):
            failures.append(f"flat totals not strictly decreasing: {totals}")
        if not totals[-1] < 1e-2:
            failures.append(f"final flat total {totals[-1]:.3e} >= 1e-2")
        low = [r["gh_total"] for r in rows if r["gh_total"] < 10.0 - 1e-9]
        if low:
            failures.append(f"GH bounds dipped below the well depth: {low}")
        for key in ("rho", "rho_prime"):
            vals = [r[key] for r in rows]
            if not all(b < a for a, b in zip(vals, vals[1:])):
                failures.append(f"{key} not strictly decreasing: {vals}")
    _report(9, "flat bounds shrink while GH bounds stay pinned", t0, 60.0,
            failures)


def test_criterion_10_scalable_variant_homogeneity():
    t0 = time.perf_counter()
    failures = []

    def cert(lam):
        model = ManifoldModel(schwarzschild(3, 0.01 * lam), 6.0 * lam)
        return flat_certificate(model, 4.0 * math.pi * lam**2, 0.5 * lam,
                                0.5 * lam)

    base = cert(1.0)
    for lam in (0.5, 2.0, 10.0):
        scaled = cert(lam)
        rel = abs(scaled.total_scalable - lam * base.total_scalable) \
            / (lam * base.total_scalable)
        if rel > 1e-9:
            failures.append(f"lambda={lam}: homogeneity off by {rel:.2e}")
    _report(10, "scalable certificate is scale-homogeneous", t0, 10.0,
            failures)


def test_criterion_11_volumes_never_exceed_their_bounds():
    t0 = time.perf_counter()
    failures = []
    certs = []
    for point in _lattice_certificates():
        certs.extend((f"lattice eps={point['epsilon']} D={point['D']} "
                      f"a0={point['alpha0'] / math.pi:.0f}pi {name}", cert)
                     for name, _, cert in point["members"])
    _, sweep_certs = _separation_sweep()
    certs.extend((f"sweep delta={d:g}", c)
                 for d, c in zip(SWEEP_DELTAS, sweep_certs))
    regions = ("A0", "A1", "A2", "A31", "A32", "A33", "B1", "B2")
    for tag, cert in certs:
        bounds = cert.bounds
        if bounds["delta_eff"] is None:
            failures.append(f"{tag}: no analytic bounds on this certificate")
            continue
        for key in regions:
            slack = bounds[key] - getattr(cert, "vol_" + key)
            if not slack >= -1e-12:
                failures.append(f"{tag}: region {key} exceeds its bound by "
                                f"{-slack:.3e}")
    _report(11, "measured volumes dominated by analytic bounds", t0, None,
            failures)
