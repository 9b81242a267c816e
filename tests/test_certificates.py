"""Tests for flat-distance certificates and mass budgets."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from massflat.certificates import (
    DeltaBudget,
    _budget_conditions,
    _budget_slopes,
    _budget_thresholds,
    delta_budget,
    flat_certificate,
    switch_bounds,
    well_cut,
)
from massflat.embedding import embedding_constant_bound, q_slope
from massflat.errors import CertificateError, DomainError
from massflat.geometry import ManifoldModel, tubular_window
from massflat.ghdist import best_gh_bound, gh_bound
from massflat.profiles import (
    ConstantPiece,
    HawkingProfile,
    PowerLawPiece,
    deep_well,
    flat,
    schwarzschild,
    sphere_radius,
    unit_sphere_area,
)
from test_acceptance import LATTICE_AREAS, LATTICE_EPSILONS, LATTICE_WIDTHS
from util import count_panels, window_volumes


def _cut_oracle(epsilon, D, alpha0, m):
    omega = unit_sphere_area(m)
    alpha_eps = min(epsilon / (16.0 * D),
                    (omega * epsilon / 8.0) ** (m / (m - 1.0)),
                    alpha0)
    return alpha_eps, (alpha_eps / omega) ** (1.0 / (m - 1.0))


def test_well_cut_frozen_value():
    cut = well_cut(0.8, 10.0, 100.0, 3)
    assert cut.alpha_eps == pytest.approx(0.005, rel=1e-15)
    assert cut.r_eps_prime == pytest.approx(
        math.sqrt(0.005 / (4.0 * math.pi)), rel=1e-14)


def test_well_cut_each_clause_can_bind():
    # one parameter set per clause of the min, plus a random consistency scan
    forced = (
        (0.8, 50.0, 100.0, 3),   # window width term
        (1e-3, 0.01, 100.0, 3),  # area-scaled epsilon term
        (0.8, 0.1, 1e-5, 3),     # requested cap
    )
    saw = set()
    for eps, D, alpha0, m in forced:
        cut = well_cut(eps, D, alpha0, m)
        ref_alpha, ref_r = _cut_oracle(eps, D, alpha0, m)
        assert cut.alpha_eps == pytest.approx(ref_alpha, rel=1e-13)
        assert cut.r_eps_prime == pytest.approx(ref_r, rel=1e-13)
        omega = unit_sphere_area(m)
        clauses = (eps / (16.0 * D),
                   (omega * eps / 8.0) ** (m / (m - 1.0)),
                   alpha0)
        saw.add(int(np.argmin(clauses)))
    assert saw == {0, 1, 2}
    rng = np.random.default_rng(31)
    for _ in range(40):
        eps = float(rng.uniform(0.05, 2.0))
        D = float(rng.uniform(0.1, 20.0))
        alpha0 = float(rng.uniform(1e-4, 30.0))
        m = int(rng.integers(3, 6))
        cut = well_cut(eps, D, alpha0, m)
        ref_alpha, ref_r = _cut_oracle(eps, D, alpha0, m)
        assert cut.alpha_eps == pytest.approx(ref_alpha, rel=1e-13)
        assert cut.r_eps_prime == pytest.approx(ref_r, rel=1e-13)
    with pytest.raises(DomainError):
        well_cut(-1.0, 1.0, 1.0, 3)
    with pytest.raises(DomainError):
        well_cut(1.0, 1.0, 1.0, 2)


def test_flat_certificate_is_identically_zero():
    model = ManifoldModel(flat(3), 8.0)
    cert = flat_certificate(model, 4.0 * math.pi, 0.5, 0.5)
    assert cert.total == 0.0
    assert cert.total_scalable == 0.0
    for name in ("vol_A0", "vol_A1", "vol_A2", "vol_A31", "vol_A32",
                 "vol_A33", "vol_B1", "vol_B2"):
        assert getattr(cert, name) == 0.0
    assert cert.mass == 0.0


def test_certificate_totals_are_consistent():
    model = ManifoldModel(schwarzschild(3, 0.01), 8.0)
    cert = flat_certificate(model, 4.0 * math.pi, 0.5, 0.5)
    vols_a = (cert.vol_A0 + cert.vol_A1 + cert.vol_A2 + cert.vol_A31
              + cert.vol_A32 + cert.vol_A33)
    vols_b = cert.vol_B1 + cert.vol_B2
    assert cert.total == pytest.approx(vols_a + vols_b, rel=1e-14)
    m = cert.dimension
    assert cert.total_scalable == pytest.approx(
        vols_b ** (1.0 / (m + 1)) + vols_a ** (1.0 / m), rel=1e-14)
    assert cert.a2_variant in ("deep", "shallow")
    assert all(getattr(cert, k) >= 0.0 for k in (
        "vol_A0", "vol_A1", "vol_A2", "vol_A31", "vol_A32", "vol_A33",
        "vol_B1", "vol_B2"))


def test_certificate_deep_variant_cuts_inside_window():
    model = ManifoldModel(deep_well(3, 0.02, 4.0 * math.pi, 1.0), 8.0)
    cert = flat_certificate(model, 4.0 * math.pi, 2.0, 0.5)
    assert cert.a2_variant == "deep"
    assert cert.r_eps == cert.r_eps_prime > cert.r_minus
    assert cert.vol_A1 > 0.0
    # shallow window on the same model: the cut clamps to the window bottom
    cert2 = flat_certificate(model, 4.0 * math.pi, 0.5, 0.5)
    assert cert2.a2_variant == "shallow"
    assert cert2.r_eps == cert2.r_minus
    assert cert2.vol_A1 == 0.0


_VOLUME_WINDOWS = {
    # (profile, r_cap, alpha0, D, epsilon, variant)
    "shallow": (schwarzschild(3, 0.05), 6.0, 4.0 * math.pi, 0.5, 0.5,
                "shallow"),
    "deep": (deep_well(3, 0.02, 4.0 * math.pi, 1.0), 8.0, 4.0 * math.pi,
             2.0, 0.5, "deep"),
    # a clamped window: the deep range starts at r_min, on the boundary
    # sphere, where the unused graph-excess row would need bisection
    "deep-from-r-min": (schwarzschild(3, 5e-20), 12.0, 4.0 * math.pi, 1.5,
                        0.5, "deep"),
}


@pytest.mark.parametrize("name", sorted(_VOLUME_WINDOWS))
def test_one_volume_read_equals_each_volume_alone(name, monkeypatch):
    # the shell, the graph excess, the deep shell and the rise of F and s
    # over [r_eps, r_plus] come from one read of the table, with no
    # quadrature (one pass before): every volume reads what its own query
    # reads, and the rise and the strip what the GH bounds read
    profile, r_cap, alpha0, D, epsilon, variant = _VOLUME_WINDOWS[name]
    model = ManifoldModel(profile, r_cap)
    cert = flat_certificate(model, alpha0, D, epsilon)
    assert cert.a2_variant == variant
    r_minus, r_eps, r_plus = cert.r_minus, cert.r_eps, cert.r_plus
    panels = count_panels(monkeypatch)
    shell, excess, deep, rise, strip = model._window_volumes(r_minus, r_eps,
                                                             r_plus)
    assert shell == model.shell_volume(r_eps, r_plus)
    assert cert.vol_B2 == cert.S_M * shell
    assert excess == model.graph_excess(r_eps, r_plus) == cert.vol_B1
    assert deep == model.shell_volume(r_minus, r_eps) == cert.vol_A1
    assert (deep > 0.0) == (variant == "deep")
    rises = model._F_and_s_rises([r_eps], r_plus)
    assert (rise, strip) == tuple(rises[:, 0])
    assert panels.passes == 0


@pytest.mark.parametrize("name", sorted(_VOLUME_WINDOWS))
def test_certificate_constants_equal_embedding_constant_bound(name):
    # the certificate reads the rise of F and the strip length with its
    # volumes, embedding_constant_bound from the table's rises: the
    # constants agree bit for bit
    profile, r_cap, alpha0, D, epsilon, _ = _VOLUME_WINDOWS[name]
    model = ManifoldModel(profile, r_cap)
    cert = flat_certificate(model, alpha0, D, epsilon)
    consts = embedding_constant_bound(model, cert.r_eps, cert.r_plus)
    assert (cert.C_M, cert.S_M) == (consts.C_M_bound, consts.S_M)
    m = cert.dimension
    assert cert.vol_A33 == model.omega * cert.r_plus ** (m - 1) * consts.delta_F


_SWEEP_ALPHA0 = math.pi / 100.0
_SWEEP_R_CAP = 4.0 * (math.sqrt(_SWEEP_ALPHA0 / (4.0 * math.pi)) + 0.05)


@pytest.mark.parametrize("profile, r_cap, alpha0, D, epsilon", [
    (schwarzschild(3, 0.05), 6.0, 4.0 * math.pi, 0.5, 0.5),
    (deep_well(3, 1e-4, _SWEEP_ALPHA0, 10.0), _SWEEP_R_CAP, _SWEEP_ALPHA0,
     0.05, 0.02),
], ids=["schwarzschild", "deep-well-sweep"])
def test_flat_certificate_quadrature_passes(profile, r_cap, alpha0, D,
                                            epsilon, monkeypatch):
    # after the build nothing a certificate or a GH bound reads runs
    # quadrature: the window reads and inverts the table's panels, and the
    # volumes and the embedding constants read the table too (one volume
    # pass before, and 8, 7, then 5 passes before that)
    model = ManifoldModel(profile, r_cap)
    panels = count_panels(monkeypatch)
    window = tubular_window(model, alpha0, D)
    cert = flat_certificate(model, alpha0, D, epsilon)
    model.shell_volume(cert.r_eps, cert.r_plus)
    model.graph_excess(cert.r_eps, cert.r_plus)
    embedding_constant_bound(model, cert.r_eps, cert.r_plus)
    gh_bound(model, window, cert.r_eps)
    best_gh_bound(model, window)
    assert panels.passes == 0


def test_volumes_of_certify_deep_wells_hold_the_table_budget():
    # a deep well of certify's budgets (delta 1.3e-21): the table's scale,
    # set by F' and s' in the well, allows each weighted cell a gap of
    # 1e-16 times that scale, and the graph excess and the rise of F,
    # 2.7e-8 and 3.1e-4 here, read within 1e-13 of per-range adaptive
    # quadrature (2e-13 relative; 4.6e-21 and 1.8e-23 apart when measured)
    epsilon, D, alpha0 = (0.5653324448117859, 1.9676918059954878,
                          49.209255686490046)
    delta = delta_budget(epsilon, D, alpha0, 3).delta
    model = ManifoldModel(deep_well(3, 0.9 * delta, alpha0, 10.0),
                          4.0 * (sphere_radius(alpha0, 3) + D))
    cert = flat_certificate(model, alpha0, D, epsilon)
    _, excess, _, rise, _ = window_volumes(model, cert.r_minus, cert.r_eps,
                                           cert.r_plus)
    consts = embedding_constant_bound(model, cert.r_eps, cert.r_plus)
    for got, want in ((cert.vol_B1, excess), (consts.delta_F, rise)):
        assert abs(got - want) <= 1e-13
        assert abs(got - want) <= 1e-12 * want


def test_certificate_volume_bounds_dominate_measured():
    model = ManifoldModel(schwarzschild(3, 1e-4), 8.0)
    cert = flat_certificate(model, 4.0 * math.pi, 0.5, 0.5)
    b = cert.bounds
    assert b["delta_eff"] is not None and b["delta_eff"] >= cert.mass
    pairs = (("A0", cert.vol_A0), ("A1", cert.vol_A1), ("A2", cert.vol_A2),
             ("A31", cert.vol_A31), ("A32", cert.vol_A32),
             ("A33", cert.vol_A33), ("B1", cert.vol_B1), ("B2", cert.vol_B2))
    for key, measured in pairs:
        assert measured <= b[key] * (1.0 + 1e-9) + 1e-12, key


def test_model_profile_is_read_only():
    # the tables, the validation and the singularity test describe the
    # profile given at construction, so it cannot be swapped afterwards
    profile = flat(3)
    model = ManifoldModel(profile, 8.0)
    with pytest.raises(AttributeError):
        model.profile = HawkingProfile(3, 0.0, (
            PowerLawPiece(0.0, 1.2, 0.6, 1.0),
            ConstantPiece(1.2, math.inf, 0.72),
        ))
    assert model.profile is profile


def test_tiny_mass_window_starts_exactly_at_r0_minus_D():
    # s' - 1 is below 1e-15 on this window, so its bottom is r0 - D to double
    # precision, and the A2 annulus between them is empty; s0 - D lands within
    # an ulp or two of the tabulated arclength of that knot
    model = ManifoldModel(schwarzschild(3, 1e-17), 6.0)
    cert = flat_certificate(model, 4.0 * math.pi, 0.5, 0.5)
    assert cert.r_minus == 0.5
    assert cert.vol_A2 == 0.0


def test_certificate_epsilon_validation():
    model = ManifoldModel(flat(3), 8.0)
    with pytest.raises(DomainError):
        flat_certificate(model, 4.0 * math.pi, 0.5, 0.0)


def test_switch_bounds_dominance_and_preconditions():
    model = ManifoldModel(schwarzschild(3, 1e-3), 8.0)
    w = tubular_window(model, 4.0 * math.pi, 0.5)
    out = switch_bounds(model, w, 0.01)
    assert out["A0_actual"] <= out["A0_bound"] * (1.0 + 1e-9)
    assert out["A22_actual"] <= out["A22_bound"]
    with pytest.raises(CertificateError):
        switch_bounds(model, w, 1e-4)  # adm >= delta
    with pytest.raises(CertificateError):
        switch_bounds(model, w, 0.3)  # horizon scale reaches r0/2


@pytest.mark.parametrize("lam", [1.0, 1e-6])
@pytest.mark.parametrize("field", ["r_plus", "r_minus"])
def test_switch_bounds_reject_a_forged_window_at_every_scale(lam, field):
    # moving either window end to r0 makes its mismatch annulus several times
    # its bound; the tolerance must be relative, or it swallows that below
    # unit scale
    model = ManifoldModel(schwarzschild(3, 1e-3).scale(lam), 8.0 * lam)
    w = tubular_window(model, 4.0 * math.pi * lam**2, 0.5 * lam)
    switch_bounds(model, w, 0.01 * lam)
    with pytest.raises(CertificateError, match="exceeds its bound"):
        switch_bounds(model, dataclasses.replace(w, **{field: w.r0}),
                      0.01 * lam)


def _budget_oracle_feasible(delta, epsilon, D, alpha0, m):
    """The six certified smallness conditions, restated from scratch."""
    omega = unit_sphere_area(m)
    r0 = (alpha0 / omega) ** (1.0 / (m - 1.0))
    _, r_eps = _cut_oracle(epsilon, D, alpha0, m)
    if 2.0 * delta >= min(r_eps ** (m - 2), (r0 / 2.0) ** (m - 2)):
        return False
    q = math.sqrt(2.0 * delta / (r_eps ** (m - 2) - 2.0 * delta))
    c = (4.0 * D + 2.0 * math.pi * r0) * q
    s = math.sqrt(c * (2.0 * D + math.pi * r0 + c))
    ring0 = omega * r0 ** (m - 1)
    ring1 = omega * (r0 + D) ** (m - 1)
    return (D * q * ring0 < epsilon / 8.0
            and 4.0 * D * D * ring1 * q < epsilon / 8.0
            and s * 2.0 * D * ring1 * q < epsilon / 8.0
            and s * ring1 < epsilon / 12.0
            and ring1 * q < epsilon / 12.0)


def test_delta_budget_against_dense_scan():
    epsilon, D, alpha0, m = 0.5, 0.5, 4.0 * math.pi, 3
    budget = delta_budget(epsilon, D, alpha0, m)
    assert budget.delta > 0.0
    assert all(entry["ok"] for entry in budget.slack)
    assert len(budget.slack) == 6
    names = [entry["condition"] for entry in budget.slack]
    assert names == [f"choose-delta-{k}" for k in range(1, 7)]
    for entry in budget.slack:
        assert entry["lhs"] < entry["threshold"]
    # densely scan the feasible boundary; the budget is 0.9 of the largest
    # feasible delta, so it must sit between 0.88 and 0.92 of the scan edge
    grid = np.geomspace(1e-20, 1e-10, 40001)
    feas = [_budget_oracle_feasible(d, epsilon, D, alpha0, m) for d in grid]
    assert feas[0] and not feas[-1]
    edge = grid[int(np.argmin(feas)) - 1]
    assert 0.88 * edge <= budget.delta <= 0.92 * edge


def test_delta_budget_members_certify():
    epsilon, D, alpha0 = 0.5, 0.5, 4.0 * math.pi
    budget = delta_budget(epsilon, D, alpha0, 3)
    model = ManifoldModel(schwarzschild(3, 0.5 * budget.delta), 6.0)
    cert = flat_certificate(model, alpha0, D, epsilon)
    assert cert.total < epsilon


def test_delta_budget_preconditions():
    with pytest.raises(DomainError):
        delta_budget(0.0, 0.5, 1.0, 3)
    with pytest.raises(DomainError):
        delta_budget(0.5, 0.5, 1.0, 2)


def _reference_budget_conditions(delta, epsilon, D, r0, r_eps_prime, m):
    """The six conditions as dicts, each built from its own formula."""
    omega = unit_sphere_area(m)
    xi_cap = min(r_eps_prime ** (m - 2), (r0 / 2.0) ** (m - 2))
    out = [{"condition": "choose-delta-1", "lhs": 2.0 * delta,
            "threshold": xi_cap}]
    if 2.0 * delta < r_eps_prime ** (m - 2):
        q = q_slope(delta, r_eps_prime, m)
        diam_w = 2.0 * D + math.pi * r0
        c = 2.0 * diam_w * q
        s = math.sqrt(c * (diam_w + c))
    else:
        q = math.inf
        s = math.inf
    ring0 = omega * r0 ** (m - 1)
    ring1 = omega * (r0 + D) ** (m - 1)
    out.append({"condition": "choose-delta-2", "lhs": D * q * ring0,
                "threshold": epsilon / 8.0})
    out.append({"condition": "choose-delta-3", "lhs": 4.0 * D * D * ring1 * q,
                "threshold": epsilon / 8.0})
    out.append({"condition": "choose-delta-4", "lhs": s * 2.0 * D * ring1 * q,
                "threshold": epsilon / 8.0})
    out.append({"condition": "choose-delta-5", "lhs": s * ring1,
                "threshold": epsilon / 12.0})
    out.append({"condition": "choose-delta-6", "lhs": ring1 * q,
                "threshold": epsilon / 12.0})
    for entry in out:
        entry["ok"] = bool(entry["lhs"] < entry["threshold"])
    return out


def _reference_delta_budget(epsilon, D, alpha0, m):
    """The budget by log-space bisection over the dicts of each step's
    conditions: the reference for the closed-form inversion."""
    cut = well_cut(epsilon, D, alpha0, m)
    r0 = sphere_radius(alpha0, m)

    def feasible(delta):
        conds = _reference_budget_conditions(delta, epsilon, D, r0,
                                             cut.r_eps_prime, m)
        return all(entry["ok"] for entry in conds)

    hi = (1.0 - 1e-9) * 0.5 * min(cut.r_eps_prime ** (m - 2),
                                  (r0 / 2.0) ** (m - 2))
    if feasible(hi):
        delta_star = hi
    else:
        t_hi = math.log(hi)
        t_lo = t_hi - 250.0
        for _ in range(8):
            if feasible(math.exp(t_lo)):
                break
            t_lo -= 250.0
        else:
            raise CertificateError("no feasible delta found")
        while t_hi - t_lo > 1e-9:
            t_mid = 0.5 * (t_lo + t_hi)
            if feasible(math.exp(t_mid)):
                t_lo = t_mid
            else:
                t_hi = t_mid
        delta_star = math.exp(t_lo)
    delta = 0.9 * delta_star
    slack = _reference_budget_conditions(delta, epsilon, D, r0,
                                         cut.r_eps_prime, m)
    return DeltaBudget(epsilon=epsilon, D=D, alpha0=alpha0, m=m,
                       r_eps_prime=cut.r_eps_prime, alpha_eps=cut.alpha_eps,
                       delta=delta, slack=slack)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_budget_inversion_matches_the_bisection(m):
    # the closed-form budget is the bisection over the dicts to its 1e-9
    # stopping width, and the slack dicts equal those built formula by
    # formula, around the budget and on to where q = inf
    for epsilon in LATTICE_EPSILONS:
        for D in LATTICE_WIDTHS:
            for alpha0 in LATTICE_AREAS:
                budget = delta_budget(epsilon, D, alpha0, m)
                reference = _reference_delta_budget(epsilon, D, alpha0, m)
                assert budget.delta == pytest.approx(reference.delta,
                                                     rel=1e-9, abs=0.0)
                assert all(entry["ok"] for entry in budget.slack)
                r0 = sphere_radius(alpha0, m)
                r_eps = budget.r_eps_prime
                edge = budget.delta / 0.9
                deltas = np.concatenate([
                    np.geomspace(edge / 4.0, 4.0 * edge, 200),
                    np.geomspace(4.0 * edge, r_eps ** (m - 2), 100)])
                feasible = []
                for d in deltas.tolist():
                    conds = _budget_conditions(d, epsilon, D, r0, r_eps, m)
                    # repr: every float to the last bit, the sign of a zero
                    assert repr(conds) == repr(_reference_budget_conditions(
                        d, epsilon, D, r0, r_eps, m))
                    feasible.append(all(e["ok"] for e in conds))
                assert feasible[0] and not feasible[-1]


def _lhs_at_slope(q, D, r0, m):
    """Conditions 2-6's left-hand sides at slope bound q, from scratch."""
    omega = unit_sphere_area(m)
    diam_w = 2.0 * D + math.pi * r0
    c = 2.0 * diam_w * q
    s = math.sqrt(c * (diam_w + c))
    ring0 = omega * r0 ** (m - 1)
    ring1 = omega * (r0 + D) ** (m - 1)
    return (D * q * ring0, 4.0 * D * D * ring1 * q, s * 2.0 * D * ring1 * q,
            s * ring1, ring1 * q)


# (epsilon, D, alpha0, m) and the condition that sets the budget there
_BINDING = [
    ((1.0, 0.08, 0.003, 5), 1),
    ((0.5, 0.5, 4.0 * math.pi, 3), 5),  # the README input
    ((0.034, 0.026, 1.4e-4, 3), 6),
    # t5 = 4.4e-21: the textbook root (-1 + sqrt(1 + 8 t5)) / 4 rounds to 0
    ((1e-3, 1e-3, 1e4, 3), 5),
]


@pytest.mark.parametrize("point, binding", _BINDING,
                         ids=[str(p) for p, _ in _BINDING])
def test_budget_sits_at_the_root_of_its_binding_condition(point, binding):
    # at delta / 0.9 the binding condition reads its threshold and the
    # others stay below theirs; condition 1 binds at the cap itself
    epsilon, D, alpha0, m = point
    budget = delta_budget(*point)
    r0 = sphere_radius(alpha0, m)
    conds = _budget_conditions(budget.delta / 0.9, epsilon, D, r0,
                               budget.r_eps_prime, m)
    for k, entry in enumerate(conds, start=1):
        if k != binding:
            assert entry["lhs"] < entry["threshold"], k
        elif k == 1:
            assert budget.delta / 0.9 == pytest.approx(
                (1.0 - 1e-9) * 0.5 * entry["threshold"], rel=1e-15)
        else:
            assert entry["lhs"] == pytest.approx(entry["threshold"],
                                                 rel=1e-12)


@pytest.mark.parametrize("point", [p for p, _ in _BINDING],
                         ids=[str(p) for p, _ in _BINDING])
def test_each_budget_slope_is_its_condition_root(point):
    # at the slope bound each of conditions 2-6 allows, that condition's
    # left-hand side reads its threshold, whichever condition binds
    epsilon, D, alpha0, m = point
    r0 = sphere_radius(alpha0, m)
    thresholds = _budget_thresholds(epsilon, r0,
                                    well_cut(*point).r_eps_prime, m)
    slopes = _budget_slopes(thresholds, D, r0, m)
    assert all(q > 0.0 for q in slopes)
    for k, q in enumerate(slopes):
        assert _lhs_at_slope(q, D, r0, m)[k] == pytest.approx(
            thresholds[k + 1], rel=1e-12), k + 2


@pytest.mark.parametrize("epsilon", [1e-300, 1e-200])
def test_budget_that_underflows_raises(epsilon):
    # at 1e-300 the well cut underflows to alpha_eps = 0; at 1e-200 the
    # slope bound does, and with it delta
    with pytest.raises(CertificateError,
                       match=rf"underflows at epsilon={epsilon!r}, D=1, "
                             r"alpha0=1$"):
        delta_budget(epsilon, 1, 1, 3)


def test_budget_past_the_top_of_the_double_range():
    # (omega eps / 8)^(3/2) overflows at eps = 1e300: the well cut's middle
    # term reads +inf and alpha0 binds, and the budget is the cap
    assert well_cut(1e300, 1, 1, 3).alpha_eps == 1.0
    budget = delta_budget(1e300, 1, 1, 3)
    assert budget.alpha_eps == 1.0
    assert budget.delta == 0.9 * ((1.0 - 1e-9) * 0.5
                                  * budget.slack[0]["threshold"])
    assert all(entry["ok"] for entry in budget.slack)
    # (r0 + D)^2 overflows at D = 1e200: the ring's coefficients bound the
    # slope to 0, and the budget underflows
    with pytest.raises(CertificateError,
                       match=r"underflows at epsilon=1, D=1e\+200, "
                             r"alpha0=1$"):
        delta_budget(1, 1e200, 1, 3)


@pytest.mark.parametrize("point", [
    (0.5, 1e-150, 1e-30, 3),    # 4 D^2 ring1 underflows to 0
    (1e100, 1e-30, 1e-60, 3),   # q*^2 overflows
    (1.0, 1e-250, 1e-220, 3),   # ring1 diam_W underflows: u5 = inf
])
def test_budget_at_the_ends_of_the_double_range_is_the_cap(point):
    # where a coefficient underflows or a slope bound's square overflows,
    # the slopes lie far past the cap's, and the budget is the cap, as the
    # bisection finds it
    budget = delta_budget(*point)
    assert budget.delta == _reference_delta_budget(*point).delta
    assert budget.delta == 0.9 * ((1.0 - 1e-9) * 0.5
                                  * budget.slack[0]["threshold"])
    assert all(entry["ok"] for entry in budget.slack)
