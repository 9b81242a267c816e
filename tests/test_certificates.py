"""Tests for flat-distance certificates and mass budgets."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from massflat.certificates import (
    delta_budget,
    flat_certificate,
    switch_bounds,
    well_cut,
)
from massflat import geometry
from massflat.embedding import q_slope
from massflat.errors import CertificateError, DomainError
from massflat.geometry import ManifoldModel, tubular_window
from massflat.profiles import (
    ConstantPiece,
    HawkingProfile,
    PowerLawPiece,
    deep_well,
    flat,
    schwarzschild,
    unit_sphere_area,
)


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


def test_certificate_rejects_horizon_in_window():
    # swap in a wall-violating profile after the tables are built so the
    # certificate's own guard is what fires, not the model constructor
    model = ManifoldModel(flat(3), 8.0)
    model.profile = HawkingProfile(3, 0.0, (
        PowerLawPiece(0.0, 1.2, 0.6, 1.0),
        ConstantPiece(1.2, math.inf, 0.72),
    ))
    with pytest.raises(CertificateError, match="horizon"):
        flat_certificate(model, 4.0 * math.pi, 0.5, 0.5)


def test_certificate_rejects_horizon_before_any_quadrature(monkeypatch):
    # s0 - D is no table knot here, so building the window first would run
    # Newton over the wall-violating integrand on every toolchain
    model = ManifoldModel(flat(3), 8.0)
    model.profile = HawkingProfile(3, 0.0, (
        PowerLawPiece(0.0, 1.2, 0.6, 1.0),
        ConstantPiece(1.2, math.inf, 0.72),
    ))

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the horizon guard")

    monkeypatch.setattr(geometry, "_adaptive_cells", no_quadrature)
    for D in (0.3, 0.45):
        with pytest.raises(CertificateError, match="horizon") as exc:
            flat_certificate(model, 4.0 * math.pi, D, 0.5)
        assert "wall_gap(" in str(exc.value)


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
