"""Tests for embedding distortion constants and annulus distances."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat import embedding
from massflat.embedding import (
    _budget_distortion,
    annulus_distance,
    embedding_constant_bound,
    metric_embedding_check,
    q_slope,
)
from massflat.errors import DomainError
from massflat.geometry import ManifoldModel, tubular_window
from massflat.profiles import flat, schwarzschild


def test_q_slope_values_and_limits():
    assert q_slope(0.05, 1.0, 3) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert q_slope(0.0, 2.0, 4) == 0.0
    with pytest.raises(DomainError):
        q_slope(0.5, 1.0, 3)  # horizon scale
    with pytest.raises(DomainError):
        q_slope(-0.1, 1.0, 3)
    for r in (0.5, 1.0, 2.0):
        for m in (3, 4, 5):
            assert q_slope(1e-8, r, m) < 1e-3


def test_q_slope_monotonicity():
    deltas = np.linspace(0.0, 0.2, 9)
    vals = [q_slope(d, 1.0, 3) for d in deltas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    radii = np.linspace(0.8, 3.0, 9)
    vals = [q_slope(0.1, r, 3) for r in radii]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_budget_constants_match_paper_worked_example():
    # Q = 1/3, D = 1, r0 = 1: C = (4 + 2 pi)/3 and S = sqrt(C (2 + pi + C))
    diam_w, c, s = _budget_distortion(1.0, 1.0, 1.0 / 3.0)
    c_exact = (4.0 + 2.0 * math.pi) / 3.0
    assert c == pytest.approx(c_exact, rel=1e-14)
    assert s == pytest.approx(
        math.sqrt(c_exact * (2.0 + math.pi + c_exact)), rel=1e-14)
    assert diam_w == pytest.approx(2.0 + math.pi, rel=1e-15)


def test_defect_identity_holds_exactly():
    model = ManifoldModel(schwarzschild(3, 0.1), 12.0)
    c = embedding_constant_bound(model, 0.5, 2.0)
    assert c.S_M ** 2 == pytest.approx(
        c.C_M_bound * (c.diam_M_bound + c.C_M_bound), rel=1e-12)
    assert c.mode == "measured"


def test_flat_model_has_zero_defect():
    model = ManifoldModel(flat(3), 8.0)
    c = embedding_constant_bound(model, 0.5, 1.5)
    assert c.sup_grad == 0.0
    assert c.C_M_bound == 0.0
    assert c.S_M == 0.0
    assert c.delta_F == 0.0


def test_sup_grad_bounded_by_q_slope():
    model = ManifoldModel(schwarzschild(3, 0.1), 12.0)
    w = tubular_window(model, 4.0 * math.pi * 1.44, 0.6)
    c = embedding_constant_bound(model, w.r_minus, w.r_plus)
    assert c.sup_grad <= q_slope(model.adm_mass, w.r_minus, 3) + 1e-9


def test_constants_infinite_at_horizon():
    model = ManifoldModel(schwarzschild(3, 0.1), 12.0)
    c = embedding_constant_bound(model, model.r_min, 1.0)
    assert math.isinf(c.sup_grad)
    assert math.isinf(c.C_M_bound)
    assert math.isinf(c.S_M)


def test_annulus_distance_chord_and_blocked():
    # no inner disk: plain chord
    assert annulus_distance(0.0, 1.0, 0.0, 1.0, math.pi) == pytest.approx(
        2.0, rel=1e-14)
    # antipodal on the inner circle: two quarter-tangents plus the arc
    d = annulus_distance(1.0, 1.0, 0.0, 1.0, math.pi)
    assert d == pytest.approx(math.pi, rel=1e-12)
    # clear chord is unchanged by a small disk
    d1 = annulus_distance(0.2, 2.0, 0.1, 2.0, 0.3)
    assert d1 == pytest.approx(
        annulus_distance(0.0, 2.0, 0.1, 2.0, 0.3), rel=1e-14)
    # same point
    assert annulus_distance(0.5, 1.3, 0.7, 1.3, 0.7) == 0.0


def test_annulus_triangle_inequality():
    rng = np.random.default_rng(77)
    r_in = 0.5
    pts = [(rng.uniform(r_in, 3.0), rng.uniform(0, 2 * math.pi))
           for _ in range(12)]
    for a in pts:
        for b in pts:
            for c in pts:
                dab = annulus_distance(r_in, a[0], a[1], b[0], b[1])
                dbc = annulus_distance(r_in, b[0], b[1], c[0], c[1])
                dac = annulus_distance(r_in, a[0], a[1], c[0], c[1])
                assert dac <= dab + dbc + 1e-12


def test_metric_embedding_check_passes_and_is_deterministic():
    model = ManifoldModel(schwarzschild(3, 0.01), 8.0)
    w = tubular_window(model, 4.0 * math.pi, 0.4)
    rep = metric_embedding_check(model, w, mesh_h=0.05, seed=3, n_pairs=256)
    assert rep["violations"] == 0
    assert set(rep) == {"c_m_bound", "c_m_sampled", "s_m", "sup_grad",
                        "mesh_h", "seed", "n_pairs", "violations",
                        "max_violation", "tol_min"}
    rep2 = metric_embedding_check(model, w, mesh_h=0.05, seed=3, n_pairs=256)
    assert rep == rep2
    # the distances are exact, so the sampled distortion obeys the bound
    assert rep["c_m_sampled"] <= rep["c_m_bound"]


def test_metric_embedding_check_refuses_a_negative_seed_before_quadrature(
        monkeypatch):
    model = ManifoldModel(schwarzschild(3, 0.01), 8.0)
    w = tubular_window(model, 4.0 * math.pi, 0.4)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the seed is checked before any quadrature")

    monkeypatch.setattr(embedding, "embedding_constant_bound", no_quadrature)
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        metric_embedding_check(model, w, mesh_h=0.05, seed=-1)


def test_metric_embedding_check_requires_finite_defect():
    model = ManifoldModel(schwarzschild(3, 0.1), 12.0)
    w = tubular_window(model, 4.0 * math.pi * 0.09, 10.0)  # reaches horizon
    assert w.clamped or w.r_minus <= model.r_min * (1 + 1e-9)
    with pytest.raises(DomainError):
        metric_embedding_check(model, w, mesh_h=0.1, seed=0)
    rep = metric_embedding_check(model, w, mesh_h=0.25, seed=0, n_pairs=64,
                                 S=50.0)
    assert rep["s_m"] == 50.0
    # the window starts on the horizon, where paths spiral along the
    # boundary circle; every distance is still finite
    assert 0.0 < rep["c_m_sampled"] < math.inf
