"""Tests for Gromov-Hausdorff upper bounds and segment-limit radii."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat.embedding import embedding_constant_bound
from massflat.errors import DomainError, RangeError
from massflat.geometry import ManifoldModel, tubular_window
from massflat.ghdist import (_cut_candidates, best_gh_bound, gh_bound,
                             segment_limit_bound)
from massflat.profiles import deep_well, flat, schwarzschild


def test_gh_bound_flat_is_zero():
    model = ManifoldModel(flat(3), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    out = gh_bound(model, window, window.r_minus)
    assert out.S_M1 == 0.0
    assert out.S_M2 == 0.0
    assert out.hausdorff_ambient == 0.0
    assert out.well_excess_1 == 0.0
    assert out.well_excess_2 == 0.0
    assert out.total <= 1e-9
    assert out.rho == pytest.approx(math.pi * window.r_minus)
    assert out.rho_prime == pytest.approx(window.r_minus)


def test_gh_bound_terms_recompute():
    model = ManifoldModel(schwarzschild(3, 0.05), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    r_eps = 0.5 * (window.r_minus + window.r0)
    out = gh_bound(model, window, r_eps)
    consts = embedding_constant_bound(model, r_eps, window.r_plus)
    assert out.S_M1 == pytest.approx(consts.S_M, rel=1e-12)
    assert out.hausdorff_ambient == pytest.approx(consts.delta_F, rel=1e-12)
    assert out.well_excess_1 == pytest.approx(
        float(model.s(r_eps) - model.s(window.r_minus)), rel=1e-12)
    assert out.well_excess_2 == pytest.approx(
        r_eps - max(window.r0 - window.D, 0.0), rel=1e-12)
    assert out.total == pytest.approx(
        out.S_M1 + out.S_M2 + out.hausdorff_ambient + out.well_excess_1
        + out.well_excess_2, rel=1e-14)
    assert out.rho == max(out.hausdorff_ambient + out.S_M1,
                          math.pi * r_eps)
    assert out.rho_prime == max(r_eps, out.hausdorff_ambient + out.S_M1)


def test_gh_bound_cut_range_checked():
    model = ManifoldModel(schwarzschild(3, 0.05), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    with pytest.raises(RangeError):
        gh_bound(model, window, window.r_minus - 1e-6)
    with pytest.raises(RangeError):
        gh_bound(model, window, window.r0)


def test_best_gh_bound_beats_grid():
    model = ManifoldModel(schwarzschild(3, 0.05), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    best = best_gh_bound(model, window)
    assert window.r_minus <= best.r_eps < window.r0
    for r in np.linspace(window.r_minus, window.r0 * (1 - 1e-6), 17):
        assert best.total <= gh_bound(model, window, float(r)).total + 1e-12


@pytest.mark.parametrize("profile", [schwarzschild(3, 0.05),
                                     deep_well(3, 1e-3, 4.0 * math.pi, 10.0)])
def test_best_gh_bound_is_the_minimum_of_gh_bound(profile):
    # the batched scoring picks the candidate a gh_bound per cut would pick
    model = ManifoldModel(profile, 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    cands = _cut_candidates(model, window, 48)
    assert cands.size == 49
    loop = min((gh_bound(model, window, float(r)) for r in cands),
               key=lambda b: b.total)
    best = best_gh_bound(model, window)
    assert best.r_eps == loop.r_eps
    assert best == loop


def test_gh_bound_pinned_by_well_depth():
    # the cut cannot dodge the well: every bound keeps the full descent
    model = ManifoldModel(deep_well(3, 0.05, 4.0 * math.pi, 6.0), 40.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    depth = float(model.s(window.r0) - model.s(model.r_min))
    assert depth >= 6.0
    best = best_gh_bound(model, window)
    assert best.total >= 6.0 - 1.0  # the window bottom sits near r0
    spot = gh_bound(model, window, window.r_minus)
    assert spot.well_excess_1 == 0.0
    mid = gh_bound(model, window, 0.5 * (window.r_minus + window.r0))
    assert mid.well_excess_1 > 0.0


def test_segment_limit_default_and_explicit_cut():
    model = ManifoldModel(schwarzschild(3, 0.05), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    out = segment_limit_bound(model, window, L0=2.0)
    # default cut: geometric mean of wall scale and window scale in r^(m-2)
    r_def = math.sqrt(2.0 * 0.05 * window.r0)
    consts = embedding_constant_bound(model, r_def, window.r_plus)
    reach = consts.delta_F + consts.S_M
    assert out.rho == pytest.approx(max(reach, math.pi * r_def), rel=1e-12)
    assert out.rho_prime == pytest.approx(max(r_def, reach), rel=1e-12)
    explicit = segment_limit_bound(model, window, L0=2.0, r_eps=0.7)
    consts2 = embedding_constant_bound(model, 0.7, window.r_plus)
    reach2 = consts2.delta_F + consts2.S_M
    assert explicit.rho == pytest.approx(max(reach2, math.pi * 0.7), rel=1e-12)
    with pytest.raises(DomainError):
        segment_limit_bound(model, window, L0=0.0)
    with pytest.raises(RangeError):
        segment_limit_bound(model, window, L0=1.0, r_eps=window.r0 + 0.1)
