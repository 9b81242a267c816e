"""Tests for Gromov-Hausdorff upper bounds and segment-limit radii."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat import ghdist
from massflat.certificates import delta_budget, flat_certificate
from massflat.embedding import _measured_constants, embedding_constant_bound
from massflat.errors import RangeError
from massflat.geometry import ManifoldModel, tubular_window
from massflat.ghdist import (_best_and_segment_bounds, _cut_candidates,
                             best_gh_bound, gh_bound, segment_limit_bound)
from massflat.profiles import deep_well, flat, schwarzschild
from massflat.sweeps import run_sweep
from util import range_integrals


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
    cands = _cut_candidates(model, window)
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
    out = segment_limit_bound(model, window)
    # default cut: geometric mean of wall scale and window scale in r^(m-2),
    # below the window here, so only the two radii are reported
    r_def = math.sqrt(2.0 * 0.05 * window.r0)
    assert r_def < window.r_minus
    # the rise and the strip come from the table (ManifoldModel.
    # _F_and_s_rises), as embedding_constant_bound reads them, within 1e-12
    # of quadrature over the same range
    rise, strip = model._F_and_s_rises([r_def], window.r_plus)[:, 0]
    consts = _measured_constants(model, r_def, window.r_plus, rise, strip)
    reach = consts.delta_F + consts.S_M
    assert out.rho == max(reach, math.pi * r_def)
    assert out.rho_prime == max(r_def, reach)
    assert consts == embedding_constant_bound(model, r_def, window.r_plus)
    np.testing.assert_allclose(
        (rise, strip), range_integrals(model, model._slopes,
                                       [(r_def, window.r_plus)])[:, 0],
        rtol=1e-12, atol=0.0)


def test_segment_cut_stays_at_or_above_r_min():
    # a window centred within 1e-9 of the horizon leaves no room in
    # [r_min, r0 (1 - 1e-9)): the segment cut reads r_min, where F' is
    # infinite, so both bounds read +inf and neither refuses the window
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    window = tubular_window(model, 4.0 * math.pi * 0.2**2 * (1 + 1e-10), 0.5)
    assert window.r0 * (1.0 - 1e-9) < model.r_min
    assert best_gh_bound(model, window).total == math.inf
    assert segment_limit_bound(model, window) == (math.inf, math.inf)


@pytest.mark.parametrize("call", [best_gh_bound, segment_limit_bound])
def test_one_embedding_constant_pass_per_bound(call, monkeypatch):
    # the rise of F and the strip over [cut, r_plus], and s at every cut
    # and r_minus, come from the table: no quadrature pass at all (one
    # stacked read before, and three before that: F, s, then s again)
    model = ManifoldModel(schwarzschild(3, 0.05), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    calls = []
    integrate = ManifoldModel._integrate_cells

    def counted(self, *args):
        calls.append(args)
        return integrate(self, *args)

    monkeypatch.setattr(ManifoldModel, "_integrate_cells", counted)
    call(model, window)
    assert len(calls) == 0


# the four (epsilon, D, alpha0) budget points of one certify op, whose deep
# wells have masses 1.4e-18 to 1.7e-21 under F ~ 28 at r_eps
@pytest.mark.parametrize("epsilon, D, alpha0", [
    (0.6461719548801922, 0.8869478201448215, 22.168687433745653),
    (0.7384796010890997, 1.6223883565597195, 49.52034022210898),
    (0.7151028561701925, 1.7294664543979166, 15.02073129763819),
    (0.6067539445640314, 1.769997601361779, 47.94670660411658),
])
def test_gh_rise_keeps_its_digits_where_F_is_large(epsilon, D, alpha0):
    # the rise of F over [r_eps, r_plus] is summed from the table's
    # increments, not taken as F(r_plus) - F(r_eps): it agrees with
    # quadrature over the range to 1e-12 (the difference of reads was
    # 3.1e-5 off on the last point), and embedding_constant_bound reads it
    # too
    delta = delta_budget(epsilon, D, alpha0, 3).delta
    r0 = math.sqrt(alpha0 / (4.0 * math.pi))
    model = ManifoldModel(deep_well(3, 0.9 * delta, alpha0, 10.0),
                          4.0 * (r0 + D))
    window = tubular_window(model, alpha0, D)
    r_eps = flat_certificate(model, alpha0, D, epsilon).r_eps
    out = gh_bound(model, window, r_eps)
    consts = embedding_constant_bound(model, r_eps, window.r_plus)
    assert float(model.F(r_eps)) > 1e9 * out.hausdorff_ambient
    assert out.hausdorff_ambient == consts.delta_F
    (rise,), = range_integrals(model, model._f_prime,
                               [(r_eps, window.r_plus)])
    assert out.hausdorff_ambient == pytest.approx(rise, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_sweep_reads_both_bounds_from_one_batch(delta, monkeypatch):
    # a sweep row scores the best-cut candidates and the segment cut in one
    # _gh_terms batch, the segment cut left out of the argmin; every row
    # equals its cut scored alone, bit for bit
    alpha0, D = math.pi / 100, 0.05
    r0 = math.sqrt(alpha0 / (4.0 * math.pi))
    profile = deep_well(3, delta, alpha0, 10.0)
    s0 = float(ManifoldModel(profile, 4.0 * (r0 + D)).s(r0))
    model = ManifoldModel(profile, 4.0 * (r0 + 1.05 * s0))
    window = tubular_window(model, alpha0, 1.05 * s0)
    gh, seg = _best_and_segment_bounds(model, window)
    assert gh == gh_bound(model, window, gh.r_eps)
    cut = max(math.sqrt(2.0 * model.adm_mass * window.r0), model.r_min)
    alone = ghdist._gh_terms(model, window, np.array([cut]))
    assert seg == (alone["rho"][0], alone["rho_prime"][0])
    batches = []
    terms = ghdist._gh_terms

    def counted(*args):
        batches.append(args[2].size)
        return terms(*args)

    monkeypatch.setattr(ghdist, "_gh_terms", counted)
    (row,) = run_sweep("deep-well", [delta], alpha0=alpha0, D=D,
                       epsilon=0.02)
    assert batches == [_cut_candidates(model, window).size + 1]
    assert (row["gh_total"], row["rho"], row["rho_prime"]) == (
        gh.total, seg.rho, seg.rho_prime)
