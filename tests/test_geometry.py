"""Tests for the graph reconstruction: F, arclength, volumes, windows."""

from __future__ import annotations

import math
import pickle
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from massflat import geometry
from massflat.certificates import flat_certificate
from massflat.embedding import tube_distance
from massflat.errors import (DomainError, QuadratureError, RangeError,
                             WindowOverflowError)
from massflat.geometry import (
    ManifoldModel,
    _adaptive_cells,
    euclidean_annulus_volume,
    tubular_window,
)
from massflat.profiles import (
    ConstantPiece,
    CubicSplinePiece,
    HawkingProfile,
    PowerLawPiece,
    deep_well,
    flat,
    schwarzschild,
    sphere_radius,
    stripes,
    unit_sphere_area,
    validate,
)
from util import (count_panels, exact_arclength, random_spline_profile,
                  rows_of, two_run_integrate_cells, window_volumes)


def _schwarzschild_model(mass=0.1, r_cap=12.0):
    return ManifoldModel(schwarzschild(3, mass), r_cap)


def test_schwarzschild_graph_closed_form():
    # F(r) = 2 sqrt(2m (r - 2m)) in dimension 3
    for mass in (0.01, 0.1, 1.0):
        model = ManifoldModel(schwarzschild(3, mass), 20.0)
        rs = np.linspace(2.0 * mass * 1.0001, 18.0, 200)
        exact = 2.0 * np.sqrt(2.0 * mass * (rs - 2.0 * mass))
        np.testing.assert_allclose(model.F(rs), exact, rtol=1e-9)
        np.testing.assert_allclose(
            model.f_prime(rs), np.sqrt(2.0 * mass / (rs - 2.0 * mass)),
            rtol=1e-12)


def test_flat_model_is_the_identity():
    model = ManifoldModel(flat(3), 8.0)
    rs = np.linspace(0.0, 8.0, 17)
    assert np.all(model.F(rs) == 0.0)
    np.testing.assert_allclose(model.s(rs), rs, rtol=0, atol=1e-12)
    assert model.shell_volume(0.0, 1.0) == pytest.approx(4.0 * math.pi / 3.0,
                                                         rel=1e-12)
    assert model.shell_volume(1.0, 2.0) == pytest.approx(28.0 * math.pi / 3.0,
                                                         rel=1e-12)


def test_euclidean_annulus_volume_values():
    assert euclidean_annulus_volume(3, 0.0, 1.0) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-15)
    assert euclidean_annulus_volume(3, 1.0, 1.0) == 0.0
    assert euclidean_annulus_volume(4, 1.0, 2.0) == pytest.approx(
        2.0 * math.pi**2 * 15.0 / 4.0, rel=1e-15)
    with pytest.raises(RangeError):
        euclidean_annulus_volume(3, 2.0, 1.0)
    with pytest.raises(RangeError):
        euclidean_annulus_volume(3, -1.0, 1.0)


def test_schwarzschild_shell_volume_against_quadrature():
    # dV = omega r^2 sqrt(r / (r - 2m)) dr; scipy handles the sqrt endpoint
    mass = 0.1
    model = _schwarzschild_model(mass)
    omega = unit_sphere_area(3)

    def integrand(r):
        return omega * r * r * math.sqrt(r / (r - 2.0 * mass))

    ref, err = quad(integrand, 0.2, 1.0, points=[0.2], limit=200)
    assert err < 1e-7 * abs(ref)
    assert model.shell_volume(0.2, 1.0) == pytest.approx(ref, rel=1e-8)

    # second route on a smooth subrange: scrambled Sobol average
    a, b = 0.25, 1.0
    sob = qmc.Sobol(d=1, scramble=True, seed=5)
    xs = a + (b - a) * sob.random_base2(m=14).ravel()
    est = (b - a) * float(np.mean([integrand(x) for x in xs]))
    ref2, _ = quad(integrand, a, b)
    assert model.shell_volume(a, b) == pytest.approx(ref2, rel=1e-9)
    assert est == pytest.approx(ref2, rel=2e-4)


def test_shell_volume_is_additive():
    model = _schwarzschild_model(0.05)
    a, mid, b = 0.3, 0.9, 2.7
    whole = model.shell_volume(a, b)
    split = model.shell_volume(a, mid) + model.shell_volume(mid, b)
    assert split == pytest.approx(whole, rel=1e-10)


def test_arclength_inverse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_spline_profile(rng, int(rng.integers(3, 6)))
        model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))
        rs = np.sort(rng.uniform(model.r_min + 1e-6, model.r_cap, 40))
        ss = np.array([float(model.s(r)) for r in rs])
        assert np.all(np.diff(ss) > 0.0)
        back = np.array([float(model.r_of_s(v)) for v in ss])
        np.testing.assert_allclose(back, rs, rtol=4e-15, atol=0)


def _first_radius_reading(model, targets):
    """The smallest double r with model.s(r) >= each target > 0, by
    bisection over the doubles of [r_min, r_cap]."""
    lo = np.full(targets.shape, model.r_min)
    hi = np.full(targets.shape, model.r_cap)
    while True:
        open_ = np.nextafter(lo, hi) < hi
        if not open_.any():
            return hi
        mid = 0.5 * (lo + hi)
        up = model.s(mid) >= targets
        hi = np.where(open_ & up, mid, hi)
        lo = np.where(open_ & ~up, mid, lo)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_sweep_windows_end_on_a_root_of_s(delta):
    # the README deep-well sweep's windows, the certificate's and the GH
    # bounds', which starts on the boundary sphere: r_minus and
    # r_plus read s at their targets to 2 ulps, so they lie between the
    # bisection roots of s at target -+ 2 ulps.  A Newton iteration that
    # stopped at 1e-10 relative read s up to 9e-11 off (r_plus at 1e-4),
    # and moved with the table's layout
    alpha0, D = 0.0314159265358979, 0.05
    profile = deep_well(3, delta, alpha0, 10.0)
    r0 = sphere_radius(alpha0, 3)
    model = ManifoldModel(profile, 4.0 * (r0 + D))
    d_gh = 1.05 * float(model.s(r0))
    model_gh = ManifoldModel(profile, 4.0 * (r0 + d_gh), check=False)
    for m, half_width in ((model, D), (model_gh, d_gh)):
        w = tubular_window(m, alpha0, half_width)
        assert w.clamped == (m is model_gh) and w.s_plus < m.s_cap
        if w.clamped:
            assert (w.s_minus, w.r_minus) == (0.0, m.r_min)
        r = np.array([w.r_minus, w.r_plus])[w.clamped:]
        t = np.array([w.s_minus, w.s_plus])[w.clamped:]
        ulps = 2.0 * np.spacing(t)
        assert np.all(_first_radius_reading(m, t - ulps) <= r), (t, r)
        assert np.all(r < _first_radius_reading(
            m, np.nextafter(t + ulps, np.inf))), (t, r)


def test_hawking_mass_recovered_from_graph_slope():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = int(rng.integers(3, 6))
        p = random_spline_profile(rng, m)
        model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))
        rs = np.sort(rng.uniform(model.r_min + 0.05, model.r_cap, 50))
        fp = model.f_prime(rs)
        back = rs ** (m - 2) * fp * fp / (2.0 * (1.0 + fp * fp))
        np.testing.assert_allclose(back, p.mass(rs), rtol=1e-10,
                                   atol=1e-13 * max(p.adm_mass, 1e-6))


def test_hawking_mass_sandwich_along_model():
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = random_spline_profile(rng, int(rng.integers(3, 6)))
        model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))
        r1 = model.r_min + 0.25 * (model.r_cap - model.r_min)
        m1 = float(p.mass(r1))
        rs = np.linspace(r1, model.r_cap, 200)
        mh = p.mass(rs)
        assert np.all(mh >= m1 - 1e-9)
        assert np.all(mh <= p.adm_mass + 1e-9)


def test_s_prime_identity():
    model = _schwarzschild_model()
    rs = np.linspace(0.21, 10.0, 64)
    lhs = model.s_prime(rs) ** 2
    rhs = 1.0 + model.f_prime(rs) ** 2
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


def test_tubular_window_flat_exact():
    model = ManifoldModel(flat(3), 8.0)
    w = tubular_window(model, 4.0 * math.pi, 0.5)
    assert w.r0 == pytest.approx(1.0, rel=1e-14)
    assert w.r_minus == pytest.approx(0.5, abs=1e-12)
    assert w.r_plus == pytest.approx(1.5, abs=1e-12)
    assert not w.clamped


def test_tubular_window_clamps_at_origin():
    model = ManifoldModel(flat(3), 8.0)
    w = tubular_window(model, 4.0 * math.pi, 1.5)
    assert w.clamped
    assert w.s_minus == 0.0
    assert w.r_minus == 0.0
    assert w.r_plus == pytest.approx(2.5, abs=1e-12)


def test_tubular_window_against_bisection_oracle():
    mass = 0.1
    model = _schwarzschild_model(mass)
    omega = unit_sphere_area(3)
    alpha0 = omega * 1.44  # r0 = 1.2
    D = 0.7

    def s_exact(r):
        val, err = quad(lambda x: math.sqrt(x / (x - 2.0 * mass)),
                        2.0 * mass, r, points=[2.0 * mass], limit=200)
        assert err < 1e-8 * val
        return val

    w = tubular_window(model, alpha0, D)
    target_plus = s_exact(1.2) + D
    lo, hi = 1.2, model.r_cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if s_exact(mid) < target_plus:
            lo = mid
        else:
            hi = mid
    assert w.r_plus == pytest.approx(0.5 * (lo + hi), abs=1e-8)
    assert w.s_plus - w.s_minus == pytest.approx(2.0 * D, rel=1e-12)


def test_tubular_window_errors():
    model = _schwarzschild_model()
    with pytest.raises(WindowOverflowError) as ei:
        tubular_window(model, unit_sphere_area(3) * 400.0, 0.5)
    assert "increase r_cap" in str(ei.value)
    with pytest.raises(WindowOverflowError):
        tubular_window(model, 4.0 * math.pi, 50.0)
    with pytest.raises(DomainError):
        tubular_window(model, unit_sphere_area(3) * 0.01, 0.5)  # r0 <= r_min
    with pytest.raises(DomainError):
        tubular_window(model, -1.0, 0.5)


def test_quantities_flat_and_schwarzschild():
    model = ManifoldModel(flat(3), 8.0)
    q = model.quantities(2.0)
    assert q["R"] == 0.0
    assert q["A"] == pytest.approx(16.0 * math.pi, rel=1e-14)
    assert q["H"] == pytest.approx(1.0, rel=1e-14)
    assert q["m_H"] == 0.0

    mass = 0.1
    model = _schwarzschild_model(mass)
    q = model.quantities(1.0)
    assert abs(q["R"]) < 1e-8
    assert q["m_H"] == mass
    # H = (m-1) / (r sqrt(1 + F'^2)) with F'^2 = 2m/(r-2m)
    assert q["H"] == pytest.approx(2.0 / math.sqrt(1.25), rel=1e-12)


def test_quantities_stripe_curvature():
    p = stripes((1.0, 2.0), 0.1)
    model = ManifoldModel(p, 8.0)
    k = 0.2 / 8.0
    for r in (1.1, 1.25, 1.4):
        q = model.quantities(r)
        assert q["R"] == pytest.approx(6.0 * k, rel=1e-10)
        assert q["m_H_prime"] > 0.0


def test_quantities_range_check():
    model = _schwarzschild_model()
    with pytest.raises(RangeError):
        model.quantities(model.r_min * 0.5)
    with pytest.raises(RangeError):
        model.quantities(model.r_cap * 1.5)
    # an array is refused if any radius is r_min itself
    with pytest.raises(RangeError, match="requires r > r_min"):
        model.quantities(np.array([1.0, model.r_min]))


def test_r_disk_flat_schwarzschild_and_spline():
    # r_disk is the knot where m_H stops vanishing: +inf on a flat model,
    # r_min where m_H(r_min) > 0, 0.0 under a head that is curved from the
    # origin on (stripes' power law), and exactly the first knot of the
    # spline after a zero head
    assert ManifoldModel(flat(3), 8.0).r_disk == math.inf
    model = _schwarzschild_model()
    assert model.r_disk == model.r_min == 0.2
    assert ManifoldModel(stripes((1.0, 2.0), 0.05), 4.0).r_disk == 0.0
    rng = np.random.default_rng(41)
    for m in (3, 4, 5):
        while True:
            p = random_spline_profile(rng, m)
            if p.r_min == 0.0:
                break
        model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))
        r1 = float(p.pieces[1].knots[0])
        assert model.r_disk == r1
        assert model.F(r1) == 0.0 < model.F(np.nextafter(r1, 1.0))


def test_sup_grad_matches_knot_scan():
    model = _schwarzschild_model(0.2)
    # F' decreases in r for Schwarzschild, so the sup sits at the left end
    got = model.sup_grad(0.5, 3.0)
    assert got == pytest.approx(math.sqrt(0.4 / 0.1), rel=1e-12)
    with pytest.raises(RangeError):
        model.sup_grad(3.0, 0.5)


def test_graph_excess_schwarzschild():
    # integral of (F(r) - F(a)) over the annulus, against direct quadrature
    # of the closed form F(r) = 2 sqrt(2m (r - 2m))
    mass = 0.05
    model = _schwarzschild_model(mass)
    a, b = 0.5, 2.0
    omega = unit_sphere_area(3)

    def f_graph(r):
        return 2.0 * math.sqrt(2.0 * mass * (r - 2.0 * mass))

    ref, err = quad(lambda r: (f_graph(r) - f_graph(a)) * omega * r * r, a, b)
    assert err < 1e-9 * ref
    assert model.graph_excess(a, b) == pytest.approx(ref, rel=1e-9)


def test_model_requires_room_beyond_boundary():
    with pytest.raises(DomainError):
        ManifoldModel(schwarzschild(3, 1.0), 2.0)  # r_cap = r_min


def test_model_refuses_a_cap_where_the_wall_overflows():
    # 8.12^341 is past the largest double: refused up front, naming the
    # dimension and r_cap, with no overflow warning (warnings are errors)
    with pytest.raises(DomainError, match=r"r\^\(m-2\) is not a finite "
                       r"double at r_cap = 8\.12 in dimension 343"):
        ManifoldModel(schwarzschild(343, 1e-3), 8.12)
    # a gap that overflows where r^(m-2) does not (not admissible: the
    # refusal comes before validation)
    heavy = HawkingProfile(3, 0.0, (PowerLawPiece(0.0, 10.0, 1e-3, 400.0),
                                    ConstantPiece(10.0, math.inf, 1e-3)))
    with pytest.raises(DomainError, match=r"the wall gap is not a finite "
                       r"double at r_cap = 8\.0 in dimension 3"):
        ManifoldModel(heavy, 8.0)
    assert ManifoldModel(schwarzschild(200, 1e-3), 8.12).s_cap > 0.0


def test_model_rejects_inadmissible_profile():
    from massflat.errors import InvalidProfileError
    from massflat.profiles import ConstantPiece, HawkingProfile, PowerLawPiece
    bad = HawkingProfile(3, 0.0, (
        PowerLawPiece(0.0, 1.0, 0.6, 1.0),
        ConstantPiece(1.0, math.inf, 0.6),
    ))
    with pytest.raises(InvalidProfileError):
        ManifoldModel(bad, 4.0)


def test_deep_well_depth_exceeds_requested():
    for depth in (2.0, 10.0):
        p = deep_well(3, 0.2, 4.0 * math.pi, depth)
        model = ManifoldModel(p, 6.0)
        assert float(model.s(1.0)) >= depth


def test_validate_runs_inside_model_build():
    rng = np.random.default_rng(8)
    p = random_spline_profile(rng, 4)
    assert validate(p).ok
    model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 2.0), check=False)
    assert model.dimension == 4


def test_kronrod_rule_constants():
    # K21 (all 21 nodes) integrates x^k on [-1, 1] exactly for k <= 31, the
    # Gauss rule G10 on the first 10 nodes for k <= 19
    x, k21, g10 = geometry._GL_X, geometry._K21_W, geometry._G10_W
    assert x.shape == k21.shape == (21,) and g10.shape == (10,)
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(k21 * x**k) - exact) <= 1e-15, k
        if k <= 19:
            assert abs(np.sum(g10 * x[:10]**k) - exact) <= 1e-15, k
    # the first 10 of the 21 nodes carry the 10-point Gauss-Legendre rule;
    # the other 11 are new nodes
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(np.sort(x[:10]), gauss_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(g10[np.argsort(x[:10])], gauss_w, rtol=0,
                               atol=1e-15)
    assert np.unique(x).size == 21
    assert abs(k21.sum() - 2.0) <= 1e-15 and abs(g10.sum() - 2.0) <= 1e-15


def test_panel_partials_integrate_polynomials_exactly():
    # a table cell's partial from its start, f (p(0) + f R(f)) with R read
    # at the 22 Chebyshev points, is the integral of the polynomial p of
    # degree <= 22 through its 23 values to 4e-15 relative, next to the
    # start as well, where p(0) or p'(0) is nonzero; its slope is p to 1e-12
    t = (geometry._TABLE_X + 1.0) / 2.0
    start = geometry._START
    assert t[start] == 0.0 and np.isfinite(geometry._TO_CHEBYSHEV).all()
    # p = p0 + c f + f^k, one cell each, read at fractions f
    cases = [(k, p0, 1.0 - p0) for k in range(23) for p0 in (0.0, 1.0)]
    nodes = np.array([p0 + c * t + t**k for k, p0, c in cases])
    f = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12, 1.0],
                        np.linspace(0.01, 0.99, 9), geometry._CHEB_F])
    cell = np.repeat(np.arange(len(cases)), f.size)
    f = np.tile(f, len(cases))
    got, slope = ManifoldModel._panel_partials(
        geometry._panels(cell, nodes, np.ones(len(cases))), f, slope=True)
    k, p0, c = np.array(cases)[cell].T
    want = p0 * f + c * f**2 / 2.0 + f ** (k + 1) / (k + 1)
    assert np.all(np.abs(got - want) <= 4e-15 * want), np.max(
        np.abs(got - want) / np.maximum(want, 1e-300))
    # off the Chebyshev points, which read R' as 0 (Newton's slope only)
    off = ~np.isin(f, geometry._CHEB_F)
    want = p0 + c * f + f**k
    assert np.all(np.abs(slope - want)[off] <= 1e-12 * want[off])


def test_adaptive_cells_fails_fast_on_non_finite_panel():
    # an infinite integrand on one cell and a zero-width cell, where the
    # panel product is inf * 0; bisection cannot cure either
    sizes = []

    def diverging(x):
        sizes.append(x.size)
        return np.full_like(x, np.inf)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError,
                           match=r"on \[0\.25, 0\.75\] \(panel value inf"):
            _adaptive_cells(diverging, [0.25, 0.5], [0.75, 0.5], 1e-12)
    # the first pass only: one call over both cells' nodes
    assert sizes == [2 * geometry._GL_X.size]


def test_adaptive_cells_raises_at_the_depth_limit():
    # a jump the panels cannot resolve to the tolerance: every level halves
    # the piece holding it until the depth limit names the original cell
    calls = []

    def step(x):
        calls.append(x.size)
        return np.where(x < 0.4, 0.0, 1.0)

    with pytest.raises(QuadratureError,
                       match=r"did not converge on \[0\.0, 1\.0\] within 50 "
                             r"bisections \(piece \[0\.3999"):
        _adaptive_cells(step, [0.0], [1.0], 1e-13)
    # one call per level: level 0 and the 50 below it
    assert len(calls) == 51


def _spline_model(seed):
    p = random_spline_profile(np.random.default_rng(seed), 3 + seed % 3)
    return ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))


_BATCH_MODELS = {
    "schwarzschild": lambda: _schwarzschild_model(0.1, 12.0),
    "deep-well": lambda: ManifoldModel(
        deep_well(3, 0.02, 4.0 * math.pi, 10.0), 8.0),
    # near-wall cells here need the tolerance floor, which a shared scale
    # would change
    "deep-well-small": lambda: ManifoldModel(
        deep_well(3, 1e-5, 0.01 * math.pi, 10.0), 1.0),
    "schwarzschild-tiny": lambda: _schwarzschild_model(1e-17, 6.0),
    "stripes": lambda: ManifoldModel(stripes((1.0, 2.0, 3.0, 4.0), 0.1), 8.0),
    "flat": lambda: ManifoldModel(flat(3), 8.0),
    "spline-0": lambda: _spline_model(0),
    "spline-1": lambda: _spline_model(1),
    "spline-5": lambda: _spline_model(5),
}


@pytest.mark.parametrize("name", sorted(_BATCH_MODELS))
def test_batched_queries_equal_the_per_point_loop(name):
    model = _BATCH_MODELS[name]()
    rng = np.random.default_rng(11)
    rs = np.concatenate([
        [model.r_min], model.knots, [model.r_cap],
        rng.uniform(model.r_min, model.r_cap, 200),
        model.r_min + (model.knots[5] - model.r_min) * rng.random(100)])
    for query in (model.s, model.F):
        np.testing.assert_array_equal(
            query(rs), np.array([query(float(r)) for r in rs]))
    inner = rs[rs > model.r_min]
    batch = model.quantities(inner)
    loop = [model.quantities(float(r)) for r in inner]
    for key, values in batch.items():
        np.testing.assert_array_equal(values, [q[key] for q in loop], key)
    ss = np.concatenate([[0.0], model._Fs_knots[1], [model.s_cap],
                         rng.uniform(0.0, model.s_cap, 40)])
    np.testing.assert_array_equal(
        model.r_of_s(ss), np.array([model.r_of_s(float(v)) for v in ss]))
    r_b = 0.5 * (model.r_min + model.r_cap)
    ras = np.concatenate([[model.r_min, r_b], model.knots[model.knots < r_b],
                          rng.uniform(model.r_min, r_b, 20)])
    np.testing.assert_array_equal(
        model.sup_grad(ras, r_b),
        np.array([model.sup_grad(float(r), r_b) for r in ras]))


@pytest.mark.parametrize("name", sorted(_BATCH_MODELS))
def test_stacked_F_and_s_read_equals_each_alone(name):
    # the rises of F and s read both rows of the table at once: each
    # rise in a batch is the rise read alone, from r_min, knots and radii
    # off them, up to r_b inside a cell and up to r_cap
    model = _BATCH_MODELS[name]()
    rng = np.random.default_rng(12)
    ras = np.concatenate([
        [model.r_min], model.knots[::4],
        rng.uniform(model.r_min, model.r_cap, 60),
        model.r_min + (model.knots[3] - model.r_min) * rng.random(20)])
    for r_b in (model.r_cap, float(np.median(ras))):
        below = ras[ras <= r_b]
        both = model._F_and_s_rises(below, r_b)
        assert both.shape == (2, below.size)
        for k, r_a in enumerate(below):
            np.testing.assert_array_equal(
                both[:, k], model._F_and_s_rises([r_a], r_b)[:, 0])


@pytest.mark.parametrize("name", sorted(_BATCH_MODELS))
def test_r_of_s_is_exact_at_knots(name):
    model = _BATCH_MODELS[name]()
    np.testing.assert_array_equal(model.r_of_s(model.s(model.knots)),
                                  model.knots)


_KNOT_MODELS = {
    "schwarzschild": lambda: _schwarzschild_model(0.1, 12.0),
    "deep-well": lambda: ManifoldModel(
        deep_well(3, 0.02, 4.0 * math.pi, 10.0), 8.0),
    "deep-well-no-boundary": lambda: ManifoldModel(
        deep_well(3, 0.02, 4.0 * math.pi, 10.0, with_boundary=False), 8.0),
    "deep-well-4d": lambda: ManifoldModel(
        deep_well(4, 0.05, 2.0 * math.pi**2, 3.0), 6.0),
    "stripes": lambda: ManifoldModel(stripes((1.0, 2.0, 3.0, 4.0), 0.1), 8.0),
    **{f"spline-{k}": (lambda k=k: _spline_model(k)) for k in range(6)},
}


_INVARIANT_MODELS = {
    "schwarzschild": lambda: _schwarzschild_model(0.05, 8.0),
    "stripes": lambda: ManifoldModel(stripes((1.0, 2.0, 3.0, 4.0), 0.1), 8.0),
    "deep-well": lambda: ManifoldModel(
        deep_well(3, 0.02, 4.0 * math.pi, 10.0), 8.0),
    "deep-well-4d-no-boundary": lambda: ManifoldModel(
        deep_well(4, 0.05, 2.0 * math.pi**2, 3.0, with_boundary=False), 6.0),
    **{f"spline-{k}": (lambda k=k: _spline_model(k)) for k in range(9)},
}


def test_quantities_sign_agreement_and_fd_slope():
    # m_H = r^(m-2) F'^2 / (2 (1 + F'^2)) makes R = 2 (m-1) m_H' / r^(m-1)
    # an identity, so the graph curvature must match the profile's own slope
    rng = np.random.default_rng(5)
    h = 1e-6
    for name, build in _INVARIANT_MODELS.items():
        model = build()
        p, m = model.profile, model.dimension
        rs = rng.uniform(model.r_min, model.r_cap, 1000)
        rs = rs[rs > model.r_min + h]
        q = model.quantities(rs)
        curv, mp = q["R"], q["m_H_prime"]
        identity = 2.0 * (m - 1) * mp / rs ** (m - 1)
        scale = np.maximum(np.abs(curv), rs ** -2.0)
        assert np.all(np.abs(curv - identity) <= 1e-13 * scale), name
        fd = (p.mass(rs + h) - p.mass(rs - h)) / (2.0 * h)
        np.testing.assert_allclose(mp, fd, rtol=1e-5, atol=1e-8, err_msg=name)
        strict = np.abs(mp) > 1e-8
        assert np.all(np.sign(curv[strict]) == np.sign(mp[strict])), name


_SLOPE_MODELS = {**{f"batch-{k}": v for k, v in _BATCH_MODELS.items()},
                 **{f"invariant-{k}": v for k, v in _INVARIANT_MODELS.items()}}


@pytest.mark.parametrize("name", sorted(_SLOPE_MODELS))
def test_one_pass_over_both_slopes_equals_each_alone(name):
    # the table round over the stacked (F', s') keeps each row's own
    # acceptance, so each row of the table reads what its slope reads
    # integrated alone over the same cells, singular models too
    model = _SLOPE_MODELS[name]()
    a, b = model.knots[:-1], model.knots[1:]
    for row, alone in zip(model._inc, (model.f_prime, model.s_prime)):
        np.testing.assert_array_equal(row, model._integrate_cells(alone, a, b))
    np.testing.assert_array_equal(model._Fs_knots[:, 1:],
                                  np.cumsum(model._inc, axis=1))


# the _BATCH_MODELS whose profile starts on a minimal boundary sphere
_SINGULAR_MODELS = ("deep-well", "deep-well-small", "schwarzschild",
                    "schwarzschild-tiny", "spline-5")


@pytest.mark.parametrize("name", _SINGULAR_MODELS)
def test_one_run_per_integral_equals_the_two_run_split(name, monkeypatch):
    # the cells under u = sqrt(r - r_min) share one _adaptive_cells run with
    # the rest, in tolerance groups of their own: the table pass equals the
    # split into two runs bit for bit, in one run, which bisects as deep as
    # the deeper of the two.  The split's second run gives the deep wells'
    # ride cells their ride chart too.  Reads that straddle _sub_edge run no
    # quadrature at all: they read the table's panels, and so do the window
    # volumes.
    model = _BATCH_MODELS[name]()
    assert model._singular
    ride = name.startswith("deep-well")
    assert bool(model._ride) == ride
    rng = np.random.default_rng(14)
    edge, knots = model._sub_edge, model.knots
    e = int(np.searchsorted(knots, edge))
    assert knots[e] == edge
    rs = np.concatenate([
        model.r_min + (edge - model.r_min) * rng.random(6), [edge],
        rng.uniform(edge, model.r_cap, 30)])
    r_a = 0.5 * (knots[e + 3] + knots[e + 4])
    r_b = 0.5 * (r_a + model.r_cap)
    below = knots[e - 1]
    width = edge - below

    def swing_and_cliff(r):
        # a few periods in the cell below the edge, which their own
        # tolerance scale bisects, and a cliff above it, whose scale would
        # accept them
        return np.where(r > edge, 1e12, np.sin(8.0 * (r - below) / width))

    queries = {
        "groups": lambda: model._integrate_cells(
            swing_and_cliff, knots[e - 1:e + 1], knots[e:e + 2]),
        # the table round's rows, summed into the tables at the knots
        # (test_one_pass_over_both_slopes_equals_each_alone)
        **{f"table {k}": (lambda f=f: np.cumsum(model._integrate_cells(
            f, knots[:-1], knots[1:])))
           for k, f in enumerate(rows_of(model._slopes))},
    }
    integrate = ManifoldModel._integrate_cells
    panels = count_panels(monkeypatch)
    model.s(rs), model.F(rs)
    model.r_of_s(rng.uniform(0.0, model.s_cap, 30))
    model._window_volumes(model.r_min, r_a, r_b)
    assert panels.passes == 0
    for what, query in queries.items():
        monkeypatch.setattr(ManifoldModel, "_integrate_cells",
                            two_run_integrate_cells)
        start = len(panels.runs)
        reference = query()
        split = panels.runs[start:]
        assert len(split) == 2, what
        monkeypatch.setattr(ManifoldModel, "_integrate_cells", integrate)
        start = len(panels.runs)
        np.testing.assert_array_equal(query(), reference, what)
        assert panels.runs[start:] == [max(split)], what


# _BATCH_MODELS and 4-D and 5-D deep wells, with and without a boundary
_VOLUME_MODELS = {
    **_BATCH_MODELS,
    **{f"deep-well-{m}d{tag}": (
        lambda m=m, wb=wb: ManifoldModel(deep_well(
            m, 1e-4, unit_sphere_area(m), 3.0, with_boundary=wb), 8.0))
       for m in (4, 5) for tag, wb in (("", True), ("-no-boundary", False))},
}


@pytest.mark.parametrize("name", sorted(_VOLUME_MODELS))
def test_window_volumes_agree_with_range_quadrature(name):
    # the window shell, the graph excess, the deep shell, the rise and the
    # strip read off the table agree with per-range adaptive quadrature of
    # their densities to 1e-13 (3e-14 at most when measured): on windows
    # from r_min, through boundary and ride charts, and on random ones
    model = _VOLUME_MODELS[name]()
    rng = np.random.default_rng(3)
    windows = [np.sort(rng.uniform(model.r_min, model.r_cap, 3))
               for _ in range(3)]
    windows.append([model.r_min, *windows[0][1:]])
    for ends in windows:
        np.testing.assert_allclose(model._window_volumes(*ends),
                                   window_volumes(model, *ends), rtol=1e-13,
                                   atol=0.0, err_msg=str(ends))


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_sweep_window_volumes_agree_with_range_quadrature(delta):
    # the README deep-well sweep's certificate windows, and its GH windows
    # from the boundary sphere up to r0 and on to r_plus
    alpha0, D = math.pi / 100, 0.05
    profile = deep_well(3, delta, alpha0, 10.0)
    r0 = sphere_radius(alpha0, 3)
    model = ManifoldModel(profile, 4.0 * (r0 + D))
    cert = flat_certificate(model, alpha0, D, 0.02)
    d_gh = 1.05 * float(model.s(r0))
    model_gh = ManifoldModel(profile, 4.0 * (r0 + d_gh), check=False)
    gh = tubular_window(model_gh, alpha0, d_gh)
    for m, ends in ((model, (cert.r_minus, cert.r_eps, cert.r_plus)),
                    (model_gh, (gh.r_minus, r0, gh.r_plus))):
        np.testing.assert_allclose(m._window_volumes(*ends),
                                   window_volumes(m, *ends), rtol=1e-13,
                                   atol=0.0, err_msg=str(ends))


@pytest.mark.parametrize("mass", [0.05, 1e-6])
def test_window_volumes_against_mpmath(mass):
    # the README certificate window of 3-D Schwarzschild, its deep shell
    # from the horizon, where s' carries (r - r_min)^(-1/2) under the
    # boundary chart: shell_volume, graph_excess and the deep shell agree
    # with 40-digit integrals of their closed-form densities to 1e-13
    mpmath = pytest.importorskip("mpmath")
    model = _schwarzschild_model(mass, 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    r_a, r_b = window.r_minus, window.r_plus
    shell, excess, deep = model._window_volumes(model.r_min, r_a, r_b)[:3]
    assert shell == model.shell_volume(r_a, r_b)
    assert excess == model.graph_excess(r_a, r_b)
    assert deep == model.shell_volume(model.r_min, r_a)
    with mpmath.workdps(40):
        two_m, a, b = (mpmath.mpf(x) for x in (model.r_min, r_a, r_b))
        omega = 4 * mpmath.pi

        def shell_density(r):
            return omega * r * r * mpmath.sqrt(r / (r - two_m))

        def excess_density(r):
            return omega * (b**3 - r**3) / 3 * mpmath.sqrt(two_m / (r - two_m))

        # the deep range spans five decades at mass 1e-6
        cuts = [two_m * (a / two_m) ** (mpmath.mpf(j) / 24) for j in range(25)]
        cuts[-1] = a
        for got, want in ((shell, mpmath.quad(shell_density, [a, b])),
                          (excess, mpmath.quad(excess_density, [a, b])),
                          (deep, mpmath.quad(shell_density, cuts))):
            assert abs(mpmath.mpf(got) - want) <= 1e-13 * want, (got, want)


class _BumpedModel(ManifoldModel):
    """A model whose F' carries a narrow bump inside one knot cell of its
    layout, which the F row of the table pass bisects while the s row
    accepts the cell whole."""

    def _slopes(self, r):
        out = super()._slopes(r)
        out[0] += 0.01 * np.exp(-((np.asarray(r) - 2.5) / 0.002) ** 2)
        return out


# _BATCH_MODELS, a deep well with cells on both sides of its ride knots and
# the bumped model, whose table pass bisects
_PANEL_MODELS = {
    **_BATCH_MODELS,
    "deep-well-rides": lambda: ManifoldModel(
        deep_well(3, 1e-5, math.pi / 100, 10.0), 40.0),
    "stripes-bumped": lambda: _BumpedModel(
        stripes((1.0, 2.0, 3.0, 4.0), 0.1), 8.0),
}


@pytest.mark.parametrize("name", sorted(_PANEL_MODELS))
def test_panel_reads_agree_with_quadrature_from_the_cell_start(name):
    # F and s off the table's knots read the table plus the panel partial of
    # their table cell; they agree with adaptive quadrature from the start
    # of their cell to 1e-13, in every table cell: boundary charts on
    # schwarzschild-tiny, both ride charts on deep-well-rides, the cells
    # the table pass halved on stripes-bumped.  The quadrature's own nodes
    # round to ulps of r, which moves it by up to a few slope * ulp(r)
    # where a read lies next to a cell start.
    model = _PANEL_MODELS[name]()
    knots = model.knots
    q = model._cells[2]
    if name == "deep-well-rides":
        assert (q[:, 1] < 0.0).any() and (q[:, 1] > 0.0).any()
    if name == "schwarzschild-tiny":
        assert (q[:, 0] != 0.0).any()
    rng = np.random.default_rng(21)
    fractions = np.concatenate([rng.random(knots.size - 1),
                                10.0 ** rng.uniform(-12.0, -1.0,
                                                    knots.size - 1)])
    cell = np.tile(np.arange(knots.size - 1), 2)
    r = np.minimum(knots[cell] + fractions * (knots[cell + 1] - knots[cell]),
                   knots[cell + 1])
    k = np.minimum(np.searchsorted(knots, r, side="right"), knots.size - 1)
    part = np.array([model._integrate_cells(f, knots[k - 1], r,
                                            np.arange(r.size))
                     for f in rows_of(model._slopes)])
    want = model._Fs_knots[:, k - 1] + part
    err = np.abs(np.array([model.F(r), model.s(r)]) - want)
    assert np.all(err <= 1e-13 * np.abs(want)
                  + 4.0 * model._slopes(r) * np.spacing(r)), err.max()


def _seed_12_spline(m):
    p = random_spline_profile(np.random.default_rng(12), m)
    return ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))


# the models whose table pass bisects a cell of their layout
_HALVED_MODELS = {
    "stripes-bumped": _PANEL_MODELS["stripes-bumped"],
    **{f"spline-seed-12-m{m}": (lambda m=m: _seed_12_spline(m))
       for m in (3, 4, 5)},
}


_TABLE_MODELS = {**_PANEL_MODELS, **_HALVED_MODELS}


@pytest.mark.parametrize("name", sorted(_TABLE_MODELS))
def test_every_table_cell_is_one_accepted_panel(name, monkeypatch):
    # every table cell is a knot cell that the table round accepts on its
    # first panel: integrated again in their charts, one row at a time, the
    # cells converge on one pass, with the increments the table keeps bit
    # for bit, and F and s run on from cell to cell exactly.  The panel
    # models, deep wells included, build in one round; the halved models
    # split the cells a round does not accept at the midpoints of their
    # charts and build in 2 to 4.
    panels = count_panels(monkeypatch)
    model = _TABLE_MODELS[name]()
    assert (1 < panels.passes <= 4) == (name in _HALVED_MODELS), \
        panels.cells
    assert np.all(np.diff(model.knots) > 0.0)
    np.testing.assert_array_equal(model._Fs_knots[:, 1:],
                                  np.cumsum(model._inc, axis=1))
    x0, width, q = model._cells
    for row, f in zip(model._inc, rows_of(model._slopes)):
        start = panels.passes
        inc = _adaptive_cells(
            lambda x, p: model._chart_values(f, x, p), x0, x0 + width,
            geometry._QUAD_REL, (q[:, 0] != 0.0).astype(np.intp), q)
        assert panels.passes == start + 1
        np.testing.assert_array_equal(inc, row)


# the README deep wells: the sweep's certificate models, the Python API
# example's, and the core of the deep-well tube that CI samples
_CHART_MODELS = {
    **_TABLE_MODELS,
    **{f"readme-sweep-{delta:g}": (lambda delta=delta: ManifoldModel(
        deep_well(3, delta, 0.0314159265358979, 10.0), 0.4))
       for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)},
    "readme-api": lambda: ManifoldModel(
        deep_well(3, 1e-4, 4.0 * math.pi, 10.0), 8.0),
    "readme-core": lambda: ManifoldModel(
        deep_well(3, 1e-5, 0.031415926535897934, 10.0), 40.0),
}


@pytest.mark.parametrize("name", sorted(_CHART_MODELS))
def test_every_chart_increases_with_r(name):
    # every chart, a ride chart left of its knot too, maps a cell's smaller
    # radius to its start: table cells and the leg cells of lengths and
    # angles run from lo < hi, the table keeps positive widths, and each
    # cell's increment is the K21 sum of the values it keeps, bit for bit
    model = _CHART_MODELS[name]()
    knots = model.knots
    x0, width, q = model._cells
    lo, hi = model._chart_rows(knots[:-1], knots[1:])[4:]
    assert np.all(lo < hi) and np.all(width > 0.0)
    np.testing.assert_array_equal(x0, lo)
    np.testing.assert_array_equal(
        model._inc,
        (model._nodes[..., :21] * geometry._K21_W).sum(-1) * width / 2)
    # leg cells between the cuts, and from inside the first one (in the
    # boundary chart on a singular model), turning at their start, near
    # it, halfway down to r_min, and far below
    for cuts in (model._cuts, model._length_cuts):
        a = np.concatenate([[model.r_min], cuts])
        b = np.append(cuts, model.r_cap)
        a, b = np.append(a, 0.5 * (a[0] + b[0])), np.append(b, b[0])
        for frac in (1.0, 1.0 - 1e-6, 0.5, 1e-3):
            c = np.maximum(a * frac, model.r_min)
            keep = c > 0.0  # an angle chart with c = 0 is constant
            for angle in (False, True):
                lo, hi = model._chart_rows(a[keep], b[keep], c[keep],
                                           angle)[4:]
                assert np.all(lo < hi), (frac, angle)


def test_count_panels_books_a_build_to_no_run(monkeypatch):
    # a leg integration, then a model build: the leg's passes belong to its
    # _adaptive_cells run, the build's rounds to none
    model = _schwarzschild_model(0.1, 8.0)
    panels = count_panels(monkeypatch)
    model._leg_integrals(np.array([0.3]), np.array([6.0]), np.array([0.25]),
                         False, np.zeros(1, int))
    k = panels.passes
    assert k > 1 and panels.runs == [k]
    _seed_12_spline(5)
    assert panels.runs == [k]
    assert panels.passes == k + 3


def test_a_non_finite_value_at_a_table_cell_end_is_refused():
    # no K21 node sees a cell's chart ends, so their values are checked at
    # build: an integrand infinite at one knot alone fails the build
    profile = stripes((1.0, 2.0, 3.0, 4.0), 0.1)
    knot = float(ManifoldModel(profile, 8.0).knots[20])

    class Blown(ManifoldModel):
        def _slopes(self, r):
            out = super()._slopes(r)
            out[1, np.asarray(r) == knot] = np.inf
            return out

    with pytest.raises(QuadratureError,
                       match=rf"table cell r in \[.*{knot!r}.*\binf\b"):
        Blown(profile, 8.0)


def test_a_table_still_bisecting_at_the_cap_names_its_cell(monkeypatch):
    # a table that keeps halving is refused after _MAX_DEPTH halvings,
    # naming in radii the first cell it would halve again: under a negative
    # relative target no round accepts a cell whole
    profile = stripes((1.0, 2.0, 3.0, 4.0), 0.1)
    lo, hi = ManifoldModel(profile, 8.0).knots[:2].tolist()
    monkeypatch.setattr(geometry, "_MAX_DEPTH", 3)
    monkeypatch.setattr(geometry, "_QUAD_REL", -1.0)
    with pytest.raises(QuadratureError, match=re.escape(
            f"table cell r in [{lo!r}, {lo + (hi - lo) / 8.0!r}] still "
            "bisects after 3 halvings")):
        ManifoldModel(profile, 8.0)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_singular_tables_build_in_one_pass(m, monkeypatch):
    # the u chart reaches to the last cell nearer r_min than its width, so
    # every table cell converges on its first panel.  With the chart on the
    # first knot interval only, the cells next to it bisected: 3-D
    # Schwarzschild at mass 1e-17 took passes of 123, 54 and 24 cells, the
    # boundary-sphere splines 221, 4 and 2
    models = [(schwarzschild(m, mass), r_cap)
              for mass in (1e-17, 1e-8, 1e-3, 0.05, 0.15)
              for r_cap in (6.0, 8.0, 20.0)]
    if m < 5:
        for seed in (3, 5, 6, 8, 9):
            p = random_spline_profile(np.random.default_rng(seed), m)
            models.append((p, float(p.pieces[1].knots[-1] + 3.0)))
    panels = count_panels(monkeypatch)
    for profile, r_cap in models:
        start = panels.passes
        model = ManifoldModel(profile, r_cap)
        assert model._singular
        assert panels.passes == start + 1, (profile, r_cap, panels.cells)


@pytest.mark.parametrize("r_cap", [0.4, 45.0])
def test_deep_well_tables_build_in_one_pass(r_cap, monkeypatch):
    # the ride chart runs across each ride knot's span, with knots graded
    # in t towards the span's far end, and the constant tail takes knots
    # graded towards the root of its wall gap: every table cell converges
    # on its first panel.  One to three knot cells bisected before, at
    # these r_caps of the README sweep's two models.
    panels = count_panels(monkeypatch)
    for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        start = panels.passes
        model = ManifoldModel(deep_well(3, delta, math.pi / 100, 10.0), r_cap)
        assert panels.passes == start + 1, (delta, panels.cells[start:])
        # the tail's first cell, which bisected towards the root of the
        # wall gap, lies no nearer that root than it is wide now
        tail = model.profile.pieces[-1]
        first = model.knots[model.knots >= tail.r_lo][:2]
        assert first[0] - 2.0 * tail.value >= first[1] - first[0]


def test_ride_spans_reach_past_the_ride_cell():
    # on the delta = 1e-2 well the even knot cell after each ride cell lies
    # nearer the ride knot than its width, and bisected beside the release
    # knot: it runs in the ride chart too.  The cell past the span does not.
    model = ManifoldModel(deep_well(3, 1e-2, math.pi / 100, 10.0), 0.4)
    core = next(p for p in model.profile.pieces if p.kind == "cubic-spline"
                and p.gap_space)
    even = np.linspace(core.r_lo, core.r_hi, 49)
    q = model._cells[2]
    assert len(model._ride) == 2
    for knot, side, w, edge in model._ride:
        beyond = even[even > knot][1] if side > 0 else even[even < knot][-2]
        assert edge == beyond, (knot, side)
        k, e = np.searchsorted(model.knots, [knot, edge])
        assert np.all(q[min(k, e):max(k, e), 1] == side * w), (knot, side)
        assert q[e if side > 0 else e - 1, 1] == 0.0


def test_quadrature_errors_name_radii():
    # a non-finite integrand on a cell under u = sqrt(r - r_min) is named
    # by its radii, not by u
    model = _schwarzschild_model(0.1, 8.0)
    edge, knots = model._sub_edge, model.knots
    bad = 0.5 * (knots[1] + knots[2])
    assert bad < edge

    def nan_below(r):
        return np.where(r < bad, np.nan, 1.0)

    with pytest.raises(QuadratureError,
                       match=r"non-finite integrand on r in \[") as exc:
        model._integrate_cells(nan_below, knots[:-1], knots[1:])
    lo, hi = map(float, re.search(r"r in \[(\S+), (\S+)\]",
                                  str(exc.value)).groups())
    assert lo == pytest.approx(model.r_min, rel=1e-14)
    assert hi == pytest.approx(knots[1], rel=1e-14)


def test_quadrature_errors_name_their_integral(monkeypatch):
    # a QuadratureError says which integral failed: the table, a leg's
    # length or angle, or the window shell, graph excess or deep shell
    # that a certificate reads off the table
    knots = _schwarzschild_model(0.05, 8.0).knots
    bad = 0.5 * (knots[20] + knots[21])

    class Holed(ManifoldModel):
        def _slopes(self, r):
            return np.where(np.abs(r - bad) < 1e-3, np.nan, super()._slopes(r))

    with pytest.raises(QuadratureError,
                       match=r"^table: non-finite integrand on r in \["):
        Holed(schwarzschild(3, 0.05), 8.0)
    model = _schwarzschild_model(0.05, 8.0)
    monkeypatch.setattr(model, "_s_prime", lambda r: np.full(r.shape, np.nan))
    for angle, label in ((False, "leg length"), (True, "leg angle")):
        with pytest.raises(QuadratureError, match=rf"^{label}: non-finite"):
            model._leg_integrals(np.array([1.0]), np.array([2.0]),
                                 np.array([0.5]), angle, np.zeros(1, int))
    # a table value that reads inf at one node of one cell (F' or s')
    r_deep, r_a, r_b = 0.3, 1.0, 2.0
    for row, r, label in ((1, 1.5, "window shell"), (0, 1.5, "graph excess"),
                          (1, 0.5, "deep shell")):
        model = _schwarzschild_model(0.05, 8.0)
        c = int(np.searchsorted(model.knots, r)) - 1
        nodes = model._nodes.copy()
        nodes[row, c, 15] = np.inf
        monkeypatch.setattr(model, "_nodes", nodes)
        with pytest.raises(QuadratureError, match=re.escape(
                f"{label}: table cell r in [{float(model.knots[c])!r}, "
                f"{float(model.knots[c + 1])!r}] reads a weighted integral "
                "of inf")):
            model._window_volumes(r_deep, r_a, r_b)


def test_unconverged_geodesic_leg_names_radii():
    # a leg turning on the release ride knot of this well does not converge
    # (its (r - c)^(-1/2) end meets the ride peak); the error names radii
    # inside the model, not the leg's chart coordinates
    profile = deep_well(3, 1e-5, math.pi / 100, 10.0)
    model = ManifoldModel(profile, 40.0)
    r_r = next(p for p in profile.pieces if p.kind == "cubic-spline"
               and p.gap_space).knots[2]
    for r_in in (r_r, r_r * (1.0 + 1e-9)):
        try:
            tube_distance(model, r_in, 2e-5, 0.0, 2e-5, 3.0)
        except QuadratureError as exc:
            spans = re.findall(r"r in \[(\S+), (\S+)\]", str(exc))
            assert spans, str(exc)
            for lo, hi in spans:
                assert model.r_min <= float(lo) <= float(hi) <= model.r_cap


def test_deep_well_build_evaluates_the_profile_once_per_call(monkeypatch):
    # the 1/sqrt peaks at the ride knots of a delta = 1e-6 well, about
    # 6e-15 wide in u, run under the ride chart across each knot's span;
    # an integrand call evaluates m_H and the wall gap together, once, for
    # both tables.  Only the calls made inside the quadrature count:
    # validation and the boundary gap also read the profile, one radius
    # each.
    evaluations = []
    panels = count_panels(monkeypatch)
    mass_and_gap = HawkingProfile._mass_and_gap

    def counted_mass_and_gap(self, r):
        if panels.inside:
            evaluations.append(np.size(r))
        return mass_and_gap(self, r)

    # the integrands read the profile through its unchecked evaluator
    monkeypatch.setattr(HawkingProfile, "_mass_and_gap", counted_mass_and_gap)
    ManifoldModel(deep_well(3, 1e-6, math.pi / 100, 10.0), 0.4)
    # one round, and one call for its 276 cells: a pass takes as many calls
    # as whole blocks of _BLOCK nodes it fills, and 276 cells fill one.  In
    # calls of at most _BLOCK nodes the round took two; with one ride cell
    # per knot the build took two levels (three calls), and bisecting
    # towards the peaks in r made 24 levels
    assert panels.cells == [276]
    assert len(evaluations) == 1


def test_deep_well_batch_across_the_core_equals_the_per_point_loop():
    # 2,001 radii across the core of a delta = 1e-6 well answer as a batch,
    # each as it answers alone.  Bisecting towards the ride knots in r once
    # took this batch past the bisection cap, which no radius alone reached.
    profile = deep_well(3, 1e-6, math.pi / 100, 10.0)
    core = next(p for p in profile.pieces if p.kind == "cubic-spline"
                and p.gap_space)
    model = ManifoldModel(profile, 1.0)
    rs = np.linspace(core.knots[0], core.knots[-1], 2001)
    np.testing.assert_array_equal(
        model.s(rs), np.array([model.s(float(r)) for r in rs]))


_RIDE_WELLS = {"3d-1e-2": (3, 1e-2), "3d-1e-4": (3, 1e-4),
               "3d-1e-6": (3, 1e-6), "4d-1e-4": (4, 1e-4)}


@pytest.mark.parametrize("name", sorted(_RIDE_WELLS))
def test_ride_cells_against_mpmath(name):
    # the descent into the ride knot r_w0, the release from r_r, and cells
    # ending at r_w0 from 1e-4 down to 1e-12 (relative) below it.  A cell
    # integral holds 1e-14 relative; a difference of s reads, which rounds
    # like s(b) itself, 1e-14 relative or 4 ulps of s(b).
    mpmath = pytest.importorskip("mpmath")
    m, delta = _RIDE_WELLS[name]
    profile = deep_well(m, delta, math.pi / 100, 10.0)
    core = next(p for p in profile.pieces if p.kind == "cubic-spline"
                and p.gap_space)
    r_p, r_w0, r_r, r_t = core.knots
    assert [e[:2] for e in core.ride_knots] == [(r_w0, -1), (r_r, 1)]
    model = ManifoldModel(profile, 1.0)
    cells = [(0, r_p, r_w0), (2, r_r, r_t)] + [
        (0, r_w0 * (1.0 - 10.0**-j), r_w0) for j in (4, 6, 9, 12)]
    for i, a, b in cells:
        exact = exact_arclength(mpmath, core, i, a, b)
        cell = model._integrate_cells(model.s_prime, [a], [b])[0]
        assert abs(mpmath.mpf(cell) - exact) <= 1e-14 * exact, (a, b)
        s_a, s_b = model.s(a), model.s(b)
        bound = max(1e-14 * exact, 4.0 * np.spacing(s_b))
        assert abs(mpmath.mpf(s_b) - mpmath.mpf(s_a) - exact) <= bound, (a, b)


@pytest.mark.parametrize("grazing", [False, True], ids=["turning", "grazing"])
def test_legs_into_a_descent_ride_knot_against_mpmath(grazing):
    # a geodesic leg turning at c in the descent segment [r_p, r_w0], or
    # grazing c from r1 = c (1 + 1e-9), carries its 1/sqrt(r - c) end and
    # the ride peak at r_w0 in one cell: split at its midpoint, the knot
    # half rides.  Length and angle hold 1e-13 relative.
    mpmath = pytest.importorskip("mpmath")
    profile = deep_well(3, 1e-5, math.pi / 100, 10.0)
    core = next(p for p in profile.pieces if p.kind == "cubic-spline"
                and p.gap_space)
    r_p, r_w0 = core.knots[:2]
    model = ManifoldModel(profile, 40.0)
    for c in (r_p, 3.5e-6, 0.5 * (r_p + r_w0)):
        lo = c * (1.0 + 1e-9) if grazing else c
        for angle in (False, True):
            got = model._leg_integrals(np.array([lo]), np.array([r_w0]),
                                       np.array([c]), angle, np.zeros(1, int))
            exact = exact_arclength(mpmath, core, 0, lo, r_w0, c, angle)
            assert abs(mpmath.mpf(got[0]) - exact) <= 1e-13 * exact, (c, angle)


def test_block_splitting_does_not_change_bits():
    # a batch spanning several integrand calls, or the most cells one call
    # takes (fewer than 2 _BLOCK nodes), or one cell more, in two calls,
    # equals its cells integrated a few at a time, with and without param;
    # every cell is its own tolerance group, so only the split differs.  A
    # stacked pass of panels, as a table round makes, gives each row's
    # panels alone, in any split.
    per_call = geometry._BLOCK // geometry._GL_X.size

    def peak(x):  # only the cells near 0.3 need bisection
        return 1.0 / (1e-4 + (x - 0.3) ** 2)

    def wave(x, p):
        return np.cos(p[:, None] * x) * peak(x)  # one p per cell

    def stacked(x):
        return np.stack([peak(x), np.sin(3.0 * x)])

    for n in (3 * per_call + 5, 2 * per_call, 2 * per_call + 1):
        edges = np.linspace(0.0, 2.0, n + 1)
        a, b = edges[:-1], edges[1:]
        c = np.linspace(1.0, 3.0, n)
        whole = _adaptive_cells(peak, a, b, 1e-12, np.arange(n))
        whole_p = _adaptive_cells(wave, a, b, 1e-12, np.arange(n), c)
        rows = np.array(geometry._panel_integrals(stacked, a, b))
        chunks = [slice(i, i + 7) for i in range(0, n, 7)]
        np.testing.assert_array_equal(whole, np.concatenate([
            _adaptive_cells(peak, a[k], b[k], 1e-12, np.arange(a[k].size))
            for k in chunks]))
        np.testing.assert_array_equal(whole_p, np.concatenate([
            _adaptive_cells(wave, a[k], b[k], 1e-12, np.arange(a[k].size),
                            c[k])
            for k in chunks]))
        # (value, gap) per row: each row's panels alone, and a few cells at
        # a time
        for j, f in enumerate((peak, lambda x: np.sin(3.0 * x))):
            np.testing.assert_array_equal(
                rows[:, j], geometry._panel_integrals(f, a, b))
        np.testing.assert_array_equal(rows, np.concatenate([
            geometry._panel_integrals(stacked, a[k], b[k]) for k in chunks],
            axis=-1))


_TABLE_ATTRS = ("knots", "_inc", "_Fs_knots", "_nodes", "_cells", "_ride",
                "_sub_edge", "_cuts")


@pytest.mark.parametrize("name", ["deep-well-rides", "schwarzschild-tiny",
                                  "spline-seed-12-m4", "stripes-bumped"])
def test_table_rounds_in_calls_of_7_cells_build_the_same_bits(name,
                                                              monkeypatch):
    # a table round takes its cells in one integrand call; split into
    # calls of at most 7 cells it builds every table byte for byte alike:
    # the ride and boundary charts, and the rounds that halve cells
    built = _TABLE_MODELS[name]()
    calls = []
    slopes = ManifoldModel._slopes

    def counted_slopes(self, r):
        calls.append(r.size)
        return slopes(self, r)

    panels = count_panels(monkeypatch)
    monkeypatch.setattr(ManifoldModel, "_slopes", counted_slopes)
    monkeypatch.setattr(geometry, "_BLOCK", 7 * geometry._GL_X.size)
    split = _TABLE_MODELS[name]()
    assert len(calls) == sum(max(n // 7, 1) for n in panels.cells)
    assert len(calls) > 3 * panels.passes
    for attr in _TABLE_ATTRS:
        assert pickle.dumps(getattr(split, attr)) == pickle.dumps(
            getattr(built, attr)), attr


def test_graded_knots_are_numpy_geomspace():
    # the closed form of a piece's geometric knots gives np.geomspace's
    # bits, ends included, on pieces spanning a factor 6 to 1e12 in r
    rng = np.random.default_rng(29)
    a = 10.0 ** rng.uniform(-12.0, 6.0, 10000)
    b = a * 10.0 ** rng.uniform(math.log10(6.0), 12.0, a.size)
    b[:3] = a[:3] * np.array([6.0 * (1.0 + 1e-15), 1e12, 7.0])
    for lo, hi in zip(a.tolist(), b.tolist()):
        assert hi / lo > 6.0
        want = np.geomspace(lo, hi, 33)
        assert geometry._graded(lo, hi).tobytes() == want.tobytes(), (lo, hi)


@pytest.mark.parametrize("name", sorted(_KNOT_MODELS))
def test_profile_breaks_are_model_knots(name):
    # _adaptive_cells cannot see a jump between a cell end and its outermost
    # Gauss nodes, so every radius where m_H or a derivative may jump has to
    # be a cell end, that is a model knot
    model = _KNOT_MODELS[name]()
    breaks = [model.r_min, model.r_cap]
    for piece in model.profile.pieces:
        breaks += [piece.r_lo, piece.r_hi]
        if isinstance(piece, CubicSplinePiece):
            breaks += list(piece.knots)
    breaks = np.array(breaks)
    inside = breaks[(breaks >= model.r_min) & (breaks <= model.r_cap)]
    assert inside.size > 2
    missing = np.setdiff1d(inside, model.knots)
    assert missing.size == 0, missing
    # the cells of the geodesic integrals end at the same breaks inside the
    # model, and at the edge of the boundary substitution, itself a knot
    cuts = breaks[(breaks > model.r_min) & (breaks < model.r_cap)]
    if model._singular:
        assert model._sub_edge in model.knots
        cuts = np.append(cuts, model._sub_edge)
    np.testing.assert_array_equal(model._cuts, np.unique(cuts))


@pytest.mark.parametrize("lam", [1.0, 1e-3, 1e-6])
def test_arclength_inverse_and_window_are_scale_covariant(lam):
    # s, r and D all scale by lam, so relative errors must not depend on it
    base = ManifoldModel(schwarzschild(3, 0.05), 8.0)
    model = ManifoldModel(schwarzschild(3, 0.05).scale(lam), 8.0 * lam)
    rs = lam * np.concatenate([
        0.1 + np.geomspace(1e-9, 1e-2, 7),
        np.linspace(0.1, 8.0, 41)[1:-1] + 0.0123])
    back = model.r_of_s(model.s(rs))
    np.testing.assert_allclose(back, rs, rtol=4e-15, atol=0)
    w1 = tubular_window(base, 4.0 * math.pi, 0.5)
    w = tubular_window(model, 4.0 * math.pi * lam**2, 0.5 * lam)
    for name in ("r0", "r_minus", "r_plus", "s0", "s_minus", "s_plus"):
        assert getattr(w, name) / lam == pytest.approx(
            getattr(w1, name), rel=4e-15), name


@pytest.mark.parametrize("mass", [1e-17, 0.05, 0.1, 1.0])
def test_schwarzschild_graph_and_arclength_against_mpmath(mass):
    # F = sqrt(8M (r - 2M)) and s = sqrt(r (r - 2M)) + 2M acosh(sqrt(r/2M))
    # at 50 digits, from just above the horizon out to r_cap
    mpmath = pytest.importorskip("mpmath")
    model = ManifoldModel(schwarzschild(3, mass), 8.0)
    r_min = model.r_min
    rs = np.unique(np.concatenate([
        r_min * (1.0 + np.geomspace(1e-14, 8.0 / r_min - 1.0, 60)),
        np.linspace(r_min, 8.0, 41)[1:]]))
    rs = rs[(rs > r_min) & (rs <= 8.0)]
    with mpmath.workdps(50):
        M = mpmath.mpf(mass)
        F_ref = [mpmath.sqrt(8 * M * (mpmath.mpf(r) - 2 * M)) for r in rs]
        s_ref = [mpmath.sqrt(mpmath.mpf(r) * (mpmath.mpf(r) - 2 * M))
                 + 2 * M * mpmath.acosh(mpmath.sqrt(mpmath.mpf(r) / (2 * M)))
                 for r in rs]
        for got, ref in ((model.F(rs), F_ref), (model.s(rs), s_ref)):
            err = max(abs((mpmath.mpf(g) - e) / e) for g, e in zip(got, ref))
            assert err <= 1e-13, float(err)


def test_batches_beyond_the_bisection_cap_are_answered():
    # the cap bounds the cells bisection adds, not the batch itself
    model = _schwarzschild_model(0.05, 8.0)
    rs = np.random.default_rng(5).uniform(model.r_min, model.r_cap, 250000)
    np.testing.assert_array_equal(
        model.s(rs), np.concatenate([model.s(rs[:125000]),
                                     model.s(rs[125000:])]))


def test_adaptive_cells_caps_what_bisection_adds():
    # noise never converges, so every pass doubles the pending cells until
    # they would pass the cap; the error names the first input cell
    rng = np.random.default_rng(0)
    edges = np.linspace(0.0, 1.0, 1001)
    with pytest.raises(QuadratureError,
                       match=r"did not converge on \[0\.0, 0\.001\] within "
                             r"7 bisections .* 256000 cells would be pending"):
        _adaptive_cells(lambda x: rng.random(x.shape), edges[:-1], edges[1:],
                        1e-12)


def test_slopes_where_the_wall_underflows():
    # in 4-D, r^(m-2) underflows below r ~ 1e-154, and m_H and the wall gap
    # with it; the slopes take their limit at the origin there instead of
    # reading 0/0 as a horizon
    model = ManifoldModel(flat(4), 8.0)
    assert model.f_prime(1e-200) == 0.0
    assert model.s_prime(1e-200) == 1.0
    assert model.s(1e-200) == pytest.approx(1e-200, rel=1e-12)
    assert model.F(1e-200) == 0.0


def test_origin_slopes_are_the_limits_of_every_head():
    # a plain spline head with m_H'(0) = c = 0.2 is a cone tip: F'^2 tends
    # to 2c / (1 - 2c) and s'^2 to 1 / (1 - 2c), curved from r = 0 on
    tip = HawkingProfile(3, 0.0, (
        CubicSplinePiece([0.0, 1.0], [0.0, 0.2], [0.2, 0.0]),
        ConstantPiece(1.0, math.inf, 0.2)))
    model = ManifoldModel(tip, 4.0)
    assert model.f_prime(0.0) == pytest.approx(math.sqrt(0.4 / 0.6),
                                               rel=1e-12)
    assert model.s_prime(0.0) == pytest.approx(1.0 / math.sqrt(0.6),
                                               rel=1e-12)
    assert model.r_disk == 0.0
    # the boundaryless deep wells' heads are power laws with exponent m - 2
    for p in (deep_well(3, 1e-3, 4.0 * math.pi, 5.0, with_boundary=False),
              deep_well(4, 0.02, 2.0 * math.pi**2, 2.0, with_boundary=False)):
        c = p.pieces[0].coefficient
        model = ManifoldModel(p, 8.0)
        assert model.f_prime(0.0) ** 2 == pytest.approx(2 * c / (1 - 2 * c),
                                                        rel=1e-15)
    for p in (flat(3), flat(4), stripes((1.0, 2.0), 0.1)):
        model = ManifoldModel(p, 4.0)
        assert (model.f_prime(0.0), model.s_prime(0.0)) == (0.0, 1.0)
