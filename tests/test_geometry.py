"""Tests for the graph reconstruction: F, arclength, volumes, windows."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from massflat.errors import (DomainError, QuadratureError, RangeError,
                             WindowOverflowError)
from massflat.geometry import (
    CSV_COLUMNS,
    ManifoldModel,
    _adaptive_cells,
    euclidean_annulus_volume,
    model_table,
    tubular_window,
    write_model_csv,
)
from massflat.profiles import (
    CubicSplinePiece,
    deep_well,
    flat,
    schwarzschild,
    stripes,
    unit_sphere_area,
    validate,
)
from util import random_spline_profile


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
        np.testing.assert_allclose(back, rs, rtol=1e-9, atol=1e-12)


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
    rad = q["radial"]
    assert rad is not None
    assert rad["m_H"] == pytest.approx(mass, rel=1e-10)
    assert abs(rad["R"]) < 1e-8


def test_quantities_stripe_curvature():
    p = stripes((1.0, 2.0), 0.1)
    model = ManifoldModel(p, 8.0)
    k = 0.2 / 8.0
    for r in (1.1, 1.25, 1.4):
        q = model.quantities(r)
        assert q["R"] == pytest.approx(6.0 * k, rel=1e-10)
        assert q["radial"]["R"] == pytest.approx(6.0 * k, rel=1e-8)
        assert q["m_H_prime"] > 0.0


def test_quantities_sign_agreement_and_fd_slope():
    rng = np.random.default_rng(5)
    p = random_spline_profile(rng, 3)
    model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))
    rs = rng.uniform(model.r_min + 0.1, model.r_cap - 0.1, 200)
    h = 1e-6
    for r in rs:
        q = model.quantities(float(r))
        fd = (p.mass(r + h) - p.mass(r - h)) / (2.0 * h)
        assert q["m_H_prime"] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        if abs(q["m_H_prime"]) > 1e-8:
            assert math.copysign(1.0, q["R"]) == math.copysign(
                1.0, q["m_H_prime"])


def test_quantities_range_check():
    model = _schwarzschild_model()
    with pytest.raises(RangeError):
        model.quantities(model.r_min * 0.5)
    with pytest.raises(RangeError):
        model.quantities(model.r_cap * 1.5)


def test_r_disk_flat_schwarzschild_and_spline():
    assert ManifoldModel(flat(3), 8.0).r_disk == math.inf
    model = _schwarzschild_model()
    assert model.r_disk == pytest.approx(model.r_min, abs=1e-9)
    # boundaryless spline with a zero head is flat out to the first knot
    rng = np.random.default_rng(41)
    while True:
        p = random_spline_profile(rng, 3)
        if p.r_min == 0.0:
            break
    model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 3.0))
    r1 = float(p.pieces[1].knots[0])
    assert model.r_disk <= r1 * (1.0 + 1e-6)
    assert model.F(0.9 * r1) == 0.0


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


def test_model_table_and_csv_round_trip(tmp_path):
    model = _schwarzschild_model()
    cols = model_table(model)
    assert set(cols) == set(CSV_COLUMNS)
    path = tmp_path / "table.csv"
    write_model_csv(model, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    body = np.array([[float(x) for x in row] for row in rows[1:]])
    for j, name in enumerate(CSV_COLUMNS):
        np.testing.assert_array_equal(body[:, j], cols[name])
    # rebuilding the model writes the identical file
    path2 = tmp_path / "table2.csv"
    write_model_csv(_schwarzschild_model(), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_validate_runs_inside_model_build():
    rng = np.random.default_rng(8)
    p = random_spline_profile(rng, 4)
    assert validate(p).ok
    model = ManifoldModel(p, float(p.pieces[1].knots[-1] + 2.0), check=False)
    assert model.dimension == 4


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
    # the first pass only: one GL16 and one GL8 evaluation over both cells
    assert sizes == [32, 16]


def test_adaptive_cells_raises_at_the_depth_limit():
    # a jump the panels cannot resolve to the tolerance: every pass halves
    # the piece holding it until the depth limit names the original cell
    calls = []

    def step(x):
        calls.append(x.size)
        return np.where(x < 0.4, 0.0, 1.0)

    with pytest.raises(QuadratureError,
                       match=r"did not converge on \[0\.0, 1\.0\] within 50 "
                             r"bisections \(piece \[0\.3999"):
        _adaptive_cells(step, [0.0], [1.0], 1e-13)
    assert len(calls) == 2 * 51


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
    ss = np.concatenate([[0.0], model._s_knots, [model.s_cap],
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
    # model, and at the edge of the boundary substitution
    cuts = breaks[(breaks > model.r_min) & (breaks < model.r_cap)]
    if model._singular:
        cuts = np.append(cuts, model.knots[1])
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
    np.testing.assert_allclose(back, rs, rtol=2e-10, atol=0)
    w1 = tubular_window(base, 4.0 * math.pi, 0.5)
    w = tubular_window(model, 4.0 * math.pi * lam**2, 0.5 * lam)
    for name in ("r0", "r_minus", "r_plus", "s0", "s_minus", "s_plus"):
        assert getattr(w, name) / lam == pytest.approx(
            getattr(w1, name), rel=2e-10), name


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
        _adaptive_cells(lambda x: rng.random(x.size), edges[:-1], edges[1:],
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
