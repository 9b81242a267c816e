"""Shared helpers for the test suite: random admissible profiles, counts
of the quadrature's work and of the piece evaluations, the rows of a
stacked integrand, and the plain forms the optimized code must reproduce:
the two-run split of ManifoldModel._integrate_cells, adaptive quadrature
over radial ranges, the summed wall gap of a constant piece on the wall,
and 40-digit arclengths and geodesic legs next to a ride knot."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from massflat import geometry
from massflat.geometry import _QUAD_REL
from massflat.profiles import (
    ConstantPiece,
    CubicSplinePiece,
    HawkingProfile,
    PowerLawPiece,
    monotone_slopes,
)


def random_spline_profile(rng: np.random.Generator,
                          dimension: int) -> HawkingProfile:
    """A random admissible profile: constant head, monotone spline, flat tail.

    Spline values at each knot are clamped below 0.9 times the wall height
    of the previous knot, so the (monotone) spline stays strictly below the
    wall across each interval.  Roughly half the draws carry a minimal
    boundary sphere, the rest start at r = 0 with zero mass.
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
    values[0] = v0
    v = v0
    for k in range(1, n_knot):
        cap = 0.9 * wall[k - 1]
        v = min(v + 0.8 * rng.random() * max(cap - v, 0.0), cap)
        values[k] = v

    slopes = monotone_slopes(knots, values)
    # the constant head and tail meet the spline with slope zero, which is
    # always inside the Fritsch-Carlson monotone region
    slopes[0] = 0.0
    slopes[-1] = 0.0

    pieces = [
        ConstantPiece(r_min, float(knots[0]), float(values[0])),
        CubicSplinePiece(knots=[float(x) for x in knots],
                         values=[float(x) for x in values],
                         slopes=[float(x) for x in slopes]),
        ConstantPiece(float(knots[-1]), np.inf, float(values[-1])),
    ]
    return HawkingProfile(dimension=m, r_min=float(r_min),
                          pieces=tuple(pieces))


@dataclass
class PanelCounts:
    """The quadrature work seen by count_panels: geometry._panel_integrals
    passes, and the geometry._adaptive_cells runs they belong to."""

    cells: List[int] = field(default_factory=list)  # the cells of each pass
    runs: List[int] = field(default_factory=list)  # the passes of each run
    inside: bool = False  # true while a pass runs
    running: bool = False  # true while a run runs

    @property
    def passes(self) -> int:
        return len(self.cells)

    @property
    def nodes(self) -> int:
        return geometry._GL_X.size * sum(self.cells)


def count_panels(monkeypatch) -> PanelCounts:
    """Count every geometry._panel_integrals pass, and every
    geometry._adaptive_cells run, made from now on.  A pass belongs to the
    run it is made in; a table build's passes belong to none."""
    counts = PanelCounts()
    panel, adaptive = geometry._panel_integrals, geometry._adaptive_cells

    def counted(f, a, b, param=None):
        counts.cells.append(a.size)
        if counts.running:
            counts.runs[-1] += 1
        counts.inside = True
        try:
            return panel(f, a, b, param)
        finally:
            counts.inside = False

    def counted_run(*args, **kwargs):
        counts.runs.append(0)
        counts.running = True
        try:
            return adaptive(*args, **kwargs)
        finally:
            counts.running = False

    monkeypatch.setattr(geometry, "_panel_integrals", counted)
    monkeypatch.setattr(geometry, "_adaptive_cells", counted_run)
    return counts


@dataclass
class PieceEvaluations:
    """The piece evaluations seen by count_piece_evaluations, keyed by
    (piece kind, method): calls, and radii over all calls."""

    calls: Counter = field(default_factory=Counter)
    radii: Counter = field(default_factory=Counter)


def count_piece_evaluations(monkeypatch) -> PieceEvaluations:
    """Count every mass_and_gap and mass_prime call on a piece from now on."""
    counts = PieceEvaluations()
    for cls in (ConstantPiece, PowerLawPiece, CubicSplinePiece):
        for name in ("mass_and_gap", "mass_prime"):
            def counted(self, r, *args, method=getattr(cls, name),
                        key=(cls.kind, name)):
                counts.calls[key] += 1
                counts.radii[key] += np.size(r)
                return method(self, r, *args)

            monkeypatch.setattr(cls, name, counted)
    return counts


def rows_of(fvec: Callable) -> list:
    """The rows of an integrand of radii, each a plain integrand: fvec
    itself, or the k rows of an fvec returning a (k, n) stack, such as
    ManifoldModel._slopes.  A row integrated alone gives the bits it gives
    in a stacked pass (see geometry._panel_integrals)."""
    k = np.shape(fvec(np.zeros(0)))[:-1]
    if not k:
        return [fvec]
    return [lambda r, j=j: fvec(r)[j] for j in range(k[0])]


# the model's own integration, kept before a test patches it
_integrate_cells = geometry.ManifoldModel._integrate_cells


# The reference for ManifoldModel._integrate_cells: the cells under
# u = sqrt(r - r_min) and the rest as two separate runs.
def two_run_integrate_cells(model, fvec: Callable, a, b,
                            group=None) -> np.ndarray:
    """Integrals of fvec over cells [a_i, b_i], each inside one knot interval.

    Cells below _sub_edge run under u = sqrt(r - r_min), the rest in a run
    of their own through the model's integration, which gives the cells
    beside a ride knot their ride chart.  A query with a ``group`` label of
    its own (see _adaptive_cells) gets the same value whatever else is in
    its batch.
    """
    _adaptive_cells = geometry._adaptive_cells
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    group = np.zeros(a.size, dtype=np.intp) if group is None else group
    sub = b <= model._sub_edge
    if not np.any(sub):
        return _integrate_cells(model, fvec, a, b, group)
    r_min = model.r_min
    # For u below sqrt(ulp(r_min)) the sum r_min + u*u rounds back to
    # r_min where fvec diverges, so the offset is re-derived from the
    # rounded radius (floored one step above r_min); fvec(r) *
    # sqrt(r - r_min) stays bounded as r -> r_min.
    r_floor = np.nextafter(r_min, np.inf)

    def g(u):
        r = np.maximum(r_min + u * u, r_floor)
        return fvec(r) * 2.0 * np.sqrt(r - r_min)

    inner = _adaptive_cells(g, np.sqrt(a[sub] - r_min),
                            np.sqrt(b[sub] - r_min), _QUAD_REL, group[sub])
    if np.all(sub):
        return inner
    out = np.empty(a.shape)
    out[sub] = inner
    out[~sub] = _integrate_cells(model, fvec, a[~sub], b[~sub], group[~sub])
    return out


def range_integrals(model, fvec: Callable, ranges) -> np.ndarray:
    """Adaptive quadrature of fvec over each [r_a, r_b] of ranges, split at
    the model's knots: the reference for the integrals the model reads off
    its table.

    One ManifoldModel._integrate_cells pass per row of fvec (see rows_of)
    over the cells of every range, each range its own tolerance group, so
    each value equals its range integrated alone; an empty range gives 0.
    Returns a (rows, ranges) array: one row for a plain fvec, k for an fvec
    returning a (k, n) stack.
    """
    knots = model.knots
    edges = []
    for r_a, r_b in ranges:
        (r_a, r_b), _ = model._radii([r_a, r_b])
        edges.append(np.concatenate(
            [[r_a], knots[(knots > r_a) & (knots < r_b)], [r_b]])
            if r_b > r_a else np.zeros(1))
    sizes = [e.size - 1 for e in edges]
    a = np.concatenate([e[:-1] for e in edges])
    b = np.concatenate([e[1:] for e in edges])
    group = np.repeat(np.arange(len(edges)), sizes)
    ends = np.cumsum([0] + sizes)
    return np.array([[np.sum(row[lo:hi]) for lo, hi in zip(ends, ends[1:])]
                     for row in (_integrate_cells(model, f, a, b, group)
                                 for f in rows_of(fvec))])


def window_volumes(model, r_deep: float, r_a: float, r_b: float) -> tuple:
    """ManifoldModel._window_volumes by range_integrals: the shell and the
    graph excess over [r_a, r_b], the shell over [r_deep, r_a], and the
    integrals of F' and s' over [r_a, r_b]."""
    m, omega = model.dimension, model.omega

    def shell(r):
        return omega * r ** (m - 1) * model._s_prime(r)

    def excess(r):
        return omega * (r_b ** m - r ** m) * model._f_prime(r) / m

    (window, deep), = range_integrals(model, shell, [(r_a, r_b), (r_deep, r_a)])
    (graph,), = range_integrals(model, excess, [(r_a, r_b)])
    (rise,), (strip,) = range_integrals(model, model._slopes, [(r_a, r_b)])
    return window, graph, deep, rise, strip


def summed_wall_gap(piece, r, dimension):
    """The wall gap r^k - r_lo^k of a constant piece on the wall, k = m - 2,
    as (r - r_lo) times the plain sum of r^j r_lo^(k-1-j)."""
    k = dimension - 2
    r = np.asarray(r, dtype=float)
    poly = sum(r**j * piece.r_lo ** (k - 1 - j) for j in range(k))
    return (r - piece.r_lo) * poly


def exact_arclength(mpmath, piece, i, a, b, c=0.0, angle=False):
    """s(b) - s(a) to 40 digits for a < b in segment i of a gap-space piece
    whose segment ends in a ride knot; with a Clairaut constant c > 0
    (c <= a), the length of the geodesic leg with constant c from a to b
    instead, or with ``angle`` the angle it sweeps.

    It integrates s' = sqrt(u / g(u)) dr over u = r^k, from the u of a to
    the u of b as the piece forms them, with g the exact Hermite cubic of
    the segment, times dx/dr on a leg: r / sqrt(r^2 - c^2), or
    c / (r sqrt(r^2 - c^2)) for the angle.  The peak of 1/sqrt(g) at the
    ride knot u_k is smoothed for mpmath.quad by u = u_k +- w sinh(v), with
    w from the cubic.  On a leg the half of [a, b] away from the knot runs
    in v = sqrt(r^2 - c^2) instead, which absorbs the leg's 1/sqrt(r - c).
    """
    mpf = mpmath.mpf
    k = int(piece.power)
    with mpmath.workdps(40):
        u_lo, u_hi = (mpf(x) for x in piece._u_knots[i:i + 2])
        h = u_hi - u_lo
        v0, v1 = (mpf(x) for x in piece.values[i:i + 2])
        s0, s1 = (mpf(s) / (k * mpf(x) ** (k - 1)) for x, s in
                  zip(piece.knots[i:i + 2], piece.slopes[i:i + 2]))

        def g(u):
            t = (u - u_lo) / h
            return ((2 * t**3 - 3 * t**2 + 1) * v0 + (t**3 - 2 * t**2 + t) * h
                    * s0 + (3 * t**2 - 2 * t**3) * v1 + (t**3 - t**2) * h * s1)

        if s1 == 0:
            u_k, side, A = u_hi, -1, (3 * (v0 - v1) + h * s0) / h**2
        else:
            u_k, side, A = u_lo, 1, (3 * (v1 - v0) - h * s1) / h**2
        w = mpmath.sqrt(g(u_k) / A)
        c = mpf(c)

        def dx(r):  # dx/dr along the leg
            if c == 0:
                return 1
            return (c if angle else r * r) / (r * mpmath.sqrt(r * r - c * c))

        def f(v):
            u = u_k + side * w * mpmath.sinh(v)
            r = u ** (mpf(1) / k)
            return (mpmath.sqrt(u / g(u)) * r / (k * u) * w * mpmath.cosh(v)
                    * dx(r))

        us = [mpf(float(u)) for u in np.array([a, b]) ** piece.power]
        far = 0.0
        if c > 0:
            far_end = 0 if side < 0 else 1
            mid = np.float64(0.5 * (a + b)) ** piece.power
            u_far, us[far_end] = us[far_end], mpf(float(mid))

            def in_v(v):
                r = mpmath.sqrt(c * c + v * v)
                return mpmath.sqrt(r**k / g(r**k)) * (c / (r * r) if angle
                                                     else 1)

            far = mpmath.quad(in_v, sorted(
                mpmath.sqrt(u ** (mpf(2) / k) - c * c)
                for u in (u_far, us[far_end])))
        ends = [mpmath.asinh(side * (u - u_k) / w) for u in us]
        return far + abs(mpmath.quad(f, sorted(ends)))
