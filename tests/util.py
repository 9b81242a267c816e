"""Shared helpers for the test suite: random admissible profiles, and the
plain forms the optimized code must reproduce bit for bit: the breadth-first
bisection of massflat.geometry._adaptive_cells, the two-run split of
ManifoldModel._integrate_cells, the Hermite evaluation of cubic-spline
pieces and the summed wall gap of a constant piece on the wall."""

from __future__ import annotations

from typing import Callable

import numpy as np

from massflat import geometry
from massflat.errors import QuadratureError
from massflat.geometry import (_MAX_DEPTH, _MAX_EXTRA_CELLS, _QUAD_REL, _TINY,
                               _first_cell, _panel_integrals)
from massflat.profiles import (
    ConstantPiece,
    CubicSplinePiece,
    HawkingProfile,
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


# The reference for _adaptive_cells: the same bisection with one integrand
# call per level, which evaluates each pending cell once and nothing more.
def plain_adaptive_cells(f: Callable, a_arr, b_arr, rel: float,
                         group=None, param=None) -> np.ndarray:
    """Adaptive panel integration of f over each cell, returned per cell.

    Each pass makes one GL16 + GL8 evaluation of every pending cell (see
    _panel_integrals) and halves the cells it does not accept.  A panel is
    accepted when its GL16-GL8 gap is at most rel times its value plus 1e-4
    times the scale of its cell's group: the largest first-pass value among
    the cells sharing its ``group`` label (one group by default).  A cell's
    result therefore depends only on the cells of its own group.  ``param``
    (one entry or row per cell) is passed to f as f(x, p), and the halves
    of a bisected cell inherit it.

    An f returning a (k, n) stack integrates k integrands at once and gives
    a (k, cells) result.  Each row has its own group scales and acceptance
    and stops collecting a cell once it accepts it; a cell stays pending
    while any row still needs it.  A row's live cells are thus an in-order
    subsequence of every pass, and its values equal those of the row
    integrated alone, bit for bit.  The bisection cap counts the union of
    pending cells.

    f must be smooth on each cell.  A jump between a cell end and the
    outermost GL16 and GL8 nodes is invisible to both rules, so the gap
    reads 0 and the cell is accepted with the wrong value; the model puts
    every piece boundary and spline knot at a cell end for this reason.
    """
    a = a0 = np.asarray(a_arr, dtype=float)
    b = b0 = np.asarray(b_arr, dtype=float)
    if a.size == 0:
        return np.zeros(0)
    labels = np.zeros(a.size, dtype=np.intp) if group is None else group
    idx = np.arange(a.size)
    p = None if param is None else np.asarray(param, dtype=float)
    out = scale = None
    # every pass halves all pending cells, so they share one depth
    for depth in range(_MAX_DEPTH + 1):
        i16, err = _panel_integrals(f, a, b, p)
        stacked = i16.ndim == 2
        i16, err = np.atleast_2d(i16), np.atleast_2d(err)
        n_rows = i16.shape[0]
        if out is None:
            # per-row accumulators, indexed flat: ufunc.at is much slower
            # with a tuple of index arrays
            out = np.zeros(n_rows * a0.size)
            base = a0.size * np.arange(n_rows)[:, None]
            live = np.ones(i16.shape, dtype=bool)
        # the GL nodes are interior, so halving a panel cannot make a
        # non-finite integrand finite: fail on the first one.  err =
        # |i16 - i8| is finite only where i16 is.
        bad = live & ~np.isfinite(err)
        if np.any(bad):
            j, k = _first_cell(bad)
            raise QuadratureError(
                f"non-finite integrand on [{float(a[k])!r}, {float(b[k])!r}] "
                f"(panel value {float(i16[j, k])!r}, error estimate "
                f"{float(err[j, k])!r})")
        if scale is None:
            n_groups = int(labels.max()) + 1
            if n_groups == 1:
                # (rows, 1): broadcasts over every pass's cells
                scale = np.maximum(np.abs(i16).max(axis=1, keepdims=True),
                                   _TINY)
            else:
                top = np.zeros(n_rows * n_groups)
                np.maximum.at(top, (n_groups * np.arange(n_rows)[:, None]
                                    + labels).ravel(), np.abs(i16).ravel())
                scale = np.maximum(top, _TINY).reshape(
                    n_rows, n_groups)[:, labels]
        ok = err <= rel * (np.abs(i16) + 1e-4 * (
            scale if n_groups == 1 else scale[:, idx]))
        # cells narrower than a few ulps cannot be split further
        ok |= (b - a) <= 4e-16 * np.maximum(np.abs(a), np.abs(b))
        ok &= live
        np.add.at(out, (base + idx)[ok], i16[ok])
        live &= ~ok
        pending = live[0] if n_rows == 1 else np.any(live, axis=0)
        if not np.any(pending):
            out = out.reshape(n_rows, a0.size)
            return out if stacked else out[0]
        n_next = 2 * int(np.count_nonzero(pending))
        if depth == _MAX_DEPTH or n_next > a0.size + _MAX_EXTRA_CELLS:
            j, k = _first_cell(live)
            raise QuadratureError(
                f"adaptive quadrature did not converge on "
                f"[{float(a0[idx[k]])!r}, {float(b0[idx[k]])!r}] within "
                f"{depth} bisections (piece [{float(a[k])!r}, "
                f"{float(b[k])!r}], error estimate {float(err[j, k])!r}; "
                f"{n_next} cells would be pending)")
        a2, b2 = a[pending], b[pending]
        mid = 0.5 * (a2 + b2)
        idx2 = idx[pending]
        a = np.concatenate([a2, mid])
        b = np.concatenate([mid, b2])
        idx = np.concatenate([idx2, idx2])
        live = np.concatenate([live[:, pending], live[:, pending]], axis=1)
        if p is not None:
            p = np.concatenate([p[pending], p[pending]])


# The reference for ManifoldModel._integrate_cells: the cells under
# u = sqrt(r - r_min) and the rest as two separate runs.
def two_run_integrate_cells(model, fvec: Callable, a, b,
                            group=None) -> np.ndarray:
    """Integrals of fvec over cells [a_i, b_i], each inside one knot interval.

    Cells below _sub_edge run under u = sqrt(r - r_min).  A query with a
    ``group`` label of its own (see _adaptive_cells) gets the same value
    whatever else is in its batch.  An fvec returning a (k, n) stack
    gives (k, cells) integrals, each row equal to its integrand's alone.
    """
    _adaptive_cells = geometry._adaptive_cells
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    group = np.zeros(a.size, dtype=np.intp) if group is None else group
    sub = b <= model._sub_edge
    if not np.any(sub):
        return _adaptive_cells(fvec, a, b, _QUAD_REL, group)
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
    out = np.empty(inner.shape[:-1] + a.shape)
    out[..., sub] = inner
    out[..., ~sub] = _adaptive_cells(fvec, a[~sub], b[~sub], _QUAD_REL,
                                     group[~sub])
    return out


# The references for CubicSplinePiece: the Hermite data of each radius's
# interval gathered value by value, and de Casteljau with a fresh 1 - t in
# every step.
def _u_slopes(piece) -> np.ndarray:
    """The knot slopes of a spline piece in u = r^power."""
    knots, power = piece.knots, piece.power
    dudr = power * knots ** (power - 1.0)
    if knots[0] == 0.0 and power > 1.0:
        dudr[0] = np.inf
    return piece.slopes / dudr


def _lerp(a, b, t):
    # convex form: no cancellation when a and b share a sign
    return (1.0 - t) * a + t * b


def _hermite(t, h, v0, v1, s0, s1):
    """Cubic Hermite value on [0,1] via de Casteljau on the Bezier form.

    Monotone Hermite data between positive values have positive control
    points, so the convex recursion keeps the relative error near machine
    precision even where the cubic runs many orders of magnitude below its
    coefficients (the near-wall regime of gap-space pieces).
    """
    b1 = v0 + h * s0 / 3.0
    b2 = v1 - h * s1 / 3.0
    c0 = _lerp(v0, b1, t)
    c1 = _lerp(b1, b2, t)
    c2 = _lerp(b2, v1, t)
    return _lerp(_lerp(c0, c1, t), _lerp(c1, c2, t), t)


def _hermite_du(t, h, v0, v1, s0, s1):
    """Derivative of the cubic Hermite with respect to u."""
    q0 = h * s0
    q1 = 3.0 * (v1 - v0) - h * (s0 + s1)
    q2 = h * s1
    return _lerp(_lerp(q0, q1, t), _lerp(q1, q2, t), t) / h


def _segment(piece, r):
    """Hermite data (t, h, v0, v1, s0, s1) of the interval holding each r,
    in the argument order of _hermite and _hermite_du."""
    u = r**piece.power
    uk = piece._u_knots
    u_slopes = _u_slopes(piece)
    # the interval index, clamped to the end intervals without a clip
    i = np.searchsorted(uk[1:-1], u, side="right")
    h = uk[i + 1] - uk[i]
    return ((u - uk[i]) / h, h, piece.values[i], piece.values[i + 1],
            u_slopes[i], u_slopes[i + 1])


def hermite_mass_and_gap(piece, r, dimension):
    """CubicSplinePiece.mass_and_gap by _hermite."""
    r = np.asarray(r, dtype=float)
    v = _hermite(*_segment(piece, r))
    if piece.gap_space:
        return 0.5 * (r**piece.power - v), v
    return v, r ** (dimension - 2) - 2.0 * v


def hermite_mass_prime(piece, r):
    """CubicSplinePiece.mass_prime by _hermite_du."""
    r = np.asarray(r, dtype=float)
    dv = _hermite_du(*_segment(piece, r))
    dudr = piece.power * r ** (piece.power - 1.0)
    if piece.gap_space:
        return 0.5 * dudr * (1.0 - dv)
    return dv * dudr


def summed_wall_gap(piece, r, dimension):
    """The wall gap r^k - r_lo^k of a constant piece on the wall, k = m - 2,
    as (r - r_lo) times the plain sum of r^j r_lo^(k-1-j)."""
    k = dimension - 2
    r = np.asarray(r, dtype=float)
    poly = sum(r**j * piece.r_lo ** (k - 1 - j) for j in range(k))
    return (r - piece.r_lo) * poly
