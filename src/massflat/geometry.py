"""Reconstruction of the manifold determined by a Hawking-mass profile.

An admissible profile determines a rotationally symmetric manifold presented
as a graph over Euclidean space: the graph function F satisfies

    F'(r) = sqrt(2 m_H(r) / (r^(m-2) - 2 m_H(r))),    F(r_min) = 0,

and the radial arclength is s'(r) = sqrt(r^(m-2) / (r^(m-2) - 2 m_H(r))).
The model tabulates F and s over a knot set aligned with the profile
pieces, and every table cell is a knot cell that a table round accepts on
its first panel: a round that does not accept a cell halves it at the
midpoint of its chart and runs again.  Each cell keeps its chart and the integrand at
its 21 nodes and both chart ends, which the build checks are finite.  A
read off the knots adds to the table the integral of the cell's
interpolant through those 23 values from the cell's start, and r_of_s
inverts s by a safeguarded Newton iteration on the same panel, to an ulp
of its target; a window's volumes weigh the same values (see
_window_volumes).  None of them runs any quadrature.  Queries take arrays,
and each value is the same as that of the query made alone.  Each cell
runs in the coordinate of its kind, chosen per cell within one run, so one
integrand call evaluates every node: r; on a minimal boundary sphere,
where the integrands carry a (r - r_min)^(-1/2)
singularity, u = sqrt(r - r_min) below _sub_edge, the end of the last cell
of the first piece that lies nearer r_min than its width, so that every
knot cell converges on its first panel; and beside a ride knot of a
gap-space spline, where the gap is g0 + A (u - u_k)^2 + O((u - u_k)^3) in
u = r^(m-2) with g0 tiny (the deep well's wall) and the integrands peak as
1/sqrt(gap), w = sqrt(g0 / A) wide in u and far narrower than a cell,
u = u_k + w sinh(t), t < 0 left of the knot.  A radial cell takes that
chart across the knot's span: the cells on the side where the gap rises,
as far as the last one that lies nearer the knot than its width, as at a
boundary sphere.  The span takes knots 4 * 2^j in from its far end t_e,
where the cubic term of the gap bends the integrand.  A constant piece
that starts nearer the root of its wall gap than its first cell is wide
takes knots graded geometrically towards that root, each cell as wide as
it lies from the root (the deep well's tail).  So the deep wells' table
cells converge on their first panel too.  The charts, each increasing
with r, are rows of a table:
_chart_x maps radii to a row's coordinate and _chart_r maps nodes back, for
the integration and the reads alike; _chart_jacobians scales the
integrand.  A geodesic leg with Clairaut constant c (see
embedding.tube_distance) runs in v = sqrt(r^2 - c^2) for its length and
alpha = arctan(v / c), or -arctan(c / v) past pi/4, for its angle, in
charts of its own at the boundary and on a cell that ends on a ride knot;
_leg_radius maps its plain nodes back to r by a tangent and square roots
alone, and _leg_estimates reads a cheap 5-point Gauss estimate of a leg's
angle in that chart.  Its cells end at the model's cuts (see
_leg_integrals), not at the knots that ride spans and wall roots add.

The geodesic legs integrate through ManifoldModel._integrate_cells, which
runs vectorized 21-point Gauss-Kronrod panels (QUADPACK's QK21: the value
is the Kronrod rule K21, the error gauge its gap to the 10-point Gauss rule
G10 on 10 of the same nodes) and bisects the panels that miss the
tolerance, breadth-first: each level holds the left halves, then the right
halves, of the cells the level above did not accept, and each cell sums its
accepted panels in level order.  The table build runs the first level of
that rule on its knot cells, in the same charts (see _chart_rows), one
_panel_integrals pass per round over a (F', s') integrand that returns a
stack of two rows, each with its own acceptance, and halves what a round
does not accept itself.  The integrand sees cells, not loose nodes: it is
called as f(x, p) on a (cells, 21) block of nodes with one param row p per
cell, in calls of whole cells, as many per pass as whole blocks of _BLOCK
nodes the pass fills and at least one, so that a table round of up to 390
cells is one call, its radii in piece order (see HawkingProfile._dispatch);
and the chart function maps only the rows of boundary, ride and leg cells
to radii.  A panel whose value is not finite, a leg cell still unconverged
after 50 bisections, a batch whose pending cells bisection would grow by
more than 200,000, or a table cell still halving after 50 rounds raises
QuadratureError, which names the integral (the table, a leg's length or
angle) and the failing interval in radii.  A model whose r^(m-2) or wall
gap overflows at r_cap is refused before any quadrature runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .errors import (DomainError, InvalidProfileError, QuadratureError,
                     RangeError, WindowOverflowError, checked_range, positive)
from .profiles import (ConstantPiece, CubicSplinePiece, HawkingProfile,
                       sphere_radius, unit_sphere_area, validate)

__all__ = [
    "ManifoldModel",
    "TubularWindow",
    "tubular_window",
    "window_bracket",
    "euclidean_annulus_volume",
]

_TINY = 1e-300
# QUADPACK's QK21 rule on [-1, 1] (Piessens et al. 1983): the 10-point
# Gauss rule G10 and its 21-point Kronrod extension K21, which reuses the
# Gauss nodes.  Each row gives a node x > 0, standing for +-x, its K21
# weight and, for a Gauss node, its G10 weight; _KRONROD_NODES lists the
# nodes K21 adds, its centre node 0 apart.
_G10_NODES = (
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
)
_KRONROD_NODES = (
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
)
_K21_CENTRE_W = 0.149445554002916905664936468389821
_G10_X, _G10_KW, _G10_GW = np.array(_G10_NODES).T
_KR_X, _KR_KW = np.array(_KRONROD_NODES).T
# the nodes of one cell, the 10 Gauss nodes first, so that G10 reads the
# slice [:10], then the 11 Kronrod nodes, each set in increasing order;
# the K21 weights of all 21 and the G10 weights of the first 10
_GL_X = np.concatenate([-_G10_X[::-1], _G10_X, -_KR_X[::-1], [0.0], _KR_X])
_K21_W = np.concatenate([_G10_KW[::-1], _G10_KW, _KR_KW[::-1],
                         [_K21_CENTRE_W], _KR_KW])
_G10_W = np.concatenate([_G10_GW[::-1], _G10_GW])
# the 5-point Gauss-Legendre rule on [-1, 1], exact to degree 9, rounded
# from its closed form: nodes 0 and +-sqrt(5 -+ 2 sqrt(10/7)) / 3, weights
# 128/225 and (322 +- 13 sqrt(70)) / 900 (see ManifoldModel._leg_estimates)
_GAUSS5_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GAUSS5_W = np.array([0.23692688505618908, 0.47862867049936647,
                      0.5688888888888889, 0.47862867049936647,
                      0.23692688505618908])
# A table cell keeps its integrand at its 21 nodes and at both chart ends,
# _TABLE_X on [-1, 1]; their interpolant p has degree 22.  In the fraction
# f of the cell from its start, the integral of p from the start is
#     P(f) = f (p(0) + f R(f)),
# with R of degree 21.  A read evaluates R from its values at the 22
# Chebyshev points _CHEB_F inside (0, 1) (_TO_CHEBYSHEV maps a cell's 23
# values to them), in barycentric form with weights _CHEB_W, and keeps its
# relative accuracy next to the start, also where p(0) = 0.
_TABLE_X = np.append(_GL_X, [-1.0, 1.0])
_START = _GL_X.size
_CHEB_F = (1.0 - np.cos(np.pi * (np.arange(22) + 0.5) / 22)) / 2.0
_CHEB_W = (-1.0) ** np.arange(22) * np.sin(np.pi * (np.arange(22) + 0.5) / 22)


def _to_chebyshev() -> np.ndarray:
    """The (22, 23) map from a cell's values at _TABLE_X to R at _CHEB_F.

    With t_j = (x_j + 1) / 2 and the Lagrange basis l_j of those points,
    R_j(f) = int_0^1 s D_j(f s) ds, D_j(t) = (l_j(t) - l_j(0)) / t, which
    K21 integrates exactly.  Off the start, barycentric weights w give
    D_j(t) = (w_j / (t - t_j)) / (w_0 + t sum_{k != 0} w_k / (t - t_k)),
    with 0 the start, free of cancellation; D_0 is minus the others' sum,
    as the l_j sum to 1.
    """
    t = (_TABLE_X + 1.0) / 2.0
    w = 1.0 / np.prod(t[:, None] - t + np.eye(t.size), axis=1)
    s, g = (_GL_X + 1.0) / 2.0, _K21_W / 2.0
    tau = _CHEB_F[:, None] * s
    d = tau[..., None] - t
    d[..., _START] = np.inf  # the start's own term leaves the sums
    terms = w / d
    D = terms / (w[_START] + tau * terms.sum(axis=-1))[..., None]
    D[..., _START] = -D.sum(axis=-1)
    return (D * (g * s)[:, None]).sum(axis=1)


_TO_CHEBYSHEV = _to_chebyshev()
# P(1) = p(0) + R(1), the integral of p over the cell, from its 23 values:
# R's barycentric weights at f = 1 through the map, plus p(0)
_AT_ONE = _CHEB_W / (1.0 - _CHEB_F)
_WHOLE = _AT_ONE / _AT_ONE.sum() @ _TO_CHEBYSHEV
_WHOLE[_START] += 1.0 - _WHOLE.sum()
# the nodes a pass holds per integrand call: a pass takes one call per
# whole block it fills, at least one, so a call holds at most 2 _BLOCK
# nodes.  Larger calls ran slower per node: their temporaries outgrow the
# allocator's reuse and fault in fresh pages (a 2,048-path tube_distance
# batch took over twice the page faults at 16,384 nodes a call)
_BLOCK = 4096
_MAX_DEPTH = 50
# cells bisection may add to a batch before it gives up
_MAX_EXTRA_CELLS = 200000
# relative target of the quadrature panels
_QUAD_REL = 1e-12
# the first step of a ride span's knots in t = asinh((u - u_k) / w), back
# from the span's far end (see ManifoldModel._build_tables).  On the 3-, 4-
# and 5-D deep wells from delta 1e-2 to 1e-30 every ride cell then held a
# K21-G10 gap of at most 4.7e-16 of its value; 3.2e-14 at a first step of
# 6, and 1.3e-12, past the relative target, at 8
_RIDE_STEP = 4.0


def _panel_integrals(f: Callable, a: np.ndarray, b: np.ndarray, param=None):
    """K21 integrals over the cells [a_i, b_i] plus |K21 - G10| error gauges.

    f takes a (cells, 21) block of nodes, each row the 10 G10 and then the
    11 further K21 nodes of one cell (_GL_X), and returns values of the
    block's shape, or a (k, cells, 21) stack of k integrands, which gives
    (k, cells) results.  K21 is exact for polynomials of degree 31, G10 for
    degree 19.  The pass goes to f in as many calls as whole blocks of
    _BLOCK nodes it fills, at least one, its cells shared out evenly: a call
    takes at most 2 _BLOCK nodes, so the temporaries of a pass stay
    cache-sized however many cells it holds, and a pass of fewer than 2
    _BLOCK nodes is one call: a table round of up to 390 cells.  With a
    per-cell ``param``, f is called as f(x, p), p holding one row of param
    per row of x.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    calls = max(a.size * _GL_X.size // _BLOCK, 1)
    # a non-finite integrand is reported by the caller as a QuadratureError.
    # Row-wise sums, not a matrix product: BLAS rounds a row differently
    # depending on how many rows share the call.
    k21 = err = None
    for j in range(calls):
        cells = slice(j * a.size // calls, (j + 1) * a.size // calls)
        x = mid[cells, None] + half[cells, None] * _GL_X
        y = f(x) if param is None else f(x, param[cells])
        if k21 is None:
            k21 = np.empty(y.shape[:-2] + a.shape)
            err = np.empty_like(k21)
        with np.errstate(invalid="ignore", over="ignore"):
            k21[..., cells] = (y * _K21_W).sum(axis=-1) * half[cells]
            err[..., cells] = np.abs(
                k21[..., cells]
                - (y[..., :10] * _G10_W).sum(axis=-1) * half[cells])
    return k21, err


def _adaptive_cells(f: Callable, a_arr, b_arr, rel: float,
                    group=None, param=None, span=None,
                    label=None) -> np.ndarray:
    """Adaptive panel integration of f over each cell, returned per cell.

    Bisection runs breadth-first, one _panel_integrals pass per level.
    Level 0 is the given cells; level d + 1 holds the halves of the cells
    level d does not accept, the left halves and then the right halves,
    each in the order of their parents.  A panel is accepted when its
    K21-G10 gap is at most rel times its value plus 1e-4 times the scale
    of its cell's group: the largest level-0 value among the cells sharing
    its ``group`` label (one group by default).  A cell's result therefore
    depends only on the cells of its own group; it sums the accepted panels
    in level order (of the model's integrals, only legs pass groups).
    ``param`` (one row per cell) is passed to f as f(x, p) (see
    _panel_integrals), and the halves of a bisected cell inherit it.
    Errors name the ``label`` and an interval [lo, hi] of cell i's
    coordinate as ``span(i, lo, hi)``, by default "[lo, hi]".  f returns
    one row: the integrand's values in the block's shape.

    f must be smooth on each cell.  A jump between a cell end and the
    outermost node is invisible to both rules, so the gap reads 0 and the
    cell is accepted with the wrong value; the model puts every piece
    boundary and spline knot at a cell end for this reason.
    """
    a = a0 = np.asarray(a_arr, dtype=float)
    b = b0 = np.asarray(b_arr, dtype=float)
    if a.size == 0:
        return np.zeros(0)
    labels = np.zeros(a.size, dtype=np.intp) if group is None else group
    if span is None:
        def span(i, lo, hi):
            return f"[{float(lo)!r}, {float(hi)!r}]"
    what = "" if label is None else f"{label}: "
    idx = np.arange(a.size)
    p = None if param is None else np.asarray(param, dtype=float)
    # every level halves all pending cells, so they share one depth
    for depth in range(_MAX_DEPTH + 1):
        k21, err = _panel_integrals(f, a, b, p)
        # the nodes are interior, so halving a panel cannot make a
        # non-finite integrand finite: fail on the first one.  err =
        # |k21 - g10| is finite only where k21 is.
        bad = ~np.isfinite(err)
        if bad.any():
            c = int(np.argmax(bad))
            raise QuadratureError(
                f"{what}non-finite integrand on {span(idx[c], a[c], b[c])} "
                f"(panel value {float(k21[c])!r}, error estimate "
                f"{float(err[c])!r})")
        if depth == 0:
            top = np.zeros(int(labels.max()) + 1)
            np.maximum.at(top, labels, np.abs(k21))
            scale = np.maximum(top, _TINY)[labels]
        ok = err <= rel * (np.abs(k21) + 1e-4 * scale[idx])
        # cells narrower than a few ulps cannot be split further
        ok |= (b - a) <= 4e-16 * np.maximum(np.abs(a), np.abs(b))
        if depth == 0:
            if ok.all():
                # summing into zeros would give k21 + 0.0, which turns
                # -0.0 into 0.0
                return k21 + 0.0
            out = np.zeros(a0.size)
        np.add.at(out, idx[ok], k21[ok])
        pending = ~ok
        if not pending.any():
            return out
        n_next = 2 * int(np.count_nonzero(pending))
        if depth == _MAX_DEPTH or n_next > a0.size + _MAX_EXTRA_CELLS:
            c = int(np.argmax(pending))
            i = idx[c]
            raise QuadratureError(
                f"{what}adaptive quadrature did not converge on "
                f"{span(i, a0[i], b0[i])} within {depth} bisections (piece "
                f"{span(i, a[c], b[c])}, error estimate "
                f"{float(err[c])!r}; {n_next} cells would be pending)")
        a2, b2 = a[pending], b[pending]
        mid = 0.5 * (a2 + b2)
        idx2 = idx[pending]
        a = np.concatenate([a2, mid])
        b = np.concatenate([mid, b2])
        idx = np.concatenate([idx2, idx2])
        if p is not None:
            p = np.concatenate([p[pending], p[pending]])


# np.linspace(0, 48, 49), and the squares of np.linspace(0, 1, n): the
# steps of a piece's even knots and of its quadratic gradings
_STEPS = np.arange(49.0)
_SQUARES = {n: np.linspace(0.0, 1.0, n) ** 2 for n in (33, 49)}


def _graded(a: float, b: float) -> np.ndarray:
    """Knots graded towards the start of a piece [a, b]: geometric ones, in
    n >= 32 steps of at most a factor 6, on a piece spanning more than a
    factor 6 in r, 33 quadratic ones on a piece from r = 0, none otherwise.
    The geometric knots are np.geomspace(a, b, n + 1) formed as it forms
    them, without its wrappers: 10 to the n + 1 even steps from log10 a to
    log10 b, both ends exact."""
    if a > 0 and b / a > 6.0:
        # the same ufuncs on the same operands as np.geomspace, so the same
        # bits: log10 of each end alone, and the power of a scalar base
        lo, hi = np.log10(np.float64(a)), np.log10(np.float64(b))
        # a table round accepts a cell under its 1e-4 floor however wide
        n = max(32, math.ceil((hi - lo) / math.log10(6.0)))
        y = np.arange(n + 1.0) * ((hi - lo) / n) + lo
        y[-1] = hi
        x = np.power(10.0, y)
        x[0], x[-1] = a, b
        return x
    if a == 0.0:
        return b * _SQUARES[33]
    return np.zeros(0)


def _unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float array free of NaN and of -0.0, without its
    wrappers: x sorted, each value once."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _within(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The slice of a sorted array x that lies in [lo, hi]."""
    return x[x.searchsorted(lo):x.searchsorted(hi, side="right")]


def _doubling(origin: float, step: float, end: float) -> list:
    """origin + step 2^j for j = 0, 1, ... strictly short of end: points
    graded geometrically away from origin, each cell between two of them as
    wide as it lies from origin."""
    x = (origin + step * 2.0 ** j for j in range(
        max(int(math.log2((end - origin) / step)) + 1, 0)))
    return [v for v in x if abs(v - origin) < abs(end - origin)]


def _near_edge(grid: np.ndarray, origin: float):
    """The far end of the last cell of grid, whose points run away from
    origin, that lies nearer origin than its own width."""
    near = np.abs(grid[:-1] - origin) < np.abs(grid[1:] - grid[:-1])
    return grid[near.nonzero()[0][-1] + 1]


def _panels(cell, nodes, width):
    """For _panel_partials, one per point: rows of p(0) and of R at _CHEB_F
    (see _TO_CHEBYSHEV) of its cell in a (..., cells, 23) block of values
    at _TABLE_X, formed once per distinct cell, and its chart's width."""
    seen = np.zeros(nodes.shape[-2], dtype=bool)
    seen[cell] = True
    cells = seen.nonzero()[0]
    at = cells.searchsorted(cell)
    nodes = nodes[..., cells, :]
    start = nodes[..., _START]
    values = np.empty(start.shape + _CHEB_F.shape)
    step = _BLOCK // _CHEB_F.size
    for lo in range(0, cells.size, step):
        part = slice(lo, lo + step)
        # 0 for a constant p; row-wise sums, so that a cell reads the
        # same in any batch
        values[..., part, :] = (
            ((nodes[..., part, :] - start[..., part, None])[..., None, :]
             * _TO_CHEBYSHEV).sum(axis=-1))
    return start[..., at], values[..., at, :], width[cell]


def _rises(whole, ca, cb, head, tail):
    """Rows of sums of cell values ``whole`` from a point in cell ca to one
    in cell cb >= ca: ca's value less its part ``head`` below the first,
    the cells between, summed from cb down, and cb's part ``tail`` below
    the second; tail - head where ca == cb."""
    # between[..., c]: the values of the cells c + 1 .. cb - 1
    between = np.zeros(whole.shape[:-1] + (cb + 1,))
    if cb > 1:
        between[..., :cb - 1] = np.cumsum(whole[..., cb - 1:0:-1],
                                          axis=-1)[..., ::-1]
    return np.where(ca == cb, tail - head,
                    whole[..., ca] - head + between[..., ca] + tail)


def _first_cell(mask: np.ndarray) -> Tuple[int, int]:
    """(row, cell) of a (rows, cells) mask: the first cell holding a True
    entry, and the first row true there."""
    k = int(np.argmax(np.any(mask, axis=0)))
    return int(np.argmax(mask[:, k])), k


def euclidean_annulus_volume(dimension: int, r_a: float, r_b: float) -> float:
    """Exact volume of the Euclidean annulus r_a <= |x| <= r_b."""
    m = dimension
    omega = unit_sphere_area(m)
    r_a, r_b = float(r_a), float(r_b)
    if r_a < 0 or r_b < r_a or not math.isfinite(r_b):
        raise RangeError(f"invalid annulus range [{r_a}, {r_b}]")
    return omega * (r_b**m - r_a**m) / m


class ManifoldModel:
    """Tabulated reconstruction of an admissible profile, truncated at r_cap:
    construction validates it (see validate) or raises InvalidProfileError."""

    def __init__(self, profile: HawkingProfile, r_cap: float):
        if not (math.isfinite(r_cap) and r_cap > 0 and r_cap > 2.0 * profile.r_min):
            raise DomainError(
                f"r_cap must be finite, positive and above 2 r_min, got {r_cap}")
        m = profile.dimension
        # the integrands read r^(m-2), largest at r_cap, and the wall gap:
        # a double that overflows there would surface as a QuadratureError
        with np.errstate(over="ignore", invalid="ignore"):
            xi_cap = float(np.float64(r_cap) ** (m - 2))
            gap_cap = profile._mass_and_gap(np.array([r_cap], float))[1].item()
        for name, value in (("r^(m-2)", xi_cap), ("the wall gap", gap_cap)):
            if not math.isfinite(value):
                raise DomainError(
                    f"{name} is not a finite double at r_cap = {r_cap!r} in "
                    f"dimension {m} (it reads {value!r}); lower r_cap")
        report = validate(profile)
        if not report.ok:
            raise InvalidProfileError(
                "profile failed validation:\n" + str(report))
        self._profile = profile
        self.r_cap = float(r_cap)
        self.dimension = profile.dimension
        self.r_min = profile.r_min
        self.adm_mass = profile.adm_mass
        self.omega = unit_sphere_area(profile.dimension)
        # a valid profile meets the horizon identity at any r_min > 0
        self._singular = profile.r_min > 0
        self._build_tables()

    @property
    def profile(self) -> HawkingProfile:
        """The profile the tables were built from; read-only, so the tables
        and every check made at construction keep describing it."""
        return self._profile

    # -- exact pointwise data ------------------------------------------------

    @cached_property
    def _origin_slopes(self) -> Tuple[float, float]:
        """F' and s' as r -> 0 on a boundaryless model.

        Near the origin r^(m-2) underflows, and m_H and the gap with it, so
        both read their values at r0 = 1e-300^(1/(m-2)), where r^(m-2) is
        still a normal double.  On every piece kind that can start at
        r = 0 those differ from the limits by terms that vanish with r0.
        """
        k = self.dimension - 2
        r0 = np.array([_TINY ** (1.0 / k)])
        mh, gap = self.profile.mass_and_gap(r0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (float(np.sqrt(2.0 * mh / gap)[0]),
                    float(np.sqrt(r0**k / gap)[0]))

    def _slopes(self, r) -> np.ndarray:
        """F'(r) and s'(r) as the two rows of one array, at radii in range
        (unchecked: quadrature nodes, or radii a public method checked).

        One profile evaluation serves both, so the two tables are built by
        one integration with this integrand.
        """
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        mh, gap = self.profile._mass_and_gap(arr)
        xi = arr ** (self.dimension - 2)
        out = np.full((2,) + arr.shape, np.inf)
        fp, sp = out
        with np.errstate(divide="ignore", invalid="ignore"):
            np.sqrt(2.0 * mh / gap, out=fp, where=gap > 0)
        # near the origin r^(m-2) underflows, and m_H and the gap with it
        if self.r_min == 0.0:
            fp[xi == 0.0] = self._origin_slopes[0]
        elif self._singular:
            fp[arr <= self.r_min] = np.inf
        self._fill_s_prime(sp, xi, gap)
        return out

    def _fill_s_prime(self, out: np.ndarray, xi, gap):
        """Fill out, preset to +inf, with s' = sqrt(r^(m-2) / gap) where both
        are positive, and with its origin limit where r^(m-2) underflows."""
        with np.errstate(divide="ignore", invalid="ignore"):
            np.sqrt(xi / gap, out=out, where=(gap > 0) & (xi > 0))
        if self.r_min == 0.0:
            out[xi == 0.0] = self._origin_slopes[1]

    def f_prime(self, r):
        """Exact graph slope F'(r); +inf on a minimal boundary sphere."""
        arr, scalar = checked_range(r, self.r_min, math.inf, "radius")
        out = self._f_prime(arr)
        return float(out[0]) if scalar else out

    def s_prime(self, r):
        """Exact arclength density sqrt(1 + F'(r)^2)."""
        arr, scalar = checked_range(r, self.r_min, math.inf, "radius")
        out = self._s_prime(arr)
        return float(out[0]) if scalar else out

    def _f_prime(self, r: np.ndarray) -> np.ndarray:
        """F' on a 1-D array of radii in range, unchecked: an integrand."""
        return self._slopes(r)[0]

    def _s_prime(self, r: np.ndarray) -> np.ndarray:
        """s' on a 1-D array of radii in range, unchecked: an integrand."""
        # skips F' (the profile still evaluates m_H next to the gap):
        # geodesic lengths call this on large batches
        out = np.full(r.shape, np.inf)
        self._fill_s_prime(out, r ** (self.dimension - 2),
                           self.profile._mass_and_gap(r)[1])
        return out

    # -- tabulation ----------------------------------------------------------

    def _pieces_inside(self):
        """(index, piece, a, b) for each profile piece that overlaps the
        model, [a, b] its part inside [r_min, r_cap]."""
        for k, piece in enumerate(self.profile.pieces):
            a = max(piece.r_lo, self.r_min)
            b = min(piece.r_hi, self.r_cap)
            if b > a:
                yield k, piece, a, b

    def _build_tables(self):
        k = self.dimension - 2
        pts = [np.array([self.r_min, self.r_cap])]
        # piece ends and spline knots: where s' may be unsmooth
        breaks = []
        # (knot, side, w) of the ride knots inside the model; (piece, a) of
        # the constant pieces that do not start on the boundary sphere
        rides, constant = [], []
        inside = list(self._pieces_inside())
        lo, hi = np.array([x[2:] for x in inside]).T
        # 49 even knots per piece, as np.linspace(lo, hi, 49) forms them,
        # for every piece at once
        even = _STEPS * ((hi - lo) / 48)[:, None] + lo[:, None]
        even[:, -1] = hi
        pts.append(even.ravel())
        for i, piece, a, b in inside:
            breaks += [a, b]
            pts.append(_graded(a, b))
            if i == 0 and self._singular:
                # sqrt grading resolves the boundary singularity profile
                pts.append(a + (b - a) * _SQUARES[49])
            elif isinstance(piece, ConstantPiece):
                constant.append((piece, a))
            if isinstance(piece, CubicSplinePiece):
                breaks += [x for x in piece.knots.tolist() if a < x < b]
                rides += [e for e in piece.ride_knots if a < e[0] < b]
        knots = _unique(np.concatenate(pts + [breaks]))
        knots = _within(knots, self.r_min, self.r_cap)
        # A constant piece whose wall gap r^k - 2 m has its root rho nearer
        # the piece's start than the first cell is wide bisects that cell
        # towards rho, as the singularity on a boundary sphere would: it
        # takes knots at rho + (a - rho) 2^j, each cell as wide as it lies
        # from rho.
        graded = []
        for piece, a in constant:
            rho = (2.0 * piece.value) ** (1.0 / k)
            first = knots[knots.searchsorted(a, side="right")]
            if rho < a and a - rho < first - a:
                graded.append(_doubling(rho, a - rho, first))
        # A ride knot's chart runs across its span: the cells on its rising
        # side, up to the next break, as far as the last one that lies
        # nearer the knot than its width.  The 1/sqrt(gap) peak there reads
        # like the singularity on a boundary sphere, and converges on one
        # panel in r only from about a width away.  In t = asinh((u - u_k)
        # / w) the integrand is flat near the knot and bends where the
        # cubic term of the gap takes over, past the span's far end t_e:
        # the span takes knots _RIDE_STEP 2^j in from t_e, each cell as
        # wide as it lies from t_e.  _ride keeps (knot, side, w, far end).
        self._ride = []
        for knot, side, w in rides:
            lo, hi = ((knot, min(x for x in breaks if x > knot)) if side > 0
                      else (max(x for x in breaks if x < knot), knot))
            grid = _within(knots, lo, hi)
            edge = float(_near_edge(grid if side > 0 else grid[::-1], knot))
            u_k = knot ** float(k)
            t = _doubling(math.asinh((edge ** float(k) - u_k) / w),
                          -side * _RIDE_STEP, 0.0)
            graded.append((u_k + w * np.sinh(t)) ** (1.0 / k))
            self._ride.append((knot, side, w, edge))
        if graded:
            knots = _unique(np.concatenate([knots] + graded))
        # below this edge a singular model integrates under u = sqrt(r - r_min):
        # the end of the last cell of the first piece that lies nearer r_min
        # than its width.  The (r - r_min)^(-1/2) of the integrands converges
        # on one panel in r only from about a width away.
        self._sub_edge = -math.inf
        if self._singular:
            self._sub_edge = _near_edge(
                _within(knots, self.r_min,
                        min(x for x in breaks if x > self.r_min)),
                self.r_min)
        # every integral's cells end at these radii
        self._cuts = np.array(sorted({x for x in breaks + [self._sub_edge]
                                      if self.r_min < x < self.r_cap}))
        # One round builds both tables: one pass of panels over (F', s') on
        # the knot cells in their charts, at each cell's 21 nodes and both
        # chart ends, the level 0 of _adaptive_cells.  Each row keeps its
        # own tolerance groups, the boundary cells' apart, scaled by their
        # largest increment.  A round that does not accept a knot cell on
        # its first panel halves it at the midpoint of its chart, which
        # both halves keep, and runs again.
        for depth in range(_MAX_DEPTH + 1):
            _, _, _, q, lo, hi = self._chart_rows(knots[:-1], knots[1:])
            blocks = []

            def with_ends(x, p):  # the ends ride in p, after the q row
                y = self._chart_values(
                    self._slopes, np.concatenate([x, p[:, 3:]], axis=1),
                    p[:, :3])
                blocks.append(y)
                return y[..., :-2]

            inc, err = _panel_integrals(with_ends, lo, hi,
                                        np.column_stack([q, lo, hi]))
            if not np.isfinite(err).all():
                j, c = _first_cell(~np.isfinite(err))
                raise QuadratureError(
                    f"table: non-finite integrand on r in "
                    f"[{float(knots[c])!r}, {float(knots[c + 1])!r}] (panel "
                    f"value {float(inc[j, c])!r}, error estimate "
                    f"{float(err[j, c])!r})")
            size = np.abs(inc)
            scale = np.empty_like(inc)
            for part in (q[:, 0] == 0.0, q[:, 0] != 0.0):
                scale[:, part] = size[:, part].max(
                    axis=1, initial=_TINY, keepdims=True)
            ok = err <= _QUAD_REL * (size + 1e-4 * scale)
            if ok.all():
                break
            # cells narrower than a few ulps cannot be split further
            ok |= (hi - lo) <= 4e-16 * np.maximum(np.abs(lo), np.abs(hi))
            accepted = ok.all(axis=0)
            if accepted.all():
                break
            c = int(np.argmin(accepted))
            if depth == _MAX_DEPTH:
                raise QuadratureError(
                    f"table cell r in [{float(knots[c])!r}, "
                    f"{float(knots[c + 1])!r}] still bisects after "
                    f"{depth} halvings")
            mid = 0.5 * (lo + hi)[~accepted, None]
            knots = _unique(np.append(
                knots, self._chart_r(mid, q[~accepted])[:, 0]))
        # -0.0 reads 0.0, as in a sum of accepted panels from zero
        inc = inc + 0.0
        y = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-2)
        self.knots = knots
        self._inc = inc
        self._Fs_knots = np.zeros((inc.shape[0], knots.size))
        np.cumsum(inc, axis=1, out=self._Fs_knots[:, 1:])
        # Each cell keeps its chart and the integrand at its nodes and both
        # chart ends, which give its integral from its start (_TO_CHEBYSHEV)
        self._nodes = y
        # chart coordinate at the start, chart width, chart row
        self._cells = (lo, hi - lo, q)
        # Each cell's panel integrates to P(1) times its width, which is its
        # K21 value in exact arithmetic: a non-finite value at a chart end,
        # which no K21 node sees, or a map that rounds badly fails the
        # pass's acceptance rule here.  No value is kept, so a matrix
        # product, whose rounding depends on the batch, may form P(1).
        with np.errstate(invalid="ignore", over="ignore"):
            whole = (y @ _WHOLE) * self._cells[1]
            size = np.abs(inc)
            bad = ~(np.abs(whole - inc) <= _QUAD_REL * (
                size + 1e-4 * size.max(axis=1, keepdims=True)))
        if bad.any():
            j, c = _first_cell(bad)
            raise QuadratureError(
                f"table cell r in [{float(knots[c])!r}, {float(knots[c + 1])!r}"
                f"] integrates to {float(whole[j, c])!r} on its panel's "
                f"interpolant, against its K21 value {float(inc[j, c])!r}; "
                f"values at its chart ends {y[j, c, _START:].tolist()!r}")

    @cached_property
    def _length_cuts(self) -> np.ndarray:
        """The cuts of a leg's length: _cuts, and the graded knots of the
        pieces beside one with ride knots.

        The gap runs close to the wall there, and s' falls off a near-root
        just past the piece, which a leg cell reaching far beyond it would
        bisect towards level by level.  The angle chart squeezes those radii
        into its cell's end, r = c / beta, and converges on the cuts alone.
        """
        inside = [(piece, a, b) for _, piece, a, b in self._pieces_inside()]
        rides = [isinstance(piece, CubicSplinePiece) and any(
            a < e[0] < b for e in piece.ride_knots) for piece, a, b in inside]
        beside = [_graded(*inside[j][1:]) for k, ride in enumerate(rides)
                  if ride for j in (k - 1, k + 1) if 0 <= j < len(inside)]
        cuts = _unique(np.concatenate([self._cuts] + beside))
        return cuts[(cuts > self.r_min) & (cuts < self.r_cap)]

    # -- the integration primitive ---------------------------------------------

    def _chart_x(self, r, q, angle: bool = False) -> np.ndarray:
        """The chart coordinate of radii r, each in the chart of its q row
        (see _integrate_cells): r on plain radial cells, u = sqrt(r - r_min)
        on boundary cells, t = asinh((r^(m-2) - u_k) / w) on ride cells,
        and on geodesic legs, whose rows carry a fourth column, the signed
        Clairaut constant, their leg coordinates.  Every chart increases
        with r; a ride chart is 0 at its knot."""
        r_min = self.r_min
        bnd, sw = q[:, 0] != 0.0, q[:, 1]
        if q.shape[1] > 3:
            cs = q[:, 3]
            c = np.abs(cs)
            x = np.sqrt((r - c) * (r + c))
            if angle:
                x = np.where(cs < 0.0, -np.arctan2(c, x), np.arctan2(x, c))
            x[bnd] = np.arcsinh(np.sqrt((r[bnd] - np.maximum(c[bnd], r_min))
                                        / np.abs(c[bnd] - r_min)))
        else:
            x = r.copy()
            if bnd.any():
                x[bnd] = np.sqrt(r[bnd] - r_min)
        on = sw != 0.0
        if on.any():
            x[on] = np.arcsinh((r[on] ** float(self.dimension - 2)
                                - q[on, 2]) / np.abs(sw[on]))
        return x

    def _leg_radius(self, x, cs, angle: bool) -> np.ndarray:
        """r at nodes x of plain geodesic-leg cells with signed Clairaut
        constants cs (see _integrate_cells), without a sine or a hypot: on
        an angle row r = |c| sqrt(1 + t^2) / max(t, [row is alpha]), t =
        |tan x|, which is c / cos(alpha) on an alpha row (where t <= 1) and
        c / sin(beta) on a -beta row; on a v row r = sqrt(v^2 + c^2),
        scaled by the larger of the two so that neither square under- or
        overflows."""
        c = np.abs(cs)
        # a node the chart's round trip puts below r_min reads r_min, as
        # the profile's range check would clip it
        if angle:
            t = np.abs(np.tan(x))
            r = c * np.sqrt(1.0 + t * t) / np.maximum(t, cs > 0.0)
            return np.maximum(r, self.r_min)
        big = np.maximum(x, c)
        with np.errstate(invalid="ignore"):  # 0/0 where x = c = 0
            r = np.minimum(x, c) / big
        r *= r
        r += 1.0
        np.sqrt(r, out=r)
        r *= big
        # fmax reads r_min where x = c = 0 left NaN
        return np.fmax(r, self.r_min, out=r)

    @staticmethod
    def _angle_signs(c, b) -> np.ndarray:
        """The signed Clairaut constants of plain angle-leg cells ending at
        b: -c where the cell's far end has alpha > pi/4, so that it runs
        under -beta (see _integrate_cells), else c."""
        return np.where((c > 0.0) & (b * b > 2.0 * c * c), -c, c)

    def _leg_estimates(self, lo, hi, c) -> np.ndarray:
        """A cheap estimate of _leg_integrals' swept angles: the 5-point
        Gauss rule on each whole leg in its plain angle chart, with neither
        cuts nor the charts of the boundary and the rides, and no error
        estimate.  Each leg's value depends on that leg alone."""
        out = np.zeros(lo.size)
        live = lo < hi
        lo, hi, c = lo[live], hi[live], c[live]
        q = np.zeros((lo.size, 4))
        q[:, 3] = self._angle_signs(c, hi)
        x_lo, x_hi = self._chart_x(lo, q, True), self._chart_x(hi, q, True)
        half = 0.5 * (x_hi - x_lo)
        x = (0.5 * (x_lo + x_hi))[:, None] + half[:, None] * _GAUSS5_X
        sp = self._s_prime(self._leg_radius(x, q[:, 3:], True).ravel())
        # row-wise sums, which round alike in any batch; a leg with c = 0 has
        # no width, and reads NaN where s' is infinite at r_min
        with np.errstate(invalid="ignore"):
            out[live] = half * (sp.reshape(x.shape) * _GAUSS5_W).sum(axis=1)
        return out

    def _chart_r(self, x, q, angle: bool = False) -> np.ndarray:
        """The node map of _chart_x: the radii at a (cells, nodes) block x,
        one q row per cell."""
        r_min, k = self.r_min, self.dimension - 2
        leg = q.shape[1] > 3
        bnd, on = q[:, 0] != 0.0, q[:, 1] != 0.0
        if leg:
            r = np.empty_like(x)
            plain = ~(bnd | on)
            r[plain] = self._leg_radius(x[plain], q[plain, 3:], angle)
        else:
            r = x.copy()
        if bnd.any():
            # For u below sqrt(ulp(r_min)) the sum r_min + u*u rounds back
            # to r_min where the integrand diverges, so the radius is
            # floored one step above r_min and _chart_jacobians re-derives
            # the offset from it; fvec(r) * sqrt(r - r_min) stays bounded
            # as r -> r_min.
            xb, cb = x[bnd], q[bnd, -1:]
            r[bnd] = np.maximum(np.maximum(cb, r_min) + np.abs(cb - r_min)
                                * np.sinh(xb) ** 2 if leg
                                else r_min + xb * xb,
                                np.nextafter(r_min, np.inf))
        if on.any():
            w = np.abs(q[on, 1:2])
            r[on] = (q[on, 2:3] + w * np.sinh(x[on])) ** (1.0 / k)
        return r

    def _chart_jacobians(self, x, r, q, angle: bool = False) -> list:
        """The (rows, Jacobian) of each chart that scales the integrand at a
        (cells, nodes) block x with radii r = _chart_r(x, q, angle): the
        boundary's, the ride's."""
        r_min, k = self.r_min, self.dimension - 2
        leg = q.shape[1] > 3
        bnd, on = q[:, 0] != 0.0, q[:, 1] != 0.0

        def dx_dr(r, c):
            # whose 1/sqrt(r - c) a boundary chart's dr/du cancels
            return r / np.sqrt(r + c) * (c / (r * r) if angle else 1.0)

        scaled = []
        if bnd.any():
            # Scaling by 2 is exact, so fvec(r) * (2 sqrt(r - r_min))
            # rounds as fvec(r) * 2.0 * sqrt(r - r_min) does.
            jac = 2.0 * np.sqrt(r[bnd] - r_min)
            if leg:
                jac *= dx_dr(r[bnd], q[bnd, -1:])
            scaled.append((bnd, jac))
        if on.any():
            u_k, w = q[on, 2:3], np.abs(q[on, 1:2])
            # the offset from the rounded radius, as the gap reads it
            u = r[on] ** float(k)
            jac = np.hypot(w, u - u_k) * r[on] / (k * u)
            if leg:
                jac *= dx_dr(r[on], q[on, 3:])
                # r - c from the offset d, whose digits r has rounded off
                d = w * np.sinh(x[on])
                r_k = u_k ** (1.0 / k)
                jac /= np.sqrt(r_k - q[on, 3:]
                               + r_k * np.expm1(np.log1p(d / u_k) / k))
            scaled.append((on, jac))
        return scaled

    def _chart_values(self, fvec: Callable, x, q, angle: bool = False):
        """The integrand of fvec in the charts of the q rows at a (cells,
        nodes) block x: fvec at the radii there, times each chart's
        Jacobian, in the block's shape (with a leading axis for a stack)."""
        r = self._chart_r(x, q, angle)
        y = fvec(r.reshape(-1))
        y = y.reshape(y.shape[:-1] + r.shape)
        for mask, jac in self._chart_jacobians(x, r, q, angle):
            y[..., mask, :] *= jac
        return y

    def _chart_rows(self, a, b, c=None, angle: bool = False):
        """The chart of each cell [a_i, b_i] (see _integrate_cells), as
        (owner, a, b, q, lo, hi): its q row and the chart's values lo < hi
        at a and b, as every chart increases with r.  On a leg (Clairaut
        constants c), a ride cell that also carries the leg's (r - c)^(-1/2)
        end is split at its midpoint and the half away from the knot
        appended, which runs in x; owner maps cells to input cells."""
        n, leg = a.size, c is not None
        sub = b <= self._sub_edge
        if leg:
            sub &= c != self.r_min
        # the signed peak width, -w on a cell left of its knot, w right of
        # it, and u at the knot, formed as the spline evaluator forms u from
        # r: on a cell that ends on the knot, and on a radial cell inside
        # the knot's span; the cell runs over t in [asinh(d_a / w),
        # asinh(d_b / w)], d = u - u_k the offset from the knot in u
        sw, u_k = np.zeros(n), np.zeros(n)
        for knot, side, w, edge in self._ride:
            on = (b if side < 0 else a) == knot
            if not leg:
                on |= (min(knot, edge) <= a) & (b <= max(knot, edge))
            on &= ~sub
            sw[on], u_k[on] = side * w, knot ** float(self.dimension - 2)
        cols = [sub, sw, u_k]
        owner = np.arange(n)
        if leg:
            split = np.nonzero((sw < 0.0) & (a - c < b - a))[0]
            a, b = np.append(a, a[split]), np.append(b, 0.5 * (a + b)[split])
            a[split] = b[n:]
            owner = np.append(owner, split)
            c, sub = c[owner], sub[owner]
            sw, u_k = (np.append(x, np.zeros(split.size)) for x in (sw, u_k))
            # c, signed negative on the plain cells under -beta
            cols = [sub, sw, u_k, np.where(angle & ~sub & (sw == 0.0),
                                           self._angle_signs(c, b), c)]
        # q rows: (1.0 on boundary cells, signed w on ride cells, u_k[, c])
        q = np.column_stack(cols)
        lo, hi = self._chart_x(a, q, angle), self._chart_x(b, q, angle)
        return owner, a, b, q, lo, hi

    def _integrate_cells(self, fvec: Callable, a, b, group=None, c=None,
                         angle: bool = False, label=None) -> np.ndarray:
        """Integrals of fvec over cells [a_i, b_i], each inside one knot
        interval, or below _sub_edge.

        One _adaptive_cells run over every cell, each in its kind's
        coordinate chosen by a ``param`` row (see _chart_rows), so one fvec
        call takes the nodes of all kinds.  fvec takes a 1-D array of radii
        and returns one row.  The param rows form a table of charts:
        _chart_x maps radii to a row's coordinate, _chart_r maps a (cells,
        21) block of nodes back to radii and _chart_jacobians gives the
        charts' Jacobians there, transforming only the rows of cells whose
        coordinate is not r: boundary cells, below _sub_edge, under u,
        r = r_min + u^2, in group labels offset past the others' to keep the
        tolerance scales of a run of their own; ride cells, which end on a
        ride knot u_k (see CubicSplinePiece) on the side where the gap
        rises, or, off a leg, lie in its span (see _build_tables), under
        u = u_k + w sinh(t) with u = r^(m-2), t negative left of the knot;
        and the cells of geodesic legs.

        An array ``c`` of Clairaut constants puts the cells on geodesic legs
        (see _leg_integrals): fvec is integrated over
        x = v = sqrt(r^2 - c^2), or with ``angle`` alpha = arctan(v / c), or
        -beta = -arctan(c / v) where the far end has alpha > pi/4, as
        c / cos(alpha) resolves r only to about 2.2e-16 r / c there.  Boundary
        cells with c != r_min run under r = max(c, r_min) + |c - r_min|
        sinh(u)^2; a ride cell's Jacobian gains dx/dr, and one that also
        carries the leg's (r - c)^(-1/2) end is split at its midpoint, the
        half at the knot riding, the other in x.

        A QuadratureError names the integral's ``label`` and radii: the
        chart maps the failing interval back to r.  A query with a
        ``group`` label of its own (see _adaptive_cells) gets the same
        value whatever else is in its batch.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        n, leg = a.size, c is not None
        group = np.zeros(n, dtype=np.intp) if group is None else group
        owner, a, b, q, lo, hi = self._chart_rows(a, b, c, angle)
        group, sub = group[owner], q[:, 0] != 0.0
        plain = leg and not (q[:, :2] != 0.0).any()

        def g(x, q):
            if plain:  # plain leg charts only
                r = self._leg_radius(x, q[:, 3:], angle)
                return fvec(r.reshape(-1)).reshape(r.shape)
            return self._chart_values(fvec, x, q, angle)

        def span(i, x_lo, x_hi):  # an interval of cell i's chart, in radii
            # a chart end may sit where its map is singular
            with np.errstate(all="ignore"):
                r = self._chart_r(np.array([[x_lo, x_hi]]), q[i:i + 1],
                                  angle)
            r = np.clip(r, a[i], b[i])
            return f"r in [{float(r.min())!r}, {float(r.max())!r}]"

        # the kinds under r and under u keep apart in tolerance groups, as
        # in runs of their own
        if sub.any():
            group = np.where(sub, group + (int(group.max()) + 1), group)
        y = _adaptive_cells(g, lo, hi, _QUAD_REL, group, q, span, label)
        y[owner[n:]] += y[n:]  # a split leg cell sums its halves
        return y[:n]

    def _leg_integrals(self, lo, hi, c, angle: bool, group) -> np.ndarray:
        """Lengths, or with ``angle`` swept angles, of the geodesic legs with
        Clairaut constants c from radius lo up to hi, c <= lo <= hi, in cells
        that end at the model's cut radii (see _integrate_cells).  A leg from
        r_min with c = r_min on a singular model spirals into the boundary
        sphere and reads +inf.  Legs sharing a ``group`` label share their
        tolerance scales (see _adaptive_cells)."""
        diverge = self._singular & (c == self.r_min) & (lo == c) & (hi > c)
        cuts = self._cuts if angle else self._length_cuts
        edges = np.column_stack([lo, np.clip(cuts, lo[:, None], hi[:, None]),
                                 hi])
        live = (edges[:, :-1] < edges[:, 1:]) & ~diverge[:, None]
        owner = np.broadcast_to(np.arange(lo.size)[:, None], live.shape)[live]
        return np.where(diverge, np.inf, 0.0) + np.bincount(
            owner, self._integrate_cells(
                self._s_prime, edges[:, :-1][live], edges[:, 1:][live],
                group[owner], c[owner], angle,
                "leg angle" if angle else "leg length"), minlength=lo.size)

    # -- cumulative queries ----------------------------------------------------

    def _radii(self, r) -> Tuple[np.ndarray, bool]:
        """checked_range over the model's radii [r_min, r_cap]."""
        return checked_range(r, self.r_min, self.r_cap, "radius")

    def _fraction(self, cell, r) -> np.ndarray:
        """Where radii r lie in their table cells, as fractions of the
        chart from the cell's start, its smaller radius."""
        x0, width, q = self._cells
        x = self._chart_x(r, q[cell])
        return np.minimum(np.maximum((x - x0[cell]) / width[cell], 0.0), 1.0)

    @staticmethod
    def _panel_partials(panels, f, slope: bool = False):
        """Integrals over r from the start of each point's panel (see
        _panels) to the fraction f of its chart, P(f) = f (p(0) + f R(f))
        times the chart's width, and with ``slope`` their derivatives in f
        too, from R(f) and R'(f) in barycentric form (Schneider and
        Werner)."""
        start, values, width = panels
        rf, drf = np.empty(start.shape), np.empty(start.shape)
        for lo in range(0, f.size, _BLOCK):
            part = slice(lo, lo + _BLOCK)
            d = f[part, None] - _CHEB_F
            # a point on a Chebyshev point, or too close to one to weigh,
            # reads its value (that point's weight alone, divided by
            # itself) and a derivative of 0
            hit = np.abs(d) < 1e-200
            if hit.any():
                at = hit.any(axis=-1)
                d[at] = np.where(hit[at], _CHEB_W, np.inf)
            w = _CHEB_W / d
            total = w.sum(axis=-1)
            rf[..., part] = (w * values[..., part, :]).sum(axis=-1) / total
            if slope:
                dv = rf[..., part, None] - values[..., part, :]
                drf[..., part] = (w * dv / d).sum(axis=-1) / total
        value = width * f * (start + f * rf)
        return ((value, width * (start + f * (2.0 * rf + f * drf))) if slope
                else value)

    def _cumulative_at(self, r, row: int):
        """Row ``row`` of the (F, s) table at each radius in r, in the same
        shape.

        A knot reads the table; any other radius adds the panel
        partial (see _panel_partials) from the start of its table cell.  No
        quadrature runs, and each radius reads the same in any batch.
        """
        arr, scalar = self._radii(r)
        knots = self.knots
        i = knots.searchsorted(arr)
        out = self._Fs_knots[row, i]
        off = knots[i] != arr
        if off.any():
            cell = i[off] - 1
            out[off] = self._Fs_knots[row, cell] + self._panel_partials(
                _panels(cell, self._nodes[row], self._cells[1]),
                self._fraction(cell, arr[off]))
        return float(out[0]) if scalar else out

    def F(self, r):
        """Graph height F(r), normalized to F(r_min) = 0."""
        return self._cumulative_at(r, 0)

    def s(self, r):
        """Radial arclength from the inner boundary to the sphere at r."""
        return self._cumulative_at(r, 1)

    def _F_and_s_rises(self, r_a, r_b: float) -> np.ndarray:
        """F(r_b) - F(r_a) and s(r_b) - s(r_a) for each r_a <= r_b, the
        rows of a (2, n) array, from the table without differencing two
        cumulative values: the increments of the table cells between, summed
        from r_b's cell down, plus the panel partials at both ends (r_a's
        cell's increment less the part below r_a)."""
        ras, _ = self._radii(r_a)
        r_b = float(self._radii(r_b)[0][0])
        if np.max(ras, initial=r_b) > r_b:
            raise RangeError(f"rises need r_a <= r_b, got "
                             f"{float(np.max(ras))!r} > {r_b!r}")
        ends = np.append(ras, r_b)
        cells = np.minimum(self.knots.searchsorted(ends, side="right") - 1,
                           self._inc.shape[1] - 1)
        part = self._panel_partials(
            _panels(cells, self._nodes, self._cells[1]),
            self._fraction(cells, ends))
        return _rises(self._inc, cells[:-1], cells[-1], part[:, :-1],
                      part[:, -1:])

    @property
    def s_cap(self) -> float:
        return float(self._Fs_knots[1, -1])

    def r_of_s(self, s):
        """Invert the arclength: the radius whose sphere lies at arclength s.

        An arclength within 4 ulps of a tabulated one reads its knot;
        the rest run one safeguarded Newton iteration over the whole array
        on their table cells' panels (see _panel_partials), each point in
        its own cell and frozen once s(r) reads its target to an ulp, or
        once a step no longer moves it, so the radius is the table's own
        root at any scale.
        """
        arr, scalar = checked_range(s, 0.0, self.s_cap, "arclength")
        table = self._Fs_knots[1]
        knots = self.knots
        i = np.searchsorted(table, arr)
        # the cumulative sum rounds by a few ulps, so an exact-match rule
        # would depend on how it rounded
        j = np.where((i > 0) & (arr - table[i - 1] < table[i] - arr), i - 1, i)
        out = knots[j]
        off = np.abs(table[j] - arr) > 4.0 * np.spacing(arr)
        if np.any(off):
            target, cell = arr[off], i[off] - 1
            x0, width, q = (v[cell] for v in self._cells)
            base = table[cell]
            # the Newton variable is the fraction f of the cell's chart from
            # its start, along which s rises
            f = (target - base) / (table[cell + 1] - base)
            f_min, f_max = np.zeros(f.size), np.ones(f.size)
            # each point stays in its cell, so its panel is read once
            panels = _panels(cell, self._nodes[1], self._cells[1])
            tol = np.spacing(target)
            active = np.ones(f.size, dtype=bool)
            for _ in range(80):
                part, slope = self._panel_partials(panels, f, slope=True)
                g = base + part - target
                active &= ~(np.abs(g) <= tol)
                if not np.any(active):
                    break
                # the bracket of a point that stopped no longer matters
                above = g > 0
                f_max = np.where(above, f, f_max)
                f_min = np.where(above, f_min, f)
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = f - g / slope
                newton = (slope > 0) & (f_min < step) & (step < f_max)
                step = np.where(newton, step, 0.5 * (f_min + f_max))
                active &= step != f
                f = np.where(active, step, f)
            r = self._chart_r((x0 + f * width)[:, None], q)[:, 0]
            out[off] = np.clip(r, knots[cell], knots[cell + 1])
        return float(out[0]) if scalar else out

    # -- volumes over radial ranges -------------------------------------------

    def shell_volume(self, r_a: float, r_b: float) -> float:
        """Riemannian volume of the shell between the spheres at r_a, r_b,
        read off the table (see _window_volumes)."""
        if r_b < r_a:
            raise RangeError("shell_volume needs r_a <= r_b")
        return self._window_volumes(r_a, r_a, r_b)[0]

    def graph_excess(self, r_a: float, r_b: float) -> float:
        """Integral of (F(r) - F(r_a)) over the annulus [r_a, r_b]: by
        Fubini, that of F'(t) omega (r_b^m - t^m) / m over [r_a, r_b], read
        off the table (see _window_volumes)."""
        if r_b < r_a:
            raise RangeError("graph_excess needs r_a <= r_b")
        return self._window_volumes(r_a, r_a, r_b)[1]

    def _window_volumes(self, r_deep: float, r_a: float,
                        r_b: float) -> Tuple[float, float, float, float, float]:
        """shell_volume(r_a, r_b), graph_excess(r_a, r_b),
        shell_volume(r_deep, r_a), and the rise F(r_b) - F(r_a) and strip
        length s(r_b) - s(r_a), r_deep <= r_a <= r_b, read off the table.

        The shell weighs s' by omega r^(m-1), the graph excess F' by
        omega (r_b^m - r^m) / m, at each cell's 21 nodes and 2 ends, radii
        from one _chart_r call.  Whole cells read the K21 sums of the
        weighted values (F' and s' their increments), the cells of the three
        radii the partials of their 23, summed as _F_and_s_rises sums: each
        value is its own query's, bit for bit, and as accurate as the table.
        A weighted cell that reads a non-finite value raises QuadratureError
        naming the volume and the cell."""
        m = self.dimension
        ends = self._radii([r_deep, r_a, r_b])[0]
        tip = np.minimum(self.knots.searchsorted(ends, side="right") - 1,
                         self._inc.shape[1] - 1)
        cells = slice(tip[0], tip[2] + 1)
        x0, width, q = (v[cells] for v in self._cells)
        r = self._chart_r(x0[:, None] + width[:, None] * (_TABLE_X + 1.0)
                          / 2.0, q)
        power = r ** (m - 1)
        weight = self.omega * np.stack([power, (ends[2] ** m - power * r) / m])
        # the shell on s', the graph excess on F'
        y = weight * self._nodes[::-1, cells]
        half = 0.5 * width
        k21 = (y[..., :_START] * _K21_W).sum(axis=-1) * half
        # the build held (F', s') to its acceptance rule, and K21, exact to
        # degree 31, integrates a weight of low degree in r times their
        # interpolant as well: only a weight that overflows is left to refuse
        bad = ~np.isfinite(k21)
        at = tip - tip[0]  # the deep shell alone reads the cells below at[1]
        bad[1, :at[1]] = False
        if bad.any():
            k, i = _first_cell(bad)
            what = ("graph excess" if k else "deep shell" if i < at[1]
                    else "window shell")
            raise QuadratureError(
                f"{what}: table cell r in [{float(self.knots[tip[0] + i])!r}, "
                f"{float(self.knots[tip[0] + i + 1])!r}] reads a weighted "
                f"integral of {float(k21[k, i])!r}")
        # rows: the shell, the graph excess, F', s'
        rows = np.concatenate([y, self._nodes[:, cells]])
        whole = np.concatenate([k21, self._inc[:, cells]])
        part = self._panel_partials(_panels(at, rows, width),
                                    self._fraction(tip, ends))
        shell, excess, rise, strip = _rises(whole, at[1], at[2], part[:, 1],
                                            part[:, 2]).tolist()
        deep = _rises(whole[0], at[0], at[1], part[0, 0], part[0, 1])
        return shell, excess, float(deep), rise, strip

    def sup_grad(self, r_a, r_b: float):
        """Largest F' at the model's knots inside [r_a, r_b] and at both ends.

        A knot scan, not a certified supremum: where F' peaks between two
        knots the scan reads below sup F' on the range.  r_a may be an array
        of left ends sharing r_b; a running maximum over the knots serves
        them all from one F' evaluation.
        """
        ras, scalar = self._radii(r_a)
        r_b = float(self._radii(r_b)[0][0])
        if np.max(ras, initial=r_b) > r_b:
            raise RangeError(f"sup_grad needs r_a <= r_b, got "
                             f"{float(np.max(ras))!r} > {r_b!r}")
        knots = self.knots
        inner = knots[(knots > np.min(ras, initial=r_b)) & (knots < r_b)]
        vals = self._f_prime(np.concatenate([ras, inner, [r_b]]))
        at_knots = vals[ras.size:-1]
        # tail[k] = max F' over inner[k:]; the -inf entry is an empty tail
        tail = np.append(np.maximum.accumulate(at_knots[::-1])[::-1], -np.inf)
        first = np.searchsorted(inner, ras, side="right")
        out = np.maximum(np.maximum(vals[:ras.size], tail[first]), vals[-1])
        return float(out[0]) if scalar else out

    # -- derived geometry ------------------------------------------------------

    @cached_property
    def r_disk(self) -> float:
        """Largest radius through which the reconstruction is exactly flat,
        m_H = 0: r_min when m_H(r_min) > 0, +inf when m_H vanishes through
        r_cap.

        m_H is nondecreasing, and on every piece kind it turns positive
        right after the last radius where it vanishes, unless it vanishes on
        that whole piece or spline segment.  That radius is a piece end or a
        spline knot, so a knot of the table: the one before the first knot
        with m_H > 0.
        """
        curved = self.profile._mass_and_gap(self.knots)[0] > 0.0
        if not curved.any():
            return math.inf
        return float(self.knots[max(int(np.argmax(curved)) - 1, 0)])

    def quantities(self, r) -> dict:
        """Pointwise invariants of the reconstruction at radii r > r_min.

        Returns scalar curvature R, sphere area A, sphere mean curvature H,
        the Hawking mass m_H and its radial derivative m_H_prime, all from
        the graph parametrization (one-sided at piece joints): floats for a
        scalar r, arrays for an array.
        """
        x, scalar = self._radii(r)
        if np.any(x <= self.r_min):  # singular there: F' = inf, or r = 0
            raise RangeError(f"quantities requires r > r_min = {self.r_min!r}"
                             f", got {float(np.min(x))!r}")
        m = self.dimension
        mh, gap = self.profile._mass_and_gap(x)
        (mp,) = self.profile._mass_prime(x)
        area = self.omega * x ** (m - 1)
        # a graph this close to flat has zero slope in double precision
        curved = 2.0 * mh > 1e-280 * x ** (m - 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            zp2 = np.where(curved, 2.0 * mh / gap, 0.0)
            zp = np.sqrt(zp2)
            gap_p = (m - 2) * x ** (m - 3) - 2.0 * mp
            zpp = (mp * gap - mh * gap_p) / (gap * gap * zp)
            one = 1.0 + zp2
            curv = np.where(curved, (m - 1) * (zp / x) / one
                            * ((m - 2) * zp / x + 2.0 * zpp / one), 0.0)
        mean = (m - 1) / (x * np.sqrt(one))
        out = {"R": curv, "A": area, "H": mean, "m_H": mh, "m_H_prime": mp}
        return {k: float(v[0]) for k, v in out.items()} if scalar else out


@dataclass(frozen=True)
class TubularWindow:
    """The arclength window of half-width D around the sphere of area alpha0."""

    alpha0: float
    D: float
    r0: float
    s0: float
    r_minus: float
    r_plus: float
    s_minus: float
    s_plus: float
    clamped: bool


def window_bracket(model: ManifoldModel, alpha0: float,
                   D: float) -> Tuple[float, float, float]:
    """Radius r0 of the alpha0 sphere and a radius bracket around its window.

    Arclength dominates radius (s' >= 1), so the tubular window of half-width
    D lies within (max(r_min, r0 - D), min(r0 + D, r_cap)] = (r_lo, r_hi].
    Returns (r0, r_lo, r_hi) after checking the window's preconditions.
    """
    r0 = sphere_radius(positive(alpha0, "alpha0"), model.dimension)
    D = positive(D, "D")
    if r0 <= model.r_min:
        raise DomainError(
            f"the alpha0 sphere (r0={r0:g}) is at or below the boundary")
    if r0 >= model.r_cap:
        raise WindowOverflowError(
            f"the alpha0 sphere (r0={r0:g}) is beyond r_cap; increase r_cap")
    return r0, max(model.r_min, r0 - D), min(r0 + D, model.r_cap)


def tubular_window(model: ManifoldModel, alpha0: float, D: float) -> TubularWindow:
    """Locate the tubular neighborhood of the alpha0 sphere in the model."""
    alpha0 = float(alpha0)
    D = float(D)
    r0, r_lo, r_hi = window_bracket(model, alpha0, D)
    s0 = float(model.s(r0))
    s_plus = s0 + D
    if s_plus > model.s_cap * (1.0 + 1e-12):
        raise WindowOverflowError(
            f"window reaches arclength {s_plus:g} but the model ends at "
            f"{model.s_cap:g}; increase r_cap")
    clamped = s0 - D < 0.0
    s_minus = max(s0 - D, 0.0)
    # s = 0 is tabulated, so a clamped window starts exactly at r_min
    ends = model.r_of_s(np.array([s_minus, min(s_plus, model.s_cap)]))
    # the window lies in the bracket; clamp away the couple of ulps the
    # inversion can overshoot by
    r_minus = max(float(ends[0]), r_lo)
    r_plus = min(float(ends[1]), r_hi)
    return TubularWindow(alpha0=alpha0, D=D, r0=r0, s0=s0,
                         r_minus=r_minus, r_plus=r_plus,
                         s_minus=s_minus, s_plus=s_plus, clamped=clamped)
