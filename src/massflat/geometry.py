"""Reconstruction of the manifold determined by a Hawking-mass profile.

An admissible profile determines a rotationally symmetric manifold presented
as a graph over Euclidean space: the graph function F satisfies

    F'(r) = sqrt(2 m_H(r) / (r^(m-2) - 2 m_H(r))),    F(r_min) = 0,

and the radial arclength is s'(r) = sqrt(r^(m-2) / (r^(m-2) - 2 m_H(r))).
The model tabulates F and s over a knot set aligned with the profile pieces,
answers queries by integrating from the nearest knot, and inverts s by a
safeguarded Newton iteration.  Queries take arrays: a batch of radii costs
one adaptive integration, and each value is the same as that of the query
made alone.  Each cell runs in the coordinate of its kind, chosen per cell
within one run, so one integrand call evaluates every node: r; on a minimal
boundary sphere, where the integrands carry a (r - r_min)^(-1/2)
singularity, u = sqrt(r - r_min) below _sub_edge, the end of the last cell
of the first piece that lies nearer r_min than its width, so that every
table cell converges on its first panel; and beside a ride knot of a
gap-space spline, where the gap is g0 + A (u - u_k)^2 + O((u - u_k)^3) in
u = r^(m-2) with g0 tiny (the deep well's wall) and the integrands peak as
1/sqrt(gap), w = sqrt(g0 / A) wide in u and far narrower than a cell,
u = u_k +- w sinh(t).  A geodesic leg with Clairaut constant c (see
embedding.tube_distance) runs in v = sqrt(r^2 - c^2) for its length and
alpha = arctan(v / c), or -arctan(c / v) past pi/4, for its angle, in charts
of its own at the boundary and beside a ride knot.

Every integral goes through ManifoldModel._integrate_cells, which runs
vectorized 21-point Gauss-Kronrod panels (QUADPACK's QK21: the value is the
Kronrod rule K21, the error gauge its gap to the 10-point Gauss rule G10 on
10 of the same nodes) and bisects the panels that miss the tolerance,
breadth-first: each level holds the left halves, then the right halves, of
the cells the level above did not accept, and each cell sums its accepted
panels in level order.  The integrand sees cells, not loose nodes: it is
called as f(x, p) on a (cells, 21) block of nodes with one param row p per
cell, in calls of at most _BLOCK nodes of whole cells, and the chart
function of _integrate_cells maps only the rows of boundary, ride and leg
cells to radii.  An integrand may return a stack of rows; each row keeps
its own acceptance and equals the row integrated alone, so one pass over
(F', s') builds both tables.  The same stacking serves the readers that
need several integrals at once: _F_and_s reads F and s at a batch of radii
in one pass, and _window_volumes integrates a certificate window's shell,
graph excess, deep shell and the rise of F and s across it in one pass
from one profile evaluation per node.  Each value equals the one its
single query gives, bit for bit.  A panel whose value is not finite, one
still unconverged after 50 bisections, or a batch whose pending cells (over
all rows) bisection would grow by more than 200,000 raises QuadratureError,
which names the failing interval in radii.  A model whose r^(m-2) or wall
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
from .profiles import (CubicSplinePiece, HawkingProfile, sphere_radius,
                       unit_sphere_area, validate)

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
# most nodes per integrand call.  Larger calls ran slower per node: their
# temporaries outgrow the allocator's reuse and fault in fresh pages (a
# 2,048-path tube_distance batch took over twice the page faults at 16,384)
_BLOCK = 4096
_MAX_DEPTH = 50
# cells bisection may add to a batch before it gives up
_MAX_EXTRA_CELLS = 200000
# relative targets of the quadrature panels and of the arclength inversion
_QUAD_REL = 1e-12
_SOLVE_REL = 1e-10


def _panel_integrals(f: Callable, a: np.ndarray, b: np.ndarray, param=None):
    """K21 integrals over the cells [a_i, b_i] plus |K21 - G10| error gauges.

    f takes a (cells, 21) block of nodes, each row the 10 G10 and then the
    11 further K21 nodes of one cell (_GL_X), and returns values of the
    block's shape, or a (k, cells, 21) stack of k integrands, which gives
    (k, cells) results.  K21 is exact for polynomials of degree 31, G10 for
    degree 19.  The cells go to f in blocks of at most _BLOCK nodes, so the
    temporaries of a pass stay cache-sized however many cells it holds.
    With a per-cell ``param``, f is called as f(x, p), p holding one row of
    param per row of x.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    step = _BLOCK // _GL_X.size
    # a non-finite integrand is reported by the caller as a QuadratureError.
    # Row-wise sums, not a matrix product: BLAS rounds a row differently
    # depending on how many rows share the call.
    k21 = err = None
    for start in range(0, a.size, step):
        cells = slice(start, start + step)
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
                    group=None, param=None, span=None) -> np.ndarray:
    """Adaptive panel integration of f over each cell, returned per cell.

    Bisection runs breadth-first, one _panel_integrals pass per level.
    Level 0 is the given cells; level d + 1 holds the halves of the cells
    level d does not accept, the left halves and then the right halves,
    each in the order of their parents.  A panel is accepted when its
    K21-G10 gap is at most rel times its value plus 1e-4 times the scale
    of its cell's group: the largest level-0 value among the cells sharing
    its ``group`` label (one group by default).  A cell's result therefore
    depends only on the cells of its own group; it sums the accepted panels
    in level order.  ``param`` (one row per cell) is passed to f as
    f(x, p) (see _panel_integrals), and the halves of a bisected cell
    inherit it.  Errors name an interval [lo, hi] of cell i's coordinate
    as ``span(i, lo, hi)``, by default the plain "[lo, hi]".

    An f returning a (k, n) stack integrates k integrands at once and gives
    a (k, cells) result.  Each row has its own group scales and acceptance
    and stops collecting a cell once it accepts it; a cell stays pending
    while any row still needs it.  A row's live cells are thus an in-order
    subsequence of every level, and its values equal those of the row
    integrated alone, bit for bit.  The bisection cap counts the union of
    pending cells.

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
    idx = np.arange(a.size)
    p = None if param is None else np.asarray(param, dtype=float)
    # every level halves all pending cells, so they share one depth
    for depth in range(_MAX_DEPTH + 1):
        k21, err = _panel_integrals(f, a, b, p)
        stacked = k21.ndim == 2
        k21, err = np.atleast_2d(k21), np.atleast_2d(err)
        n_rows = k21.shape[0]
        if depth == 0:
            live = np.ones(k21.shape, dtype=bool)
        # the nodes are interior, so halving a panel cannot make a
        # non-finite integrand finite: fail on the first one.  err =
        # |k21 - g10| is finite only where k21 is.
        bad = live & ~np.isfinite(err)
        if bad.any():
            j, c = _first_cell(bad)
            raise QuadratureError(
                f"non-finite integrand on {span(idx[c], a[c], b[c])} "
                f"(panel value {float(k21[j, c])!r}, error estimate "
                f"{float(err[j, c])!r})")
        if depth == 0:
            n_groups = int(labels.max()) + 1
            top = np.zeros(n_rows * n_groups)
            np.maximum.at(top, (n_groups * np.arange(n_rows)[:, None]
                                + labels).ravel(), np.abs(k21).ravel())
            scale = np.maximum(top, _TINY).reshape(n_rows, n_groups)[:, labels]
        ok = err <= rel * (np.abs(k21) + 1e-4 * scale[:, idx])
        # cells narrower than a few ulps cannot be split further
        ok |= (b - a) <= 4e-16 * np.maximum(np.abs(a), np.abs(b))
        if depth == 0:
            if ok.all():
                # every row accepts every cell at level 0: summing into
                # zeros would give k21 + 0.0, which turns -0.0 into 0.0
                return k21 + 0.0 if stacked else k21[0] + 0.0
            # per-row accumulators, indexed flat: ufunc.at is much slower
            # with a tuple of index arrays
            out = np.zeros(n_rows * a0.size)
            base = a0.size * np.arange(n_rows)[:, None]
        ok &= live
        np.add.at(out, (base + idx)[ok], k21[ok])
        live &= ~ok
        pending = live.any(axis=0)
        if not pending.any():
            out = out.reshape(n_rows, a0.size)
            return out if stacked else out[0]
        n_next = 2 * int(np.count_nonzero(pending))
        if depth == _MAX_DEPTH or n_next > a0.size + _MAX_EXTRA_CELLS:
            j, c = _first_cell(live)
            i = idx[c]
            raise QuadratureError(
                f"adaptive quadrature did not converge on "
                f"{span(i, a0[i], b0[i])} within {depth} bisections (piece "
                f"{span(i, a[c], b[c])}, error estimate "
                f"{float(err[j, c])!r}; {n_next} cells would be pending)")
        a2, b2 = a[pending], b[pending]
        mid = 0.5 * (a2 + b2)
        idx2 = idx[pending]
        a = np.concatenate([a2, mid])
        b = np.concatenate([mid, b2])
        idx = np.concatenate([idx2, idx2])
        live = np.concatenate([live[:, pending], live[:, pending]], axis=1)
        if p is not None:
            p = np.concatenate([p[pending], p[pending]])


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
    """Tabulated reconstruction of a profile, truncated at r_cap."""

    def __init__(self, profile: HawkingProfile, r_cap: float,
                 check: bool = True):
        if not (math.isfinite(r_cap) and r_cap > 0 and r_cap > 2.0 * profile.r_min):
            raise DomainError(
                f"r_cap must be finite, positive and above 2 r_min, got {r_cap}")
        m = profile.dimension
        # the integrands read r^(m-2), largest at r_cap, and the wall gap:
        # a double that overflows there would surface as a QuadratureError
        with np.errstate(over="ignore", invalid="ignore"):
            xi_cap = float(np.float64(r_cap) ** (m - 2))
            gap_cap = float(profile.wall_gap(r_cap))
        for name, value in (("r^(m-2)", xi_cap), ("the wall gap", gap_cap)):
            if not math.isfinite(value):
                raise DomainError(
                    f"{name} is not a finite double at r_cap = {r_cap!r} in "
                    f"dimension {m} (it reads {value!r}); lower r_cap")
        if check:
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
        gap0 = float(profile.wall_gap(profile.r_min)) if profile.r_min > 0 else 0.0
        self._singular = (profile.r_min > 0
                          and gap0 <= 1e-9 * profile.r_min ** (self.dimension - 2))
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

    def _build_tables(self):
        profile = self.profile
        pts = [np.array([self.r_min, self.r_cap])]
        # piece ends and spline knots: where s' may be unsmooth
        breaks = []
        # (knot, side, w) of the ride knots inside the model
        self._ride = []
        # per piece inside the model: its graded knots and its ride knots
        graded, rides = [], []
        for k, piece in enumerate(profile.pieces):
            a = max(piece.r_lo, self.r_min)
            b = min(piece.r_hi, self.r_cap)
            if not b > a:
                continue
            breaks += [a, b]
            pts.append(np.linspace(a, b, 49))
            graded.append(np.geomspace(a, b, 33) if a > 0 and b / a > 6.0
                          else b * np.linspace(0.0, 1.0, 33) ** 2
                          if a == 0.0 else np.zeros(0))
            pts.append(graded[-1])
            if k == 0 and self._singular:
                # sqrt grading resolves the boundary singularity profile
                pts.append(a + (b - a) * np.linspace(0.0, 1.0, 49) ** 2)
            rides.append([])
            if isinstance(piece, CubicSplinePiece):
                breaks += [x for x in piece.knots if a < x < b]
                rides[-1] = [e for e in piece.ride_knots if a < e[0] < b]
                self._ride += rides[-1]
        knots = np.unique(np.concatenate(pts + [breaks]))
        knots = knots[(knots >= self.r_min) & (knots <= self.r_cap)]
        self.knots = knots
        # below this edge a singular model integrates under u = sqrt(r - r_min):
        # the end of the last cell of the first piece that lies nearer r_min
        # than its width.  The (r - r_min)^(-1/2) of the integrands converges
        # on one panel in r only from about a width away.
        self._sub_edge = -math.inf
        if self._singular:
            head = knots[knots <= min(x for x in breaks if x > self.r_min)]
            near = np.flatnonzero(head[:-1] - self.r_min < np.diff(head))
            self._sub_edge = head[near[-1] + 1]
        # every integral's cells end at these radii
        cuts = np.unique(np.append(breaks, self._sub_edge))
        self._cuts = cuts[(cuts > self.r_min) & (cuts < self.r_cap)]
        # A leg's length also ends at the graded knots of the pieces beside
        # one with ride knots.  The gap runs close to the wall there, and s'
        # falls off a near-root just past the piece, which a leg cell
        # reaching far beyond it would bisect towards level by level.  The
        # angle chart squeezes those radii into its cell's end, r = c / beta,
        # and converges on the cuts alone.
        beside = [graded[j] for k, ride in enumerate(rides) if ride
                  for j in (k - 1, k + 1) if 0 <= j < len(graded)]
        cuts = np.unique(np.concatenate([self._cuts] + beside))
        self._length_cuts = cuts[(cuts > self.r_min) & (cuts < self.r_cap)]
        # one pass builds both tables, each row its own tolerance group,
        # scaled by its largest increment
        self._Fs_knots = np.stack([
            np.concatenate([[0.0], np.cumsum(row)])
            for row in self._integrate_cells(self._slopes, knots[:-1],
                                             knots[1:])])
        self._F_knots, self._s_knots = self._Fs_knots

    # -- the integration primitive ---------------------------------------------

    def _integrate_cells(self, fvec: Callable, a, b, group=None, c=None,
                         angle: bool = False) -> np.ndarray:
        """Integrals of fvec over cells [a_i, b_i], each inside one knot
        interval, or below _sub_edge.

        One _adaptive_cells run over every cell, each in its kind's
        coordinate chosen by a ``param`` row, so one fvec call takes the nodes
        of all kinds.  fvec takes a 1-D array of radii.  The chart function
        takes a (cells, 21) block of nodes with one param row per cell and
        transforms only the rows of cells whose coordinate is not r:
        boundary cells, below _sub_edge, under u, r = r_min + u^2, in group
        labels offset past the others' to keep the tolerance scales of a run
        of their own; ride cells, which end on a ride knot u_k (see
        CubicSplinePiece) on the side where the gap rises, under
        u = u_k +- w sinh(t) with u = r^(m-2); and the cells of geodesic
        legs.  A batch of cells that all run in r needs no chart.

        An array ``c`` of Clairaut constants puts the cells on geodesic legs
        (see _leg_integrals): fvec, one row, is integrated over
        x = v = sqrt(r^2 - c^2), or with ``angle`` alpha = arctan(v / c), or
        -beta = -arctan(c / v) where the far end has alpha > pi/4, as
        c / cos(alpha) resolves r only to about 2.2e-16 r / c there.  Boundary
        cells with c != r_min run under r = max(c, r_min) + |c - r_min|
        sinh(u)^2; a ride cell's Jacobian gains dx/dr, and one that also
        carries the leg's (r - c)^(-1/2) end is split at its midpoint, the
        half at the knot riding, the other in x.

        A QuadratureError names radii: the chart maps the failing interval
        back to r.  A query with a ``group`` label of its own (see
        _adaptive_cells) gets the same value whatever else is in its batch.
        An fvec returning a (k, n) stack gives (k, cells) integrals, each row
        equal to its integrand's alone.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        n, r_min, leg = a.size, self.r_min, c is not None
        group = np.zeros(n, dtype=np.intp) if group is None else group
        sub = b <= self._sub_edge
        if leg:
            sub &= c != r_min
        # the signed peak width, -w on a cell left of its knot, w right of it
        sw = np.zeros(n)
        for knot, side, w in self._ride:
            sw[((b if side < 0 else a) == knot) & ~sub] = side * w

        def nodewise(r):  # fvec at a block of radii, in the block's shape
            y = fvec(r.reshape(-1))
            return y.reshape(y.shape[:-1] + r.shape)

        if not (leg or sub.any() or sw.any()):
            # every cell runs in r: no chart
            return _adaptive_cells(nodewise, a, b, _QUAD_REL, group)
        if leg:
            split = np.nonzero((sw < 0.0) & (a - c < b - a))[0]
            a, b = np.append(a, a[split]), np.append(b, 0.5 * (a + b)[split])
            a[split] = b[n:]
            c, sub, sw, group = (np.append(x, y[split]) for x, y in (
                (c, c), (sub, sub), (sw, np.zeros(n)), (group, group)))
            # c, signed negative on the plain cells under -beta
            cs = np.where(angle & (c > 0.0) & (b * b > 2.0 * c * c) & ~sub
                          & (sw == 0.0), -c, c)

            def radius(x, cs):  # r at nodes x of the plain leg cells
                # a node the chart's round trip puts below r_min reads
                # r_min, as the profile's range check would clip it
                if not angle:
                    return np.maximum(np.hypot(x, cs), r_min)
                # one sine per node, cos(alpha) = sin(alpha + pi/2) to 3.2e-16
                return np.maximum(
                    cs / np.sin(x + (cs > 0.0) * (0.5 * np.pi)), r_min)

        def ends(r):  # each cell's coordinate of the radii r
            if not leg:
                return np.where(sub, np.sqrt(r - r_min), r)
            x = np.sqrt((r - c) * (r + c))
            if angle:
                x = np.where(cs < 0.0, -np.arctan2(c, x), np.arctan2(x, c))
            x[sub] = np.arcsinh(np.sqrt((r[sub] - np.maximum(c[sub], r_min))
                                        / np.abs(c[sub] - r_min)))
            return x

        lo, hi = ends(a), ends(b)
        ride = sw != 0.0
        special = sub.any() or ride.any()
        k = self.dimension - 2
        power = float(k)
        # u at each ride cell's knot and other end, formed as the spline
        # evaluator forms u from r; the cell runs over t in [0, asinh(d / w)]
        u_k = np.where(sw < 0, b, a)[ride] ** power
        u_end = np.where(sw < 0, a, b)[ride] ** power
        lo[ride] = 0.0
        hi[ride] = np.arcsinh(np.abs(u_end - u_k) / np.abs(sw[ride]))
        q = np.column_stack([sub, sw, np.zeros(a.size)]
                            + ([cs] if leg else []))
        q[ride, 2] = u_k
        # For u below sqrt(ulp(r_min)) the sum r_min + u*u rounds back to
        # r_min where fvec diverges, so the offset is re-derived from the
        # rounded radius (floored one step above r_min); fvec(r) *
        # sqrt(r - r_min) stays bounded as r -> r_min.
        r_floor = np.nextafter(r_min, np.inf)

        def dx_dr(r, c):
            # whose 1/sqrt(r - c) a boundary chart's dr/du cancels
            return r / np.sqrt(r + c) * (c / (r * r) if angle else 1.0)

        def chart(x, q):
            # q rows: (1.0 on boundary cells, signed w on ride cells, u_k[, c]).
            # The radii at the nodes x, and (rows, Jacobian) of each chart
            # that scales the integrand: the boundary's, the ride's
            if not special:  # legs in their plain charts only
                return radius(x, q[:, 3:]), []
            bnd, on = q[:, 0] != 0.0, q[:, 1] != 0.0
            scaled = []
            if leg:
                r = np.empty_like(x)
                plain = ~(bnd | on)
                r[plain] = radius(x[plain], q[plain, 3:])
            else:
                r = x.copy()
            if bnd.any():
                xb, cb = x[bnd], q[bnd, -1:]
                r[bnd] = np.maximum(np.maximum(cb, r_min) + np.abs(cb - r_min)
                                    * np.sinh(xb) ** 2 if leg
                                    else r_min + xb * xb, r_floor)
                # Scaling by 2 is exact, so fvec(r) * (2 sqrt(r - r_min))
                # rounds as fvec(r) * 2.0 * sqrt(r - r_min) does.
                jac = 2.0 * np.sqrt(r[bnd] - r_min)
                if leg:
                    jac *= dx_dr(r[bnd], cb)
                scaled.append((bnd, jac))
            if on.any():
                u_k, w = q[on, 2:3], q[on, 1:2]
                d = w * np.sinh(x[on])
                r[on] = (u_k + d) ** (1.0 / k)
                # the offset from the rounded radius, as the gap reads it
                u = r[on] ** power
                jac = np.hypot(w, u - u_k) * r[on] / (k * u)
                if leg:
                    jac *= dx_dr(r[on], q[on, 3:])
                    # r - c from the offset d, whose digits r has rounded off
                    r_k = u_k ** (1.0 / k)
                    jac /= np.sqrt(r_k - q[on, 3:]
                                   + r_k * np.expm1(np.log1p(d / u_k) / k))
                scaled.append((on, jac))
            return r, scaled

        def g(x, q):
            r, scaled = chart(x, q)
            y = nodewise(r)
            for mask, jac in scaled:
                y[..., mask, :] *= jac
            return y

        def span(i, x_lo, x_hi):  # an interval of cell i's chart, in radii
            # the Jacobians, unused, may divide by 0 at a cell end
            with np.errstate(all="ignore"):
                r = chart(np.array([[x_lo, x_hi]]), q[i:i + 1])[0]
            r = np.clip(r, a[i], b[i])
            return f"r in [{float(r.min())!r}, {float(r.max())!r}]"

        # the kinds under r and under u keep apart in tolerance groups, as
        # in runs of their own
        if sub.any():
            group = np.where(sub, group + (int(group.max()) + 1), group)
        y = _adaptive_cells(g, lo, hi, _QUAD_REL, group, q, span)
        if leg:
            y[split] += y[n:]
        return y[..., :n]

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
                group[owner], c[owner], angle), minlength=lo.size)

    # -- cumulative queries ----------------------------------------------------

    def _radii(self, r) -> Tuple[np.ndarray, bool]:
        """checked_range over the model's radii [r_min, r_cap]."""
        return checked_range(r, self.r_min, self.r_cap, "radius")

    def _cumulative_at(self, r, table: np.ndarray, fvec: Callable):
        """Tabulated integral of fvec from r_min to each radius in r.

        A knot reads the table; any other radius adds the integral from the
        nearer knot (from r_min in the first interval of a singular model).
        Each radius is its own tolerance group, so its value does not depend
        on the batch.  A (k, knots) table with an fvec returning k rows
        gives k rows, each equal to its row read alone (a scalar r gives k
        floats).
        """
        arr, scalar = self._radii(r)
        knots = self.knots
        i = np.searchsorted(knots, arr)
        out = table[..., i]
        off = knots[i] != arr
        if np.any(off):
            x, i = arr[off], i[off]
            j = np.where(x - knots[i - 1] <= knots[i] - x, i - 1, i)
            # the first interval reads from r_min, which keeps the relative
            # accuracy of s and F close to the boundary sphere.  Farther
            # below _sub_edge a cell from r_min would span decades of r.
            j = np.where(self._singular & (x < knots[1]), 0, j)
            anchor = knots[j]
            inc = self._integrate_cells(fvec, np.minimum(anchor, x),
                                        np.maximum(anchor, x),
                                        np.arange(x.size))
            out[..., off] = table[..., j] + np.where(anchor <= x, inc, -inc)
        if not scalar:
            return out
        return float(out[0]) if out.ndim == 1 else tuple(out[:, 0].tolist())

    def F(self, r):
        """Graph height F(r), normalized to F(r_min) = 0."""
        return self._cumulative_at(r, self._F_knots, self._f_prime)

    def s(self, r):
        """Radial arclength from the inner boundary to the sphere at r."""
        return self._cumulative_at(r, self._s_knots, self._s_prime)

    def _F_and_s(self, r):
        """F(r) and s(r) from one quadrature pass over (F', s').

        Rows of a (2, n) array, or two floats for a scalar r; each row is
        bit-equal to F or s queried alone.
        """
        return self._cumulative_at(r, self._Fs_knots, self._slopes)

    @property
    def s_cap(self) -> float:
        return float(self._s_knots[-1])

    def r_of_s(self, s):
        """Invert the arclength: the radius whose sphere lies at arclength s.

        An arclength within 4 ulps of a tabulated one reads its knot; the
        rest run one safeguarded Newton iteration over the whole array, each
        point in its own bracket and frozen once s(r) matches its target to
        _SOLVE_REL relative, which keeps the inverse accurate at any scale.
        """
        arr, scalar = checked_range(s, 0.0, self.s_cap, "arclength")
        table = self._s_knots
        knots = self.knots
        i = np.searchsorted(table, arr)
        # the cumulative sum rounds by a few ulps, so an exact-match rule
        # would depend on how it rounded
        j = np.where((i > 0) & (arr - table[i - 1] < table[i] - arr), i - 1, i)
        out = knots[j]
        off = np.abs(table[j] - arr) > 4.0 * np.spacing(arr)
        if np.any(off):
            target, i = arr[off], i[off]
            lo, hi = knots[i - 1], knots[i]
            s_lo, s_hi = table[i - 1], table[i]
            r = lo + (hi - lo) * (target - s_lo) / (s_hi - s_lo)
            tol = _SOLVE_REL * target
            active = np.ones(r.size, dtype=bool)
            for _ in range(80):
                g = self.s(r) - target
                active &= ~(np.abs(g) <= tol)
                if not np.any(active):
                    break
                hi = np.where(active & (g > 0), r, hi)
                lo = np.where(active & ~(g > 0), r, lo)
                sp = self._s_prime(r)
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = r - g / sp
                newton = np.isfinite(sp) & (sp > 0) & (lo < step) & (step < hi)
                step = np.where(newton, step, 0.5 * (lo + hi))
                active &= step != r
                r = np.where(active, step, r)
            out[off] = r
        return float(out[0]) if scalar else out

    # -- integrals over radial ranges -----------------------------------------

    def _range_integrals(self, fvec: Callable, ranges) -> np.ndarray:
        """Integrals of fvec over each [r_a, r_b] of ranges, split at the knots.

        One pass over the cells of every range, each range its own tolerance
        group, so each value equals its range integrated alone; an empty
        range gives 0.  Returns a (rows, ranges) array: one row for a plain
        fvec, k for an fvec returning a (k, n) stack.
        """
        knots = self.knots
        edges = []
        for r_a, r_b in ranges:
            (r_a, r_b), _ = self._radii([r_a, r_b])
            edges.append(np.concatenate(
                [[r_a], knots[(knots > r_a) & (knots < r_b)], [r_b]])
                if r_b > r_a else np.zeros(1))
        sizes = [e.size - 1 for e in edges]
        a = np.concatenate([e[:-1] for e in edges])
        b = np.concatenate([e[1:] for e in edges])
        # with no cells, fvec on no radii still gives the stack's shape
        vals = self._integrate_cells(
            fvec, a, b, np.repeat(np.arange(len(edges)), sizes)) \
            if a.size else fvec(a)
        ends = np.cumsum([0] + sizes)
        return np.array([[np.sum(row[lo:hi]) for lo, hi in zip(ends, ends[1:])]
                         for row in np.atleast_2d(vals)])

    def _shell_density(self, r, s_prime):
        """omega r^(m-1) s'(r): the shell volume per unit radius."""
        return self.omega * r ** (self.dimension - 1) * s_prime

    def _excess_density(self, t, f_prime, cap):
        """F'(t) omega (cap - t^m) / m: graph_excess by Fubini, cap = r_b^m."""
        m = self.dimension
        return f_prime * self.omega * (cap - t**m) / m

    def shell_volume(self, r_a: float, r_b: float) -> float:
        """Riemannian volume of the shell between the spheres at r_a, r_b."""
        if r_b < r_a:
            raise RangeError("shell_volume needs r_a <= r_b")
        return float(self._range_integrals(
            lambda r: self._shell_density(r, self._s_prime(r)),
            [(r_a, r_b)])[0, 0])

    def graph_excess(self, r_a: float, r_b: float) -> float:
        """Integral of (F(r) - F(r_a)) over the annulus [r_a, r_b].

        Evaluated as a single pass via Fubini:
        int F'(t) omega (r_b^m - t^m)/m dt.
        """
        if r_b < r_a:
            raise RangeError("graph_excess needs r_a <= r_b")
        cap = r_b**self.dimension
        return float(self._range_integrals(
            lambda t: self._excess_density(t, self._f_prime(t), cap),
            [(r_a, r_b)])[0, 0])

    def _window_volumes(self, r_deep: float, r_a: float,
                        r_b: float) -> Tuple[float, float, float, float, float]:
        """shell_volume(r_a, r_b), graph_excess(r_a, r_b),
        shell_volume(r_deep, r_a), and the rise F(r_b) - F(r_a) and strip
        length s(r_b) - s(r_a) as the integrals of F' and s' over [r_a, r_b],
        from one pass.  Each equals its range integrated alone
        (_range_integrals) bit for bit.

        One _slopes evaluation feeds every row; the deep range is its own
        tolerance group.  The rows over [r_a, r_b] alone read 0 on the deep
        range's nodes, which lie below r_a, and accept every deep cell at
        once instead of holding it in bisection.
        """
        cap = r_b**self.dimension

        def densities(r):
            fp, sp = self._slopes(r)
            below = r < r_a
            return np.stack([
                self._shell_density(r, sp),
                np.where(below, 0.0, self._excess_density(r, fp, cap)),
                np.where(below, 0.0, fp), np.where(below, 0.0, sp)])

        (shell, deep), (excess, _), (rise, _), (strip, _) = \
            self._range_integrals(densities, [(r_a, r_b), (r_deep, r_a)])
        return (float(shell), float(excess), float(deep), float(rise),
                float(strip))

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
        vals = self.f_prime(np.concatenate([ras, inner, [r_b]]))
        at_knots = vals[ras.size:-1]
        # tail[k] = max F' over inner[k:]; the -inf entry is an empty tail
        tail = np.append(np.maximum.accumulate(at_knots[::-1])[::-1], -np.inf)
        first = np.searchsorted(inner, ras, side="right")
        out = np.maximum(np.maximum(vals[:ras.size], tail[first]), vals[-1])
        return float(out[0]) if scalar else out

    # -- derived geometry ------------------------------------------------------

    @cached_property
    def r_disk(self) -> float:
        """Largest radius below which the reconstruction is exactly flat.

        F' below 1e-12 counts as flat; returns r_min when the profile is
        curved from the start and +inf when it is flat through r_cap.
        """
        thr = 1e-12
        vals = self.f_prime(self.knots)
        above = vals >= thr
        if not np.any(above):
            return math.inf
        if above[0]:
            return self.r_min
        k = int(np.argmax(above))
        lo, hi = self.knots[k - 1], self.knots[k]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(self.f_prime(mid)) < thr:
                lo = mid
            else:
                hi = mid
        return float(0.5 * (lo + hi))

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
    D lies within (max(r_min, r0 - D), min(r0 + D, r_cap)].  Returns
    (r0, r_lo, r_hi) after checking the window's preconditions; no quadrature
    runs, so the bracket is safe to inspect on a profile that is not
    admissible.
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
