"""Reconstruction of the manifold determined by a Hawking-mass profile.

An admissible profile determines a rotationally symmetric manifold presented
as a graph over Euclidean space: the graph function F satisfies

    F'(r) = sqrt(2 m_H(r) / (r^(m-2) - 2 m_H(r))),    F(r_min) = 0,

and the radial arclength is s'(r) = sqrt(r^(m-2) / (r^(m-2) - 2 m_H(r))).
The model tabulates F and s over a knot set aligned with the profile pieces,
answers queries by integrating from the nearest knot, and inverts s by a
safeguarded Newton iteration.  Queries take arrays: a batch of radii costs
one adaptive integration, and each value is the same as that of the query
made alone.  When the profile starts on a minimal boundary sphere the
integrands carry a (r - r_min)^(-1/2) singularity which is removed exactly
by the substitution u = sqrt(r - r_min).

Every integral goes through ManifoldModel._integrate_cells, which runs
vectorized 16-point Gauss-Legendre panels with an embedded 8-point error
estimate and bisects the panels that miss the tolerance.  A panel whose
value is not finite, one still unconverged after 50 bisections, or a batch
that bisection would grow by more than 200,000 cells raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (DomainError, InvalidProfileError, QuadratureError,
                     RangeError, WindowOverflowError, checked_range, positive)
from .profiles import (CubicSplinePiece, HawkingProfile, PowerLawPiece,
                       sphere_radius, unit_sphere_area, validate)

__all__ = [
    "ManifoldModel",
    "TubularWindow",
    "tubular_window",
    "window_bracket",
    "euclidean_annulus_volume",
    "model_table",
    "write_model_csv",
    "CSV_COLUMNS",
]

_TINY = 1e-300
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_MAX_DEPTH = 50
# cells bisection may add to a batch before it gives up
_MAX_EXTRA_CELLS = 200000
# relative targets of the quadrature panels and of the arclength inversion
_QUAD_REL = 1e-12
_SOLVE_REL = 1e-10


def _panel_integrals(f: Callable, a: np.ndarray, b: np.ndarray, param=None):
    """GL16 integrals over the cells [a_i, b_i] plus GL16-GL8 error gauges.

    With a per-cell ``param``, f is called as f(x, p), each node getting its
    cell's row of param.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x16 = mid[:, None] + half[:, None] * _GL16_X[None, :]
    x8 = mid[:, None] + half[:, None] * _GL8_X[None, :]
    if param is None:
        y16 = f(x16.reshape(-1)).reshape(x16.shape)
        y8 = f(x8.reshape(-1)).reshape(x8.shape)
    else:
        y16 = f(x16.reshape(-1),
                np.repeat(param, 16, axis=0)).reshape(x16.shape)
        y8 = f(x8.reshape(-1), np.repeat(param, 8, axis=0)).reshape(x8.shape)
    # a non-finite integrand is reported by the caller as a QuadratureError.
    # Row-wise sums, not a matrix product: BLAS rounds a row differently
    # depending on how many rows share the call.
    with np.errstate(invalid="ignore", over="ignore"):
        i16 = (y16 * _GL16_W).sum(axis=1) * half
        i8 = (y8 * _GL8_W).sum(axis=1) * half
        return i16, np.abs(i16 - i8)


def _adaptive_cells(f: Callable, a_arr, b_arr, rel: float,
                    group=None, param=None) -> np.ndarray:
    """Adaptive panel integration of f over each cell, returned per cell.

    A panel is accepted when its GL16-GL8 gap is at most rel times its value
    plus 1e-4 times the scale of its cell's group: the largest first-pass
    value among the cells sharing its ``group`` label (one group by default).
    A cell's result therefore depends only on the cells of its own group.
    ``param`` (one entry or row per cell) is passed to f as f(x, p), and
    the halves of a bisected cell inherit it.

    f must be smooth on each cell.  A jump between a cell end and the
    outermost GL16 and GL8 nodes is invisible to both rules, so the gap
    reads 0 and the cell is accepted with the wrong value; the model puts
    every piece boundary and spline knot at a cell end for this reason.
    """
    a = a0 = np.asarray(a_arr, dtype=float)
    b = b0 = np.asarray(b_arr, dtype=float)
    out = np.zeros(a.size)
    if a.size == 0:
        return out
    labels = np.zeros(a.size, dtype=np.intp) if group is None else group
    idx = np.arange(a.size)
    p = None if param is None else np.asarray(param, dtype=float)
    scale = None
    # every pass halves all pending cells, so they share one depth
    for depth in range(_MAX_DEPTH + 1):
        i16, err = _panel_integrals(f, a, b, p)
        # the GL nodes are interior, so halving a panel cannot make a
        # non-finite integrand finite: fail on the first one
        bad = ~(np.isfinite(i16) & np.isfinite(err))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise QuadratureError(
                f"non-finite integrand on [{float(a[k])!r}, {float(b[k])!r}] "
                f"(panel value {float(i16[k])!r}, error estimate "
                f"{float(err[k])!r})")
        if scale is None:
            top = np.zeros(int(labels.max()) + 1)
            np.maximum.at(top, labels, np.abs(i16))
            scale = np.maximum(top, _TINY)[labels]
        ok = err <= rel * (np.abs(i16) + 1e-4 * scale[idx])
        # cells narrower than a few ulps cannot be split further
        ok |= (b - a) <= 4e-16 * np.maximum(np.abs(a), np.abs(b))
        np.add.at(out, idx[ok], i16[ok])
        if np.all(ok):
            return out
        pending = ~ok
        n_next = 2 * int(np.count_nonzero(pending))
        if depth == _MAX_DEPTH or n_next > a0.size + _MAX_EXTRA_CELLS:
            k = int(np.argmax(pending))
            raise QuadratureError(
                f"adaptive quadrature did not converge on "
                f"[{float(a0[idx[k]])!r}, {float(b0[idx[k]])!r}] within "
                f"{depth} bisections (piece [{float(a[k])!r}, "
                f"{float(b[k])!r}], error estimate {float(err[k])!r}; "
                f"{n_next} cells would be pending)")
        a2, b2 = a[pending], b[pending]
        mid = 0.5 * (a2 + b2)
        idx2 = idx[pending]
        a = np.concatenate([a2, mid])
        b = np.concatenate([mid, b2])
        idx = np.concatenate([idx2, idx2])
        if p is not None:
            p = np.concatenate([p[pending], p[pending]])


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
        if check:
            report = validate(profile)
            if not report.ok:
                raise InvalidProfileError(
                    "profile failed validation:\n" + str(report))
        self.profile = profile
        self.r_cap = float(r_cap)
        self.dimension = profile.dimension
        self.r_min = profile.r_min
        self.adm_mass = profile.adm_mass
        self.omega = unit_sphere_area(profile.dimension)
        gap0 = float(profile.wall_gap(profile.r_min)) if profile.r_min > 0 else 0.0
        self._singular = (profile.r_min > 0
                          and gap0 <= 1e-9 * profile.r_min ** (self.dimension - 2))
        self._build_tables()
        self._r_disk: Optional[float] = None

    # -- exact pointwise data ------------------------------------------------

    def _origin_slope_sq(self) -> float:
        """Limit of F'(r)^2 as r -> 0 for a boundaryless profile."""
        piece = self.profile.pieces[0]
        k = self.dimension - 2
        if isinstance(piece, PowerLawPiece) and piece.exponent == k:
            c = piece.coefficient
            return 2.0 * c / (1.0 - 2.0 * c)
        return 0.0

    def f_prime(self, r):
        """Exact graph slope F'(r); +inf on a minimal boundary sphere."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        scalar = np.ndim(r) == 0
        mh = self.profile.mass(arr)
        gap = self.profile.wall_gap(arr)
        out = np.empty_like(arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            good = gap > 0
            out[good] = np.sqrt(2.0 * mh[good] / gap[good])
            out[~good] = np.inf
        # near the origin r^(m-2) underflows, and m_H and the gap with it
        at_min = (arr ** (self.dimension - 2) == 0.0 if self.r_min == 0.0
                  else arr <= self.r_min)
        if np.any(at_min):
            if self.r_min == 0.0:
                out[at_min] = math.sqrt(self._origin_slope_sq())
            elif self._singular:
                out[at_min] = np.inf
        return float(out[0]) if scalar else out

    def s_prime(self, r):
        """Exact arclength density sqrt(1 + F'(r)^2)."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        scalar = np.ndim(r) == 0
        gap = self.profile.wall_gap(arr)
        xi = arr ** (self.dimension - 2)
        out = np.empty_like(arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            good = (gap > 0) & (xi > 0)
            out[good] = np.sqrt(xi[good] / gap[good])
            out[~good] = np.inf
        at_zero = xi == 0.0
        if np.any(at_zero) and self.r_min == 0.0:
            out[at_zero] = math.sqrt(1.0 + self._origin_slope_sq())
        return float(out[0]) if scalar else out

    # -- tabulation ----------------------------------------------------------

    def _build_tables(self):
        profile = self.profile
        pts = [np.array([self.r_min, self.r_cap])]
        # piece ends and spline knots: where s' may be unsmooth
        breaks = []
        for k, piece in enumerate(profile.pieces):
            a = max(piece.r_lo, self.r_min)
            b = min(piece.r_hi, self.r_cap)
            if not b > a:
                continue
            breaks += [a, b]
            pts.append(np.linspace(a, b, 49))
            if a > 0 and b / a > 6.0:
                pts.append(np.geomspace(a, b, 33))
            elif a == 0.0:
                pts.append(b * np.linspace(0.0, 1.0, 33) ** 2)
            if k == 0 and self._singular:
                # sqrt grading resolves the boundary singularity profile
                pts.append(a + (b - a) * np.linspace(0.0, 1.0, 49) ** 2)
            if isinstance(piece, CubicSplinePiece):
                breaks += [x for x in piece.knots if a < x < b]
        knots = np.unique(np.concatenate(pts + [breaks]))
        knots = knots[(knots >= self.r_min) & (knots <= self.r_cap)]
        self.knots = knots
        # below this edge a singular model integrates under u = sqrt(r - r_min)
        self._sub_edge = knots[1] if self._singular else -math.inf
        # every integral's cells end at these radii
        cuts = np.unique(np.append(breaks, self._sub_edge))
        self._cuts = cuts[(cuts > self.r_min) & (cuts < self.r_cap)]
        # one tolerance group per table, scaled by its largest increment
        self._F_knots, self._s_knots = (
            np.concatenate([[0.0], np.cumsum(
                self._integrate_cells(f, knots[:-1], knots[1:]))])
            for f in (self.f_prime, self.s_prime))

    # -- the integration primitive ---------------------------------------------

    def _integrate_cells(self, fvec: Callable, a, b, group=None) -> np.ndarray:
        """Integrals of fvec over cells [a_i, b_i], each inside one knot interval.

        Cells below _sub_edge run under u = sqrt(r - r_min).  A query with a
        ``group`` label of its own (see _adaptive_cells) gets the same value
        whatever else is in its batch.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        group = np.zeros(a.size, dtype=np.intp) if group is None else group
        sub = b <= self._sub_edge
        if not np.any(sub):
            return _adaptive_cells(fvec, a, b, _QUAD_REL, group)
        r_min = self.r_min
        # For u below sqrt(ulp(r_min)) the sum r_min + u*u rounds back to
        # r_min where fvec diverges, so the offset is re-derived from the
        # rounded radius (floored one step above r_min); fvec(r) *
        # sqrt(r - r_min) stays bounded as r -> r_min.
        r_floor = np.nextafter(r_min, np.inf)

        def g(u):
            r = np.maximum(r_min + u * u, r_floor)
            return fvec(r) * 2.0 * np.sqrt(r - r_min)

        out = np.empty(a.size)
        out[sub] = _adaptive_cells(g, np.sqrt(a[sub] - r_min),
                                   np.sqrt(b[sub] - r_min), _QUAD_REL,
                                   group[sub])
        if not np.all(sub):
            out[~sub] = _adaptive_cells(fvec, a[~sub], b[~sub], _QUAD_REL,
                                        group[~sub])
        return out

    # -- cumulative queries ----------------------------------------------------

    def _radii(self, r) -> Tuple[np.ndarray, bool]:
        """checked_range over the model's radii [r_min, r_cap]."""
        return checked_range(r, self.r_min, self.r_cap, "radius")

    def _cumulative_at(self, r, table: np.ndarray, fvec: Callable):
        """Tabulated integral of fvec from r_min to each radius in r.

        A knot reads the table; any other radius adds the integral from the
        nearer knot (from r_min in the first interval of a singular model).
        """
        arr, scalar = self._radii(r)
        knots = self.knots
        i = np.searchsorted(knots, arr)
        out = table[i]
        off = knots[i] != arr
        if np.any(off):
            x, i = arr[off], i[off]
            j = np.where(x - knots[i - 1] <= knots[i] - x, i - 1, i)
            j = np.where(x < self._sub_edge, 0, j)
            anchor = knots[j]
            inc = self._integrate_cells(fvec, np.minimum(anchor, x),
                                        np.maximum(anchor, x),
                                        np.arange(x.size))
            out[off] = table[j] + np.where(anchor <= x, inc, -inc)
        return float(out[0]) if scalar else out

    def F(self, r):
        """Graph height F(r), normalized to F(r_min) = 0."""
        return self._cumulative_at(r, self._F_knots, self.f_prime)

    def s(self, r):
        """Radial arclength from the inner boundary to the sphere at r."""
        return self._cumulative_at(r, self._s_knots, self.s_prime)

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
                sp = self.s_prime(r)
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = r - g / sp
                newton = np.isfinite(sp) & (sp > 0) & (lo < step) & (step < hi)
                step = np.where(newton, step, 0.5 * (lo + hi))
                active &= step != r
                r = np.where(active, step, r)
            out[off] = r
        return float(out[0]) if scalar else out

    # -- integrals over radial ranges -----------------------------------------

    def _range_integral(self, fvec: Callable, r_a: float, r_b: float) -> float:
        """Integral of fvec over [r_a, r_b], split at the knots."""
        (r_a, r_b), _ = self._radii([r_a, r_b])
        if r_b <= r_a:
            return 0.0
        knots = self.knots
        edges = np.concatenate([[r_a], knots[(knots > r_a) & (knots < r_b)],
                                [r_b]])
        return float(np.sum(self._integrate_cells(fvec, edges[:-1], edges[1:])))

    def shell_volume(self, r_a: float, r_b: float) -> float:
        """Riemannian volume of the shell between the spheres at r_a, r_b."""
        if r_b < r_a:
            raise RangeError("shell_volume needs r_a <= r_b")
        m = self.dimension
        omega = self.omega

        def integrand(r):
            return omega * r ** (m - 1) * self.s_prime(r)

        return self._range_integral(integrand, r_a, r_b)

    def graph_excess(self, r_a: float, r_b: float) -> float:
        """Integral of (F(r) - F(r_a)) over the annulus [r_a, r_b].

        Evaluated as a single pass via Fubini:
        int F'(t) omega (r_b^m - t^m)/m dt.
        """
        if r_b < r_a:
            raise RangeError("graph_excess needs r_a <= r_b")
        m = self.dimension
        omega = self.omega
        cap = r_b**m

        def integrand(t):
            return self.f_prime(t) * omega * (cap - t**m) / m

        return self._range_integral(integrand, r_a, r_b)

    def sup_grad(self, r_a, r_b: float):
        """Maximum of F' over [r_a, r_b], scanned at knots and endpoints.

        r_a may be an array of left ends sharing r_b; a running maximum over
        the knots serves them all from one F' evaluation.
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

    @property
    def r_disk(self) -> float:
        """Largest radius below which the reconstruction is exactly flat.

        F' below 1e-12 counts as flat; returns r_min when the profile is
        curved from the start and +inf when it is flat through r_cap.
        """
        if self._r_disk is None:
            thr = 1e-12
            vals = self.f_prime(self.knots)
            above = vals >= thr
            if not np.any(above):
                self._r_disk = math.inf
            elif above[0]:
                self._r_disk = self.r_min
            else:
                k = int(np.argmax(above))
                lo, hi = self.knots[k - 1], self.knots[k]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if float(self.f_prime(mid)) < thr:
                        lo = mid
                    else:
                        hi = mid
                self._r_disk = float(0.5 * (lo + hi))
        return self._r_disk

    def _graph_invariants(self, r) -> Tuple[np.ndarray, ...]:
        """R, A, H, m_H, m_H', F' and F'' at radii r in (r_min, r_cap]."""
        x = self._radii(r)[0]
        if np.any(x <= self.r_min):  # singular there: F' = inf, or r = 0
            raise RangeError(f"quantities requires r > r_min = {self.r_min!r}"
                             f", got {float(np.min(x))!r}")
        m = self.dimension
        mh = self.profile.mass(x)
        mp = self.profile.mass_prime(x)
        gap = self.profile.wall_gap(x)
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
        return curv, area, mean, mh, mp, zp, zpp

    def quantities(self, r) -> dict:
        """Pointwise invariants of the reconstruction at radius r.

        Returns scalar curvature R, sphere area A, sphere mean curvature H,
        the Hawking mass and its radial derivative, all from the graph
        parametrization (one-sided at piece joints).  Where the graph slope
        is nonzero the ``radial`` entry repeats the five values computed in
        the arclength parametrization as an internal cross-check.
        """
        x = float(r)
        m = self.dimension
        curv, area, mean, mh, mp, zp, zpp = (
            float(v[0]) for v in self._graph_invariants(x))
        out = {"R": curv, "A": area, "H": mean, "m_H": mh, "m_H_prime": mp,
               "radial": None}
        if zp > 1e-12:
            rp = 1.0 / zp
            rpp = -zpp / zp**3
            one_r = 1.0 + rp * rp
            curv_z = (m - 1) * ((m - 2) * one_r - 2.0 * x * rpp) / (x * x * one_r**2)
            out["radial"] = {
                "R": curv_z,
                "A": area,
                "H": (m - 1) * rp / (x * math.sqrt(one_r)),
                "m_H": x ** (m - 2) / (2.0 * one_r),
                "m_H_prime": x ** (m - 1) * rp * curv_z / (2.0 * (m - 1)),
            }
        return out


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


CSV_COLUMNS = ("r", "F", "F_prime", "s", "m_H", "R", "A", "H")


def model_table(model: ManifoldModel, rs=None) -> dict:
    """Column arrays of the model's pointwise data at the given radii."""
    if rs is None:
        rs = model.knots[model.knots > model.r_min]
    rs = np.asarray(rs, dtype=float)
    curv, area, mean, mh = model._graph_invariants(rs)[:4]
    return {"r": rs, "F": np.atleast_1d(model.F(rs)),
            "F_prime": np.atleast_1d(model.f_prime(rs)),
            "s": np.atleast_1d(model.s(rs)),
            "m_H": mh, "R": curv, "A": area, "H": mean}

def write_model_csv(model: ManifoldModel, path, rs=None) -> None:
    """Write the model table as CSV with 17 significant digits."""
    cols = model_table(model, rs)
    n = cols["r"].size
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(n):
            fh.write(",".join("%.17g" % cols[name][i]
                              for name in CSV_COLUMNS) + "\n")

