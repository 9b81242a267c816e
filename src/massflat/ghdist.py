"""Gromov-Hausdorff upper bounds, and the deep-well obstruction to them.

A tube in the manifold and its Euclidean counterpart embed into a common
ambient space once the well below a cut radius is discarded; the GH distance
is then bounded by the two embedding defects, the ambient Hausdorff gap
between the graphs, and the intrinsic size of whatever the cut removed.  For
deep wells the removed part has arclength depth at least the well depth, so
the bound never drops below it: flat-distance certificates can shrink while
these bounds stay pinned at the depth, which is the point of the contrast.
The radii rho, rho_prime play the same game against the space with an
interval glued on.  One batched pass, _gh_terms, computes every field of a
bound over an array of cuts; gh_bound reads a row of it, and best_gh_bound
and segment_limit_bound read rows of one batch of candidate cuts and the
segment cut, which a sweep row reads once for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embedding import _measured_fields
from .errors import RangeError
from .geometry import ManifoldModel, TubularWindow

__all__ = ["GHBound", "gh_bound", "best_gh_bound",
           "SegmentBound", "segment_limit_bound"]


@dataclass(frozen=True)
class GHBound:
    """Additive Gromov-Hausdorff upper bound at a particular cut radius."""

    r_eps: float
    S_M1: float
    S_M2: float
    hausdorff_ambient: float
    well_excess_1: float
    well_excess_2: float
    total: float
    rho: float
    rho_prime: float


def _gh_terms(model: ManifoldModel, window: TubularWindow,
              r_eps: np.ndarray) -> dict:
    """Every GHBound field, as an array over the cuts r_eps.

    The embedding constants take the rise of F and the strip length over
    each [cut, r_plus] from the model's table (ManifoldModel._F_and_s_rises:
    no quadrature, and no difference of two cumulative values, which would
    lose the digits of a small rise where F is large); the well excess
    s(cut) - s(r_minus) is the strip from r_minus less the strip from the
    cut, read in the same batch.  Each cut's row is the same in any batch.
    """
    rise, strip = model._F_and_s_rises(np.append(r_eps, window.r_minus),
                                       window.r_plus)
    consts = _measured_fields(model, r_eps, window.r_plus, rise[:-1],
                              strip[:-1])
    s_m, delta_f = consts["S_M"], consts["delta_F"]
    excess_1 = strip[-1] - strip[:-1]
    excess_2 = r_eps - max(window.r0 - window.D, 0.0)
    # the second space is flat: its defect S_M2 is 0
    total = s_m + 0.0 + delta_f + excess_1 + excess_2
    reach = delta_f + s_m
    return {"r_eps": r_eps, "S_M1": s_m, "S_M2": np.zeros_like(r_eps),
            "hausdorff_ambient": delta_f, "well_excess_1": excess_1,
            "well_excess_2": excess_2, "total": total,
            "rho": np.maximum(reach, math.pi * r_eps),
            "rho_prime": np.maximum(r_eps, reach)}


def _row(terms: dict, k: int) -> GHBound:
    return GHBound(**{name: float(col[k]) for name, col in terms.items()})


def gh_bound(model: ManifoldModel, window: TubularWindow,
             r_eps: float) -> GHBound:
    """GH upper bound from cutting the tube at radius r_eps."""
    r_eps = float(r_eps)
    if not (window.r_minus <= r_eps < window.r0):
        raise RangeError(
            f"cut radius {r_eps} outside [r_minus, r0) = "
            f"[{window.r_minus}, {window.r0})")
    return _row(_gh_terms(model, window, np.array([r_eps])), 0)


_N_CUTS = 48


def _cut_candidates(model: ManifoldModel,
                    window: TubularWindow) -> np.ndarray:
    """r_minus and a geometric grid of _N_CUTS cut radii in (r_minus, r0)."""
    lo = max(window.r_minus, 1e-9 * window.r0)
    if model.r_min > 0:
        lo = max(lo, model.r_min * (1.0 + 1e-12))
    hi = window.r0 * (1.0 - 1e-9)
    grid = np.geomspace(lo, hi, _N_CUTS) if hi > lo else np.empty(0)
    cands = np.append(window.r_minus, grid)
    return cands[(window.r_minus <= cands) & (cands < window.r0)]


def best_gh_bound(model: ManifoldModel, window: TubularWindow) -> GHBound:
    """Smallest gh_bound over a geometric grid of candidate cut radii.

    Every candidate is scored in one batched pass (see
    _best_and_segment_bounds), and the first smallest total is that pass's
    row: a cut's row does not depend on the batch, so it equals gh_bound at
    that cut.
    """
    return _best_and_segment_bounds(model, window)[0]


class SegmentBound(NamedTuple):
    rho: float
    rho_prime: float


def segment_limit_bound(model: ManifoldModel,
                        window: TubularWindow) -> SegmentBound:
    """GH radii against Euclidean space with a segment glued on.

    GHBound's rho and rho_prime at the geometric mean of the wall scale
    2 m_ADM and r0^(m-2), taken in r^(m-2): a cut above any budget-small
    well and below the window.  It can lie below r_minus, where the rest of
    a GHBound bounds nothing, so only the two radii are returned.
    """
    return _best_and_segment_bounds(model, window)[1]


def _best_and_segment_bounds(model: ManifoldModel, window: TubularWindow):
    """best_gh_bound and segment_limit_bound from one _gh_terms batch: the
    candidate cuts, then the segment cut, kept in [r_min, r0), which the
    argmin leaves out."""
    m = model.dimension
    xi_eps = math.sqrt(2.0 * model.adm_mass * window.r0 ** (m - 2))
    cut = max(min(xi_eps ** (1.0 / (m - 2)), window.r0 * (1.0 - 1e-9)),
              model.r_min)
    terms = _gh_terms(model, window,
                      np.append(_cut_candidates(model, window), cut))
    return (_row(terms, int(np.argmin(terms["total"][:-1]))),
            SegmentBound(float(terms["rho"][-1]),
                         float(terms["rho_prime"][-1])))
