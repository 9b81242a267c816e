"""Gromov-Hausdorff upper bounds, and the deep-well obstruction to them.

A tube in the manifold and its Euclidean counterpart embed into a common
ambient space once the well below a cut radius is discarded; the GH distance
is then bounded by the two embedding defects, the ambient Hausdorff gap
between the graphs, and the intrinsic size of whatever the cut removed.  For
deep wells the removed part has arclength depth at least the well depth, so
the bound never drops below it: flat-distance certificates can shrink while
these bounds stay pinned at the depth, which is the point of the contrast.
The segment-limit radii rho, rho_prime play the same game against the space
with an interval glued on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .embedding import embedding_constant_bound
from .errors import DomainError, RangeError
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


def _gh_terms(model: ManifoldModel, window: TubularWindow, r_eps: np.ndarray):
    """S_M1, delta_F, the two well excesses and the GH total at cuts r_eps."""
    consts = embedding_constant_bound(model, r_eps, window.r_plus)
    s_cut = model.s(np.append(r_eps, window.r_minus))
    excess_1 = s_cut[:-1] - s_cut[-1]
    excess_2 = r_eps - max(window.r0 - window.D, 0.0)
    # the second space is flat: its defect S_M2 is 0
    total = consts.S_M + 0.0 + consts.delta_F + excess_1 + excess_2
    return consts.S_M, consts.delta_F, excess_1, excess_2, total


def gh_bound(model: ManifoldModel, window: TubularWindow,
             r_eps: float) -> GHBound:
    """GH upper bound from cutting the tube at radius r_eps."""
    r_eps = float(r_eps)
    if not (window.r_minus <= r_eps < window.r0):
        raise RangeError(
            f"cut radius {r_eps} outside [r_minus, r0) = "
            f"[{window.r_minus}, {window.r0})")
    s_m1, delta_f, excess_1, excess_2, total = (
        float(v[0]) for v in _gh_terms(model, window, np.array([r_eps])))
    return GHBound(r_eps=r_eps, S_M1=s_m1, S_M2=0.0,
                   hausdorff_ambient=delta_f,
                   well_excess_1=excess_1, well_excess_2=excess_2,
                   total=total, rho=max(delta_f + s_m1, math.pi * r_eps),
                   rho_prime=max(r_eps, delta_f + s_m1))


def _cut_candidates(model: ManifoldModel, window: TubularWindow,
                    n: int) -> np.ndarray:
    """r_minus and a geometric grid of n cut radii in (r_minus, r0)."""
    lo = max(window.r_minus, 1e-9 * window.r0)
    if model.r_min > 0:
        lo = max(lo, model.r_min * (1.0 + 1e-12))
    hi = window.r0 * (1.0 - 1e-9)
    grid = np.geomspace(lo, hi, n) if hi > lo else np.empty(0)
    cands = np.append(window.r_minus, grid)
    return cands[(window.r_minus <= cands) & (cands < window.r0)]


def best_gh_bound(model: ManifoldModel, window: TubularWindow,
                  n: int = 48) -> GHBound:
    """Smallest gh_bound over a geometric grid of candidate cut radii.

    Every candidate is scored in one batched pass; the winner (the first
    smallest total) is rebuilt by gh_bound.
    """
    cands = _cut_candidates(model, window, n)
    total = _gh_terms(model, window, cands)[-1]
    return gh_bound(model, window, float(cands[int(np.argmin(total))]))


class SegmentBound(NamedTuple):
    rho: float
    rho_prime: float


def segment_limit_bound(model: ManifoldModel, window: TubularWindow,
                        L0: float,
                        r_eps: Optional[float] = None) -> SegmentBound:
    """GH radii against Euclidean space with a segment of length L0 glued on.

    rho = max(F(r_plus) - F(r_eps) + S_M, pi r_eps) and
    rho_prime = max(r_eps, F(r_plus) - F(r_eps) + S_M).  The default cut is
    the geometric mean of the wall scale 2 m_ADM and r0^(m-2), taken in
    r^(m-2), which sits above any budget-small well and below the window.
    """
    if not (L0 > 0 and math.isfinite(L0)):
        raise DomainError(f"segment length must be positive, got {L0}")
    m = model.dimension
    if r_eps is None:
        xi_eps = math.sqrt(2.0 * model.adm_mass * window.r0 ** (m - 2))
        r_eps = xi_eps ** (1.0 / (m - 2))
        r_eps = min(max(r_eps, model.r_min), window.r0 * (1.0 - 1e-9))
    r_eps = float(r_eps)
    if not (model.r_min <= r_eps < window.r0):
        raise RangeError(
            f"cut radius {r_eps} outside [r_min, r0)")
    consts = embedding_constant_bound(model, r_eps, window.r_plus)
    reach = consts.delta_F + consts.S_M
    return SegmentBound(rho=max(reach, math.pi * r_eps),
                        rho_prime=max(r_eps, reach))
