"""Embedding a tubular neighborhood into Euclidean-product ambient space.

A graph over the flat annulus with slope bound Q embeds into the product
(annulus) x R, and the failure of that embedding to be distance preserving is
controlled by the slope: intrinsic distances exceed ambient ones by at most
C = 2 diam Q, and the standard almost-isometry defect is
S = sqrt(C (diam + C)).  This module provides those constants in both the
measured form (scanning the reconstruction) and the budget form (from the
slope bound alone), the exact intrinsic distance of the flat annulus with a
blocked inner disk, and a sampled mesh check of the embedding quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .mesh import MeshGeodesicOracle

__all__ = [
    "q_slope",
    "EmbeddingConstants",
    "embedding_constant_bound",
    "budget_embedding_constants",
    "annulus_distance",
    "ambient_product_distance",
    "metric_embedding_check",
]


def q_slope(delta: float, r: float, dimension: int) -> float:
    """Slope bound sqrt(2 delta / (r^(m-2) - 2 delta)) where m_H <= delta."""
    xi = float(r) ** (dimension - 2)
    if not (delta >= 0 and math.isfinite(delta)):
        raise DomainError(f"delta must be finite and nonnegative, got {delta}")
    gap = xi - 2.0 * delta
    if gap <= 0:
        raise DomainError(
            f"slope bound undefined at r={r}: sphere inside the horizon "
            f"scale of delta={delta}")
    return math.sqrt(2.0 * delta / gap)


@dataclass(frozen=True)
class EmbeddingConstants:
    """Distortion data for the graph-over-annulus embedding of a tube."""

    C_M_bound: float
    S_M: float
    diam_W_bound: float
    diam_M_bound: float
    sup_grad: float
    delta_F: float
    mode: str
    C_M_sampled: Optional[float] = None


def embedding_constant_bound(model, r_a, r_b: float,
                             diam_W_bound: Optional[float] = None
                             ) -> EmbeddingConstants:
    """Distortion constants for the reconstruction restricted to [r_a, r_b].

    sup|grad F| is scanned on the range; the annulus diameter bound defaults
    to the measured strip length plus pi r_b but can be supplied (e.g. the
    budget value 2 D + pi r0).  S_M = sqrt(C (diam_M + C)) where diam_M is
    bounded by diam_W sqrt(1 + sup_grad^2) plus the graph height.  An array
    of left ends r_a sharing r_b gives constants whose fields are arrays.
    """
    scalar = np.ndim(r_a) == 0
    r_a = np.atleast_1d(np.asarray(r_a, dtype=float))
    sup_grad = model.sup_grad(r_a, r_b)
    ends = np.append(r_a, r_b)
    if diam_W_bound is None:
        s_ends = model.s(ends)
        diam_W_bound = (s_ends[-1] - s_ends[:-1]) + math.pi * r_b
    f_ends = model.F(ends)
    delta_f = f_ends[-1] - f_ends[:-1]
    # sup_grad is infinite only on a boundary sphere, where diam_W > 0, so
    # the infinity carries through to diam_M, C and S
    diam_M = diam_W_bound * np.sqrt(1.0 + sup_grad**2) + delta_f
    C = 2.0 * diam_W_bound * sup_grad
    fields = {"C_M_bound": C, "S_M": np.sqrt(C * (diam_M + C)),
              "diam_W_bound": np.broadcast_to(diam_W_bound, r_a.shape),
              "diam_M_bound": diam_M, "sup_grad": sup_grad, "delta_F": delta_f}
    if scalar:
        fields = {k: float(v[0]) for k, v in fields.items()}
    return EmbeddingConstants(mode="measured", **fields)


def budget_embedding_constants(dimension: int, D: float, r0: float,
                               Q: float) -> EmbeddingConstants:
    """Distortion constants from the slope budget Q alone."""
    if not (D > 0 and r0 > 0 and Q >= 0):
        raise DomainError("budget constants need D > 0, r0 > 0, Q >= 0")
    diam_W = 2.0 * D + math.pi * r0
    C = 2.0 * diam_W * Q
    S = math.sqrt(C * (diam_W + C))
    delta_f = 2.0 * D * Q
    diam_M = diam_W * math.sqrt(1.0 + Q * Q) + delta_f
    return EmbeddingConstants(
        C_M_bound=C, S_M=S, diam_W_bound=diam_W, diam_M_bound=diam_M,
        sup_grad=Q, delta_F=delta_f, mode="budget")


def annulus_distance(r_in, r1, theta1, r2, theta2):
    """Intrinsic distance in the flat annulus with inner radius r_in.

    The straight chord when it clears the inner disk, otherwise the two
    tangent segments joined by the arc they subtend.  Polar inputs
    broadcast; angles are taken modulo 2 pi.
    """
    r_in = float(r_in)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    dth = np.abs(np.asarray(theta1, dtype=float)
                 - np.asarray(theta2, dtype=float)) % (2.0 * math.pi)
    dth = np.where(dth > math.pi, 2.0 * math.pi - dth, dth)
    scalar = (np.ndim(r1) == 0 and np.ndim(r2) == 0 and np.ndim(dth) == 0)
    r1, r2, dth = np.atleast_1d(r1, r2, dth)
    r1, r2, dth = np.broadcast_arrays(r1, r2, dth)
    cos = np.cos(dth)
    chord = np.sqrt(np.maximum(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * cos, 0.0))
    out = chord.copy()
    if r_in > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            # foot of the perpendicular from the origin, as a chord fraction
            t = np.where(chord > 0, (r1 * r1 - r1 * r2 * cos) / (chord * chord),
                         0.5)
            d_perp = np.where(chord > 0, r1 * r2 * np.sin(dth) / chord, r1)
        blocked = (chord > 0) & (t > 0) & (t < 1) & (d_perp < r_in)
        if np.any(blocked):
            ra, rb, th = r1[blocked], r2[blocked], dth[blocked]
            tang = (np.sqrt(np.maximum(ra * ra - r_in * r_in, 0.0))
                    + np.sqrt(np.maximum(rb * rb - r_in * r_in, 0.0)))
            swing = th - np.arccos(np.clip(r_in / ra, -1.0, 1.0)) \
                - np.arccos(np.clip(r_in / rb, -1.0, 1.0))
            out[blocked] = tang + r_in * np.maximum(swing, 0.0)
    return float(out[0]) if scalar else out


def ambient_product_distance(d_flat, dz):
    """Distance in (annulus) x R from the flat part and the height gap."""
    return np.hypot(d_flat, dz)


def metric_embedding_check(model, window, mesh_h: float, seed: int,
                           n_pairs: int = 2048,
                           S: Optional[float] = None) -> dict:
    """Sampled comparison of tube distances against the ambient product.

    Meshes the tube, samples node pairs, and measures the excess of the mesh
    geodesic distance over the ambient product distance (blocked-chord annulus
    plus graph height), after granting the almost-isometry allowance 2 S.  A
    pair violates when its excess clears 0.01 d + 2.5 mesh_h, the margin the
    mesh itself can introduce.  Reports the worst excess and the violation
    count; a sound embedding bound should produce zero violations.
    """
    const = embedding_constant_bound(model, window.r_minus, window.r_plus)
    s_allow = const.S_M if S is None else float(S)
    if not math.isfinite(s_allow):
        raise DomainError("embedding defect is infinite on this window; "
                          "pass an explicit S")
    oracle = MeshGeodesicOracle.from_model(
        model, window.s_minus, window.s_plus, mesh_h)
    r_rows = model.r_of_s(oracle.s_nodes)
    f_rows = model.F(r_rows)

    rng = np.random.default_rng(seed)
    n_nodes = oracle.n_s * oracle.n_theta
    n_src = min(32, n_nodes)
    n_tgt = min(max(1, math.ceil(n_pairs / n_src)), n_nodes)
    src = rng.choice(n_nodes, size=n_src, replace=False)
    tgt = rng.choice(n_nodes, size=n_tgt, replace=False)

    d_mesh = oracle._node_distances(src, tgt)
    si, sj = np.divmod(src, oracle.n_theta)
    ti, tj = np.divmod(tgt, oracle.n_theta)
    d_flat = annulus_distance(
        window.r_minus,
        r_rows[si][:, None], oracle.thetas[sj][:, None],
        r_rows[ti][None, :], oracle.thetas[tj][None, :])
    dz = f_rows[si][:, None] - f_rows[ti][None, :]
    d_amb = ambient_product_distance(d_flat, dz)

    excess = d_mesh - d_amb - 2.0 * s_allow
    tol = 0.01 * d_mesh + 2.5 * mesh_h
    violations = int(np.sum(excess > tol))
    return {
        "c_m_bound": const.C_M_bound,
        "c_m_sampled": float(np.max(d_mesh - d_amb)),
        "s_m": s_allow,
        "sup_grad": const.sup_grad,
        "mesh_h": float(mesh_h),
        "seed": int(seed),
        "n_pairs": int(n_src * n_tgt),
        "violations": violations,
        "max_violation": float(max(0.0, np.max(excess))),
        "tol_min": float(np.min(tol)),
    }
