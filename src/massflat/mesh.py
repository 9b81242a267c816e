"""Geodesic distances on a rotationally symmetric tube, by graph search.

A tubular neighborhood of a symmetry sphere is isometric to a warped product
[s_a, s_b] x S^(m-1) with metric ds^2 + f(s)^2 g_sphere, and minimizing paths
between two points stay inside a totally geodesic 2-surface of revolution.
The oracle therefore meshes the (s, theta) strip with theta periodic, connects
nodes with every coprime lattice direction of radius at most 4 (24 undirected
directions, about 0.8 percent worst-case direction quantization), and runs
Dijkstra on the weighted graph.

Edge weights subdivide each lattice step into max(|a|, |b|) pieces and charge
each piece sqrt(ds^2 + f_sup^2 dtheta^2) with f_sup the larger endpoint value.
For monotone warps f this overestimates the true segment length, so mesh
distances never undershoot the geodesic, and halving the mesh (the node
counts are powers of two, so refined grids nest) can only shrink them.
"""

from __future__ import annotations

import math
from math import gcd
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DomainError, RangeError, checked_range, positive

__all__ = ["MeshGeodesicOracle", "mesh_distance"]

_TWO_PI = 2.0 * math.pi
_MAX_NODES = 6_000_000


def _stencil():
    offs = [(0, 1)]
    for a in range(1, 5):
        for b in range(-4, 5):
            if max(a, abs(b)) <= 4 and gcd(a, abs(b)) == 1:
                offs.append((a, b))
    return offs


_OFFSETS = _stencil()


def _pow2_at_least(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


def _segments(span: float, h: float) -> int:
    """s-steps of a mesh of spacing h over span.  It has 8 (n + 1) nodes or
    more, so a mesh too large to build is refused before f is sampled."""
    n_seg = _pow2_at_least(min(span / h, 2.0**62))
    if 8 * (n_seg + 1) > _MAX_NODES:
        raise DomainError(f"a mesh of spacing h={h!r} over length "
                          f"{float(span)!r} needs over {_MAX_NODES} nodes; "
                          "coarsen h")
    return n_seg


class MeshGeodesicOracle:
    """Dijkstra distances on the (s, theta) mesh of a warped product tube."""

    def __init__(self, f: Callable, s_a: float, s_b: float, h: float):
        s_a, s_b, h = float(s_a), float(s_b), positive(h, "mesh spacing h")
        if not s_b > s_a:
            raise DomainError(f"need s_a < s_b, got [{s_a}, {s_b}]")
        self.s_a, self.s_b, self.h = s_a, s_b, h
        span = s_b - s_a
        n_seg = _segments(span, h)
        self.n_s = n_seg + 1
        self.h_s = span / n_seg
        # f on the 12-fold refined grid covers every sub-segment endpoint
        # of every stencil direction (each direction cuts a step into
        # max(|a|,|b|) <= 4 pieces, and 12 is divisible by 2, 3 and 4)
        fine = s_a + (self.h_s / 12.0) * np.arange(12 * n_seg + 1)
        f_fine = np.asarray(f(fine), dtype=float)
        if f_fine.shape != fine.shape or not np.all(np.isfinite(f_fine)) \
                or np.any(f_fine < 0):
            raise DomainError("warp f must be finite and nonnegative on the tube")
        self._f_fine = f_fine
        self.f_max = float(np.max(f_fine))
        self.n_theta = _pow2_at_least(max(8.0, _TWO_PI * self.f_max / h))
        self.h_theta = _TWO_PI / self.n_theta
        if self.n_s * self.n_theta > _MAX_NODES:
            raise DomainError(
                f"mesh of {self.n_s} x {self.n_theta} nodes is too large; "
                "coarsen h or shrink the window")
        self.s_nodes = s_a + self.h_s * np.arange(self.n_s)
        self.thetas = self.h_theta * np.arange(self.n_theta)
        self._graph = self._build_graph()

    @classmethod
    def from_model(cls, model, s_a: float, s_b: float,
                   h: float) -> "MeshGeodesicOracle":
        """Mesh the tube s in [s_a, s_b] of a reconstructed manifold."""
        h = positive(h, "mesh spacing h")
        (s_a, s_b), _ = checked_range([s_a, s_b], 0.0, model.s_cap,
                                      "tube arclength")
        _segments(s_b - s_a, h)  # before r_of_s runs on a fine s-grid
        s_tab = model._s_knots
        r_tab = model.knots
        extra = np.arange(s_a, s_b, max(h / 4.0, (s_b - s_a) * 1e-6))
        keep = (s_tab >= s_a - h) & (s_tab <= s_b + h)
        s_all = np.unique(np.concatenate([s_tab[keep], extra, [s_a, s_b]]))
        r_all = model.r_of_s(s_all)

        def f(s):
            return np.interp(s, s_all, r_all)

        return cls(f, s_a, s_b, h)

    def _build_graph(self):
        # scipy.sparse is imported on first use: it is most of the package's
        # start-up time, and only the mesh needs it
        from scipy.sparse import csr_matrix

        n_s, n_t = self.n_s, self.n_theta
        f12 = self._f_fine
        rows, cols, data = [], [], []
        j = np.arange(n_t, dtype=np.int64)
        for a, b in _OFFSETS:
            if a > n_s - 1:
                continue
            K = max(a, abs(b))
            i = np.arange(n_s - a, dtype=np.int64)
            step = (12 * a) // K
            w = np.zeros(i.size)
            ds = a * self.h_s / K
            dth = abs(b) * self.h_theta / K
            base = 12 * i
            for k in range(K):
                f_lo = f12[base + step * k]
                f_hi = f12[base + step * (k + 1)]
                f_sup = np.maximum(f_lo, f_hi)
                w += np.sqrt(ds * ds + (f_sup * dth) ** 2)
            row = (i[:, None] * n_t + j[None, :]).ravel()
            col = ((i[:, None] + a) * n_t + (j[None, :] + b) % n_t).ravel()
            rows.append(row)
            cols.append(col)
            data.append(np.repeat(w, n_t))
        n = n_s * n_t
        return csr_matrix(
            (np.concatenate(data),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))

    # -- queries ---------------------------------------------------------------

    def _snap(self, points) -> np.ndarray:
        """Indices of the mesh nodes nearest to the points (s, theta)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        s, theta = pts[:, 0], pts[:, 1]
        slack = 2.0 * self.h_s
        out = (s < self.s_a - slack) | (s > self.s_b + slack)
        if np.any(out):
            raise RangeError(f"s={float(s[out][0])} outside the tube "
                             f"[{self.s_a}, {self.s_b}]")
        i = np.clip(np.round((s - self.s_a) / self.h_s), 0, self.n_s - 1)
        jj = np.round((theta % _TWO_PI) / self.h_theta) % self.n_theta
        return i.astype(np.int64) * self.n_theta + jj.astype(np.int64)

    def snap(self, point: Tuple[float, float]) -> int:
        """Index of the mesh node nearest to the point (s, theta)."""
        return int(self._snap(point)[0])

    def node_point(self, index: int) -> Tuple[float, float]:
        i, jj = divmod(int(index), self.n_theta)
        return float(self.s_nodes[i]), float(self.thetas[jj])

    def _node_distances(self, src, tgt) -> np.ndarray:
        """Mesh distances between node indices, all sources in one Dijkstra."""
        from scipy.sparse.csgraph import dijkstra

        nodes, back = np.unique(np.asarray(src, dtype=np.int64),
                                return_inverse=True)
        rows = dijkstra(self._graph, directed=False, indices=nodes)
        return np.atleast_2d(rows)[:, tgt][back]

    def distance(self, p: Tuple[float, float], q: Tuple[float, float]) -> float:
        """Mesh geodesic distance between the points (s, theta)."""
        return float(self.distances([p], [q])[0, 0])

    def distances(self, sources: Sequence[Tuple[float, float]],
                  targets: Sequence[Tuple[float, float]]) -> np.ndarray:
        """Matrix of mesh distances, sources by targets."""
        return self._node_distances(self._snap(sources), self._snap(targets))


def mesh_distance(f: Callable, s_range: Tuple[float, float],
                  p: Tuple[float, float], q: Tuple[float, float],
                  h: float) -> float:
    """One-shot mesh geodesic distance on the tube s_range with warp f."""
    oracle = MeshGeodesicOracle(f, s_range[0], s_range[1], h)
    return oracle.distance(p, q)
