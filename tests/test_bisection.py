"""_adaptive_cells against the plain breadth-first bisection.

tests/util.plain_adaptive_cells evaluates every pending cell once per
bisection level, one integrand call per level.  _adaptive_cells also
evaluates the chains of cascades and replays their levels, so it groups
the levels into fewer calls; every value, error text and warning must stay
the same, bit for bit, and the speculation must stay small.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from massflat import geometry
from massflat.errors import QuadratureError
from massflat.geometry import _adaptive_cells
from test_geometry import _BATCH_MODELS
from util import plain_adaptive_cells

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _run(integrate, f, *args):
    """(outcome, integrand calls, nodes) of one integration.

    The outcome is the result's shape and bytes, or the class and text of
    the QuadratureError or warning it raised: warnings are errors here.
    """
    work = [0, 0]

    def counted(x, *p):
        work[0] += 1
        work[1] += x.size
        return f(x, *p)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = integrate(counted, *args)
        except (QuadratureError, RuntimeWarning) as exc:
            return (type(exc).__name__, str(exc)), work[0], work[1]
    return (out.shape, out.tobytes()), work[0], work[1]


@dataclass(frozen=True)
class _Row:
    """One integrand row, on its own error state so that only the
    quadrature's own arithmetic can warn."""

    kind: str
    c: float
    d: float = 0.0
    w: float = 1.0
    soft: float = 0.0

    def __call__(self, x):
        c, d, w = self.c, self.d, self.w
        with np.errstate(all="ignore"):
            if self.kind == "ends":  # 1/sqrt peaks at the cell ends c and
                # d, cut off at soft (the cascade next to one ends near it)
                return (1.0 / np.sqrt(np.abs(x - c) + self.soft)
                        + w / np.sqrt(np.abs(x - d) + self.soft))
            if self.kind == "nan-end":  # non-finite once nodes come near c
                return np.where(np.abs(x - c) < 1e-9 * w, np.nan,
                                1.0 / np.sqrt(np.abs(x - c)))
            if self.kind == "interior":
                return 1.0 / (1e-4 * w + (x - c) ** 2)
            if self.kind == "jump":
                return np.where(x < c, 1.0, 1.0 + w)
            return np.sin(3.0 * x) + w


@dataclass(frozen=True)
class _Integrand:
    """Its rows stacked (one row alone is not); with param rows p, each
    value becomes value * p[0] + p[1] sin(x)."""

    rows: tuple

    def __call__(self, x, p=None):
        y = self.rows[0](x) if len(self.rows) == 1 else np.stack(
            [row(x) for row in self.rows])
        return y if p is None else y * p[:, 0] + p[:, 1] * np.sin(x)


_KINDS = ("ends", "nan-end", "interior", "jump", "smooth")


@st.composite
def _integrations(draw):
    """(f, a, b, rel, group, param) over a few adjacent cells of [0, 4]."""
    n = draw(st.integers(1, 6))
    edges = sorted(draw(st.lists(st.floats(0.0, 4.0), min_size=n + 1,
                                 max_size=n + 1)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_KINDS))
        if kind in ("ends", "nan-end"):
            c, d = draw(st.sampled_from(edges)), draw(st.sampled_from(edges))
        elif kind == "jump":  # anywhere, or just off a cell end, where
            # only the deeper levels' panels see it
            c = d = draw(st.floats(edges[0], edges[-1]) | st.builds(
                lambda e, u: e + 10.0 ** -u, st.sampled_from(edges),
                st.floats(2.0, 12.0)))
        else:
            c = d = draw(st.floats(edges[0], edges[-1]))
        rows.append(_Row(kind, c, d, draw(st.floats(0.5, 2.0)),
                         draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5]))))
    rel = draw(st.sampled_from([1e-8, 1e-10, 1e-12, 1e-13]))
    group = None
    if draw(st.booleans()):
        group = np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                       max_size=n)), dtype=np.intp)
    param = None
    if draw(st.booleans()):
        param = np.array(draw(st.lists(
            st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0)),
            min_size=n, max_size=n)))
    return (_Integrand(tuple(rows)), np.array(edges[:-1]),
            np.array(edges[1:]), rel, group, param)


@settings(max_examples=300)
@given(_integrations())
# a peak at each end of one cell, whose chains add to the same sum
@example((_Integrand((_Row("interior", 1.0), _Row("ends", 0.5, 0.5, soft=1e-9),
                      _Row("ends", 0.875, 2.0))),
          np.array([0.5, 0.875]), np.array([0.875, 2.0]), 1e-8, None, None))
# two rows accepting a chain's cells at different levels: a row stays dead
# below a cell it accepted, though the cell's halves miss the tolerance
@example((_Integrand((_Row("jump", 0.01), _Row("interior", 0.0))),
          np.array([0.0]), np.array([2.0]), 1e-8, None, None))
def test_chains_change_no_bit_and_no_error(case):
    # end peaks (both ends of one cell too), interior peaks and jumps,
    # stacked rows accepting at different depths, tolerance groups, param
    # rows, a non-finite value met at depth, and the depth limit
    plain, _, _ = _run(plain_adaptive_cells, *case)
    chained, _, _ = _run(_adaptive_cells, *case)
    assert chained == plain


def test_chains_keep_the_bisection_cap():
    # an integrand that never converges doubles the pending cells until
    # the cap stops both bisections at the same level with the same text
    edges = np.linspace(0.0, 1.0, 1001)
    case = (lambda x: np.sin(1e7 * x), edges[:-1], edges[1:], 1e-12)
    plain, _, _ = _run(plain_adaptive_cells, *case)
    chained, _, _ = _run(_adaptive_cells, *case)
    assert chained == plain
    assert "cells would be pending" in plain[1]


def _peak(x):
    return 1.0 / (1e-4 + (x - 0.3) ** 2)


def _step(x):
    return np.where(x < 0.4, 0.0, 1.0)


_PEAK_CELLS = np.linspace(0.0, 2.0, 3 * (geometry._BLOCK // 24) + 6)


@pytest.mark.parametrize("case", [
    # the interior peak batch of test_block_splitting_does_not_change_bits
    (_peak, _PEAK_CELLS[:-1], _PEAK_CELLS[1:], 1e-12,
     np.arange(_PEAK_CELLS.size - 1)),
    # a jump whose piece alternates sides two halvings at a time
    (_step, [0.0], [1.0], 1e-13),
], ids=["interior-peak", "step"])
def test_speculation_is_bounded(case):
    plain, plain_calls, plain_nodes = _run(plain_adaptive_cells, *case)
    chained, calls, nodes = _run(_adaptive_cells, *case)
    assert chained == plain
    assert calls <= plain_calls
    assert nodes <= 2 * plain_nodes


@pytest.mark.parametrize("name", sorted(_BATCH_MODELS))
def test_model_tables_take_no_more_calls(name, monkeypatch):
    # both tables in one pass, over the model's own knots
    model = _BATCH_MODELS[name]()
    a, b = model.knots[:-1], model.knots[1:]
    runs = []
    for integrate in (plain_adaptive_cells, _adaptive_cells):
        monkeypatch.setattr(geometry, "_adaptive_cells", integrate)
        runs.append(_run(lambda f, *args: model._integrate_cells(f, *args),
                         model._slopes, a, b))
    (plain, plain_calls, _), (chained, calls, _) = runs
    assert chained == plain
    assert calls <= plain_calls
