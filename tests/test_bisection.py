"""_adaptive_cells keeps stacked rows and tolerance groups apart.

Each row of a stacked integrand and each tolerance group of a batch must
give what it gives integrated alone, bit for bit, and fail alone with the
error the whole run fails with; hypothesis draws peaks at cell ends and
inside cells, jumps, values that turn non-finite at depth, stacked rows,
groups and param rows.  The model's table pass must stay a few calls.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from massflat.errors import QuadratureError
from massflat.geometry import _adaptive_cells
from test_geometry import _BATCH_MODELS

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _run(integrate, f, *args):
    """(outcome, integrand calls) of one integration.

    The outcome is the result's shape and bytes, or the class and text of
    the QuadratureError or warning it raised: warnings are errors here.
    """
    calls = []

    def counted(x, *p):
        calls.append(x.size)
        return f(x, *p)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = integrate(counted, *args)
        except (QuadratureError, RuntimeWarning) as exc:
            return (type(exc).__name__, str(exc)), len(calls)
    return (out.shape, out.tobytes()), len(calls)


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
                # d, cut off at soft (the bisection towards one ends near it)
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
    """Its rows stacked (one row alone is not); with param rows p, one per
    row of the (cells, nodes) block x, each value becomes
    value * p[0] + p[1] sin(x)."""

    rows: tuple

    def __call__(self, x, p=None):
        y = self.rows[0](x) if len(self.rows) == 1 else np.stack(
            [row(x) for row in self.rows])
        return y if p is None else y * p[:, :1] + p[:, 1:] * np.sin(x)


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


def _unify(outcome):
    """An outcome without the count of cells the whole run would have
    pending, the one part of an error text that counts every row and
    group: the first failing cell, its value and its error estimate are
    those of the row or group that fails alone."""
    if isinstance(outcome[0], str):
        return outcome[0], re.sub(r"; \d+ cells would be pending", "",
                                  outcome[1])
    return outcome


def _parts_match(whole, parts, take):
    """whole fails when a part fails alone, with that part's error;
    otherwise each part equals its share of whole, bit for bit."""
    errors = [_unify(part) for part in parts if isinstance(part[0], str)]
    if errors:
        assert _unify(whole) in errors
        return
    assert not isinstance(whole[0], str), whole
    values = np.frombuffer(whole[1]).reshape(whole[0])
    for k, (_, part) in enumerate(parts):
        assert take(values, k).tobytes() == part


@settings(max_examples=300)
@given(_integrations())
# two rows accepting a cell at different levels: a row stays dead below a
# cell it accepted, though the cell's halves miss the tolerance
@example((_Integrand((_Row("jump", 0.01), _Row("interior", 0.0))),
          np.array([0.0]), np.array([2.0]), 1e-8, None, None))
def test_stacked_rows_equal_their_runs_alone(case):
    # end peaks, interior peaks and jumps, rows accepting at different
    # depths, tolerance groups, param rows, a non-finite value met at
    # depth, and the depth limit
    f, a, b, rel, group, param = case
    whole, _ = _run(_adaptive_cells, f, a, b, rel, group, param)
    rows = [_run(_adaptive_cells, _Integrand((row,)), a, b, rel, group,
                 param)[0] for row in f.rows]
    _parts_match(whole, rows, lambda values, k: values[k]
                 if len(f.rows) > 1 else values)


@settings(max_examples=300)
@given(_integrations())
# a cliff in one group, whose scale would accept the other group's swing
@example((_Integrand((_Row("interior", 0.5, w=0.5),)),
          np.array([0.0, 1.0]), np.array([1.0, 4.0]), 1e-12,
          np.array([0, 1]), np.array([[1.0, 0.0], [1e6, 0.0]])))
def test_tolerance_groups_equal_their_runs_alone(case):
    f, a, b, rel, group, param = case
    labels = np.zeros(a.size, dtype=np.intp) if group is None else group
    whole, _ = _run(_adaptive_cells, f, a, b, rel, group, param)
    cells = [np.flatnonzero(labels == g) for g in np.unique(labels)]
    groups = [_run(_adaptive_cells, f, a[c], b[c], rel, labels[c],
                   None if param is None else param[c])[0] for c in cells]
    _parts_match(whole, groups, lambda values, k: values[..., cells[k]])


@pytest.mark.parametrize("name", sorted(_BATCH_MODELS))
def test_model_tables_take_no_more_calls(name):
    # both tables in one pass over the model's own knots, one integrand
    # call per bisection level: the ride substitution keeps the deep
    # wells' peaks from adding levels
    model = _BATCH_MODELS[name]()
    outcome, calls = _run(
        lambda f, *args: model._integrate_cells(f, *args), model._slopes,
        model.knots[:-1], model.knots[1:])
    assert not isinstance(outcome[0], str), outcome
    assert calls <= 4
