"""_adaptive_cells keeps tolerance groups apart.

Each tolerance group of a batch must give what it gives integrated alone,
bit for bit, and fail alone with the error the whole run fails with;
hypothesis draws peaks at cell ends and inside cells, jumps, values that
turn non-finite at depth, groups and param rows.  A model's table build
must stay one pass of panels per round.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from massflat.errors import QuadratureError
from massflat.geometry import _adaptive_cells
from test_geometry import _BATCH_MODELS, _HALVED_MODELS
from util import count_panels

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _run(*args):
    """The outcome of one _adaptive_cells run: the result's shape and
    bytes, or the class and text of the QuadratureError or warning it
    raised: warnings are errors here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = _adaptive_cells(*args)
        except (QuadratureError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)
    return out.shape, out.tobytes()


@dataclass(frozen=True)
class _Row:
    """One integrand, on its own error state so that only the quadrature's
    own arithmetic can warn."""

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
    """Its row; with param rows p, one per row of the (cells, nodes) block
    x, each value becomes value * p[0] + p[1] sin(x)."""

    row: _Row

    def __call__(self, x, p=None):
        y = self.row(x)
        return y if p is None else y * p[:, :1] + p[:, 1:] * np.sin(x)


_KINDS = ("ends", "nan-end", "interior", "jump", "smooth")


@st.composite
def _integrations(draw):
    """(f, a, b, rel, group, param) over a few adjacent cells of [0, 4]."""
    n = draw(st.integers(1, 6))
    edges = sorted(draw(st.lists(st.floats(0.0, 4.0), min_size=n + 1,
                                 max_size=n + 1)))
    kind = draw(st.sampled_from(_KINDS))
    if kind in ("ends", "nan-end"):
        c, d = draw(st.sampled_from(edges)), draw(st.sampled_from(edges))
    elif kind == "jump":  # anywhere, or just off a cell end, where only
        # the deeper levels' panels see it
        c = d = draw(st.floats(edges[0], edges[-1]) | st.builds(
            lambda e, u: e + 10.0 ** -u, st.sampled_from(edges),
            st.floats(2.0, 12.0)))
    else:
        c = d = draw(st.floats(edges[0], edges[-1]))
    row = _Row(kind, c, d, draw(st.floats(0.5, 2.0)),
               draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5])))
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
    return (_Integrand(row), np.array(edges[:-1]), np.array(edges[1:]),
            rel, group, param)


def _unify(outcome):
    """An outcome without the count of cells the whole run would have
    pending, the one part of an error text that counts every group: the
    first failing cell, its value and its error estimate are those of the
    group that fails alone."""
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
# a cliff in one group, whose scale would accept the other group's swing
@example((_Integrand(_Row("interior", 0.5, w=0.5)),
          np.array([0.0, 1.0]), np.array([1.0, 4.0]), 1e-12,
          np.array([0, 1]), np.array([[1.0, 0.0], [1e6, 0.0]])))
def test_tolerance_groups_equal_their_runs_alone(case):
    f, a, b, rel, group, param = case
    labels = np.zeros(a.size, dtype=np.intp) if group is None else group
    whole = _run(f, a, b, rel, group, param)
    cells = [np.flatnonzero(labels == g) for g in np.unique(labels)]
    groups = [_run(f, a[c], b[c], rel, labels[c],
                   None if param is None else param[c]) for c in cells]
    _parts_match(whole, groups, lambda values, k: values[..., cells[k]])


_BUILDS = {**_BATCH_MODELS, **_HALVED_MODELS}


@pytest.mark.parametrize("name", sorted(_BUILDS))
def test_model_tables_take_no_more_calls(name, monkeypatch):
    # a build makes one pass of panels per round, both tables at once, and
    # no _adaptive_cells run: each round over the cells of the last and the
    # halves of those it did not accept, the last over the table's cells.
    # The ride substitution keeps the deep wells at one round.  The 5-D
    # spline halves a cell in each of 2 rounds: 3 passes of 209, 210 and
    # 211 cells
    panels = count_panels(monkeypatch)
    model = _BUILDS[name]()
    assert panels.runs == []
    assert (panels.passes > 1) == (name in _HALVED_MODELS), panels.cells
    assert np.all(np.diff(panels.cells) > 0)
    assert panels.cells[-1] == model.knots.size - 1
    if name == "spline-seed-12-m5":
        assert panels.cells == [209, 210, 211]
