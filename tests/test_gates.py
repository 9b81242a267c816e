"""The two input gates: one range rule for radii and arclengths, one rule
for positive parameters, at every scale."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat.certificates import delta_budget, flat_certificate, well_cut
from massflat.embedding import metric_embedding_check, tube_distance
from massflat.errors import DomainError, RangeError, checked_range, positive
from massflat.geometry import ManifoldModel, tubular_window, window_bracket
from massflat.profiles import deep_well_parameters, schwarzschild, stripes


def _model(lam):
    return ManifoldModel(schwarzschild(3, 0.05).scale(lam), 8.0 * lam)


@pytest.mark.parametrize("lam", [1.0, 1e-3, 1e-6])
def test_out_of_range_queries_raise_at_every_scale(lam):
    # 1e-7 relative is far above round-off, so every scale must refuse it
    model = _model(lam)
    past_cap = model.r_cap * (1.0 + 1e-7)
    below_min = model.r_min * (1.0 - 1e-7)
    past_s_cap = 1.0001 * model.s_cap
    for query, value in ((model.s, past_cap), (model.F, past_cap),
                         (model.quantities, past_cap),
                         (model.F, below_min), (model.profile.mass, below_min),
                         (model.r_of_s, past_s_cap)):
        with pytest.raises(RangeError):
            query(value)
    with pytest.raises(RangeError):
        tube_distance(model, model.r_min, past_cap, 0.0, model.r_cap, 1.0)
    # round-off past an end is clipped, at every scale
    assert model.s(model.r_cap * (1.0 + 1e-13)) == model.s_cap
    assert model.r_of_s(model.s_cap * (1.0 + 1e-13)) == model.r_cap


def test_nan_is_out_of_range_everywhere():
    model = _model(1.0)
    nan = math.nan
    for call in (lambda: model.s(nan), lambda: model.F(nan),
                 lambda: model.r_of_s(nan), lambda: model.f_prime(nan),
                 lambda: model.profile.mass(nan),
                 lambda: model.s(np.array([1.0, nan])),
                 lambda: model.sup_grad(nan, 2.0),
                 lambda: model.sup_grad(1.0, nan),
                 lambda: model.shell_volume(nan, 2.0),
                 lambda: model.shell_volume(1.0, nan)):
        with pytest.raises(RangeError, match="nan"):
            call()


def test_checked_range_names_the_value_and_the_range():
    with pytest.raises(RangeError,
                       match=r"radius 3\.5 outside \[1\.0, 3\.0\]"):
        checked_range([2.0, 3.5], 1.0, 3.0, "radius")
    arr, scalar = checked_range(3.0 + 1e-12, 1.0, 3.0, "radius")
    assert scalar and arr.tolist() == [3.0]
    arr, scalar = checked_range([1.5, 2.5], 1.0, math.inf, "radius")
    assert not scalar and arr.tolist() == [1.5, 2.5]
    assert checked_range([], 1.0, 3.0, "radius")[0].size == 0


def test_scalar_queries_return_python_floats():
    model = _model(1.0)
    for value in (model.profile.mass(1.0), model.profile.wall_gap(1.0),
                  model.s(1.0), model.F(1.0), model.r_of_s(1.0),
                  model.sup_grad(1.0, 2.0)):
        assert type(value) is float


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_positive_rejects_what_is_not_finite_and_positive(value):
    with pytest.raises(DomainError, match="epsilon must be finite and "
                                          "positive"):
        positive(value, "epsilon")


def test_positive_returns_a_float():
    assert type(positive(np.float64(2.5), "D")) is float
    assert positive(3, "D") == 3.0


def test_every_positive_parameter_rejects_infinity():
    model = _model(1.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    inf = math.inf
    for call in (lambda: window_bracket(model, inf, 0.5),
                 lambda: window_bracket(model, 4.0 * math.pi, inf),
                 lambda: flat_certificate(model, 4.0 * math.pi, 0.5, inf),
                 lambda: model.profile.scale(inf),
                 lambda: schwarzschild(3, inf),
                 lambda: stripes((1.0, 2.0), inf),
                 lambda: well_cut(0.5, inf, 1.0, 3),
                 lambda: delta_budget(0.5, inf, 1.0, 3),
                 lambda: deep_well_parameters(3, 0.02, 1.0, inf),
                 lambda: metric_embedding_check(model, window, inf, 0)):
        with pytest.raises(DomainError, match="must be finite and positive"):
            call()
