import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epidiff.errors import NegativeInfinityDetected
from epidiff.extreal import PLUS_INF, ExtReal

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@given(finite)
def test_plus_inf_absorbs_addition(x):
    assert ExtReal(x) + PLUS_INF == PLUS_INF
    assert PLUS_INF + ExtReal(x) == PLUS_INF


@given(finite, finite)
def test_total_order_matches_floats(a, b):
    assert (ExtReal(a) < ExtReal(b)) == (a < b)
    assert ExtReal(a) < PLUS_INF
    assert not PLUS_INF < ExtReal(a)


@given(st.lists(finite, min_size=1))
def test_min_max_agree_with_builtin(xs):
    vals = [ExtReal(x) for x in xs]
    assert min(vals).value == min(xs)
    assert max(vals).value == max(xs)


def test_min_over_only_plus_inf_is_plus_inf():
    assert min([PLUS_INF, PLUS_INF]).is_plus_inf


def test_nan_and_minus_inf_rejected():
    with pytest.raises(ValueError):
        ExtReal(float("nan"))
    with pytest.raises(NegativeInfinityDetected):
        ExtReal(-math.inf)
    with pytest.raises(NegativeInfinityDetected):
        -PLUS_INF


def test_rendering():
    assert str(PLUS_INF) == "+inf"
    assert ExtReal(2.0).as_float() == 2.0
    assert PLUS_INF.as_float() == math.inf
