"""Unit and property tests for the streaming piecewise-linear fitter.

The central invariant (Definition 1): for every key the model covering it
predicts a position within epsilon (+1 for float truncation slack, well
inside the one-page fallback of Algorithm 7).
"""

import bisect
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from plm_oracle import reference_fit
from repro.learned import OptimalPiecewiseLinear, build_models
from repro.learned.model import Model


def check_models(points, epsilon):
    models = list(build_models(iter(points), epsilon))
    assert models, "at least one model for non-empty input"
    kmins = [model.kmin for model in models]
    assert kmins == sorted(kmins)
    for key, position in points:
        index = bisect.bisect_right(kmins, key) - 1
        assert index >= 0
        predicted = models[index].predict(key)
        assert abs(predicted - position) <= epsilon + 1, (key, position, predicted)
    assert models[-1].pmax == points[-1][1]
    return models


def test_linear_data_needs_one_model():
    points = [(i * 3 + 7, i) for i in range(500)]
    models = check_models(points, epsilon=2)
    assert len(models) == 1


def test_single_point():
    models = check_models([(42, 0)], epsilon=5)
    assert models[0].kmin == 42
    assert models[0].predict(42) == 0


def test_two_points():
    check_models([(10, 0), (20, 1)], epsilon=1)


def test_epsilon_zero_piecewise_exact():
    points = [(i, i // 4) for i in range(0, 200, 2)]
    check_models(points, epsilon=0)


def test_random_huge_keys():
    rng = random.Random(9)
    keys = sorted({rng.getrandbits(256) for _ in range(1500)})
    check_models([(k, i) for i, k in enumerate(keys)], epsilon=23)


def test_clustered_compound_keys():
    rng = random.Random(10)
    addrs = sorted({rng.getrandbits(160) for _ in range(40)})
    points = []
    position = 0
    for addr in addrs:
        for blk in range(1, 30):
            points.append((addr * 2**64 + blk, position))
            position += 1
    models = check_models(points, epsilon=23)
    assert len(models) < len(points)


def test_steps_break_segments():
    # A step function with jumps much larger than epsilon forces splits.
    points = [(i, (i // 50) * 1000 + i % 50) for i in range(200)]
    models = check_models(points, epsilon=3)
    assert len(models) >= 3


def test_non_increasing_keys_rejected():
    fitter = OptimalPiecewiseLinear(4)
    assert fitter.add_point(10, 0)
    with pytest.raises(ValueError):
        fitter.add_point(10, 1)
    with pytest.raises(ValueError):
        fitter.add_point(5, 2)


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        OptimalPiecewiseLinear(-1)


def test_segment_without_points_rejected():
    with pytest.raises(ValueError):
        OptimalPiecewiseLinear(2).segment()


def test_model_serialization_round_trip():
    model = Model(sl=1.25, ic=-3.5, kmin=2**200 + 17, pmax=999)
    data = model.to_bytes(key_width=40)
    assert len(data) == Model.record_size(40)
    restored = Model.from_bytes(data, key_width=40)
    assert restored == model


def test_model_predict_clamps():
    model = Model(sl=10.0, ic=0.0, kmin=100, pmax=5)
    assert model.predict(1000) == 5
    negative = Model(sl=-10.0, ic=0.0, kmin=100, pmax=5)
    assert negative.predict(200) == 0


def test_model_covers():
    model = Model(sl=1.0, ic=0.0, kmin=50, pmax=10)
    assert model.covers(50)
    assert model.covers(51)
    assert not model.covers(49)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**96), min_size=1, max_size=300, unique=True),
    st.integers(min_value=0, max_value=64),
)
def test_error_bound_property(keys, epsilon):
    keys = sorted(keys)
    points = [(key, index) for index, key in enumerate(keys)]
    check_models(points, epsilon)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=60))
# Regression: this stream collapses the feasible slope range to a single
# value, so the segment's diagonals are parallel and its corners have
# migrated off the first key; the emission fallback used to average
# corner heights taken at *different* keys and broke the ε bound.
@example(gaps=[1, 27, 48, 1, 3, 41, 50, 50, 50, 50, 1, 1, 1, 3, 22, 35, 17])
def test_positions_with_gaps_property(gaps):
    # Positions that advance by variable strides (like multi-versioned data).
    key = 0
    position = 0
    points = []
    for gap in gaps:
        key += gap
        position += 1 + (gap % 3)
        points.append((key, position))
    check_models(points, epsilon=4)


# -- the inlined add_point against the helper-based oracle ------------------------


def assert_matches_oracle(points, epsilon):
    """Same accept/reject decision per point, same models, bit for bit."""
    expected = reference_fit(points, epsilon)
    assert reference_fit(points, epsilon, OptimalPiecewiseLinear) == expected
    assert list(build_models(iter(points), epsilon)) == expected[1]


def test_oracle_on_the_fixed_streams():
    rng = random.Random(9)
    huge = sorted({rng.getrandbits(256) for _ in range(1500)})
    assert_matches_oracle([(key, index) for index, key in enumerate(huge)], 23)
    rng = random.Random(10)
    clustered = [
        (addr * 2**64 + blk, 0)
        for addr in sorted({rng.getrandbits(160) for _ in range(40)})
        for blk in range(1, 30)
    ]
    assert_matches_oracle([(key, index) for index, (key, _) in enumerate(clustered)], 23)
    assert_matches_oracle([(i, (i // 50) * 1000 + i % 50) for i in range(200)], 3)
    assert_matches_oracle([(i, i // 4) for i in range(0, 200, 2)], 0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2**320),  # huge keys
            st.integers(min_value=0, max_value=400),  # dense, collinear stretches
        ),
        min_size=1, max_size=300, unique=True,
    ),
    st.integers(min_value=0, max_value=64),
    st.lists(st.integers(min_value=0, max_value=70), min_size=1, max_size=8),
)
def test_inlined_add_point_matches_oracle(keys, epsilon, strides):
    # Positions advance by a cycling stride: all-ones is a value file,
    # zeros are repeated positions, large strides are the position gaps
    # of an upper index layer over a sparse lower one.
    points = []
    position = 0
    for index, key in enumerate(sorted(keys)):
        points.append((key, position))
        position += strides[index % len(strides)]
    assert_matches_oracle(points, epsilon)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**160), min_size=1, max_size=40, unique=True),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=30),
)
def test_inlined_add_point_matches_oracle_on_compound_keys(addrs, versions, epsilon):
    # Clustered compound keys: a few adjacent block heights per address,
    # then a jump of ~2**64 to the next address.
    keys = [addr * 2**64 + blk for addr in sorted(addrs) for blk in range(1, versions + 1)]
    assert_matches_oracle([(key, index) for index, key in enumerate(keys)], epsilon)
