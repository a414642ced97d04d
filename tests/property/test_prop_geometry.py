"""Property-based tests for the geometric substrate."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.network.convexhull import convex_hull, point_in_hull
from repro.network.spatial import (
    angular_difference,
    bearing_angle,
    fold_theta,
    reference_angle,
    search_space_ellipse,
    segment_cells,
)

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
points = st.tuples(coords, coords)


@given(st.lists(points, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_hull_contains_all_input_points(pts):
    hull = convex_hull(pts)
    for p in pts:
        assert point_in_hull(p, hull, eps=1e-6)


@given(st.lists(points, min_size=3, max_size=30))
@settings(max_examples=60, deadline=None)
def test_hull_is_idempotent(pts):
    hull = convex_hull(pts)
    assert set(convex_hull(hull)) == set(hull)


@given(coords, coords)
@settings(max_examples=100, deadline=None)
def test_reference_angle_range(dx, dy):
    assert 0.0 <= reference_angle(dx, dy) <= 45.0


@given(coords, coords)
@settings(max_examples=100, deadline=None)
def test_bearing_range(dx, dy):
    assert 0.0 <= bearing_angle(dx, dy) < 360.0


@given(st.floats(min_value=-720, max_value=720, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_fold_theta_range(theta):
    assert 0.0 <= fold_theta(theta) <= 45.0


@given(
    st.floats(min_value=0, max_value=360, allow_nan=False),
    st.floats(min_value=0, max_value=360, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_angular_difference_symmetric_and_bounded(a, b):
    d = angular_difference(a, b)
    assert 0.0 <= d <= 180.0
    assert math.isclose(d, angular_difference(b, a))


@given(coords, coords, coords, coords, st.floats(min_value=0, max_value=45))
@settings(max_examples=80, deadline=None)
def test_ellipse_contains_both_endpoints(sx, sy, tx, ty, theta):
    e = search_space_ellipse(sx, sy, tx, ty, theta)
    assert e.contains(sx, sy)
    assert e.contains(tx, ty)


@given(
    st.floats(min_value=0.01, max_value=15.9),
    st.floats(min_value=0.01, max_value=15.9),
    st.floats(min_value=0.01, max_value=15.9),
    st.floats(min_value=0.01, max_value=15.9),
)
# Ends exactly on a cell corner: the walk used to run on past it.
@example(7.0, 0.5, 1.0, 1.0)
@settings(max_examples=80, deadline=None)
def test_segment_cells_connected_and_clipped(ax, ay, bx, by):
    cells = segment_cells(ax, ay, bx, by, (0.0, 0.0), 1.0, 16)
    assert cells[0] == (int(ax), int(ay))
    assert cells[-1] == (int(bx), int(by))
    for (i1, j1), (i2, j2) in zip(cells, cells[1:]):
        assert abs(i1 - i2) + abs(j1 - j2) == 1
        assert 0 <= i2 < 16 and 0 <= j2 < 16
