"""Hypothesis pin for the closed ball-membership boundary (``nd <= radius``).

R2R's correctness argument needs the ``2 r*`` ball to be *closed*: a
vertex whose shortest distance lands exactly on the radius is a member.
The strategy below draws graphs whose weights are small binary fractions
(so path sums reproduce exactly in floats), then sets the radius to a
*realized* shortest-path distance — every example exercises at least one
vertex sitting precisely on the boundary, including vertices connected by
zero-weight edges to boundary vertices (equal distance, also members).

Both ball kernels — the dict loop and the scalar CSR kernel — must
report identical membership and identical (bit-equal) distances.
"""

import math

from hypothesis import given, strategies as st

from repro.search.csr_kernels import csr_bounded_ball, csr_bounded_ball_tree
from repro.search.dijkstra import bounded_ball, bounded_ball_tree, sssp_distances

from tests.correctness.conftest import CORRECTNESS

#: Binary-fraction weights: every path sum is exact in float64, so a
#: boundary vertex's distance equals the radius bit-for-bit.  The zeros
#: create ties *at* the boundary.
WEIGHTS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@st.composite
def ball_cases(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    edges = {}
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        w = draw(WEIGHTS)
        edges[(i, j)] = w
        edges[(j, i)] = w
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = draw(WEIGHTS)
    source = draw(st.integers(min_value=0, max_value=n - 1))
    boundary = draw(st.integers(min_value=0, max_value=n - 1))
    backward = draw(st.booleans())
    return n, sorted(edges.items()), source, boundary, backward


def build(n, edges):
    from repro.network.graph import RoadNetwork

    graph = RoadNetwork([float(i) for i in range(n)], [0.0] * n)
    for (u, v), w in edges:
        graph.add_edge(u, v, w)
    return graph


@given(ball_cases())
@CORRECTNESS
def test_boundary_membership_identical_across_backends(case):
    n, edges, source, boundary, backward = case
    graph = build(n, edges)
    dist = sssp_distances(graph, source, backward)
    # Radius = a realized distance: `boundary` (and every vertex tied with
    # it, zero-weight neighbours included) sits exactly on the closed
    # boundary.  Unreachable draw degrades to a plain radius, still valid.
    radius = dist[boundary] if math.isfinite(dist[boundary]) else 1.0

    ref_done, ref_visited = bounded_ball(graph, source, radius, backward)
    if math.isfinite(dist[boundary]):
        assert boundary in ref_done, "closed boundary must include the vertex"
        assert ref_done[boundary] == radius
    ref_tree = bounded_ball_tree(graph, source, radius, backward)
    assert ref_tree[0] == ref_done and ref_tree[2] == ref_visited

    csr = graph.freeze()
    assert csr_bounded_ball(csr, source, radius, backward) == (ref_done, ref_visited)
    tree = csr_bounded_ball_tree(csr, source, radius, backward)
    assert tree[0] == ref_done and tree[2] == ref_visited
