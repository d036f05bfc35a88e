"""Regressions for the published selection/ordering examples plus
membership properties of the constructions."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustercap import sequencing
from clustercap.model import ConfigError, NodeParams, SelectedNodeDistribution
from clustercap.sequencing import (
    SeparatePositions,
    horizontal_selection,
    optimal_order_with_separate_at,
    vertical_order,
)


@pytest.mark.parametrize(
    "k, s0, expected",
    [
        (7, 1, (1, (4, 2, 0))),
        (9, 1, (1, (4, 4, 0))),
        (8, 0, (0, (4, 4, 0))),
    ],
)
def test_horizontal_selection_published_examples(k, s0, expected):
    nodes = NodeParams(n=13, k=k, L=3, R=4, E=1)
    got = horizontal_selection(nodes, s0)
    assert (got.separate, got.clusters) == expected


def test_horizontal_selection_s0_restricted():
    nodes = NodeParams(n=14, k=5, L=3, R=4, E=2)
    got = horizontal_selection(nodes, 2)
    assert (got.separate, got.clusters) == (2, (3, 0, 0))
    with pytest.raises(ConfigError):
        horizontal_selection(nodes, 3)
    with pytest.raises(ConfigError):
        horizontal_selection(NodeParams(n=12, k=5, L=3, R=4, E=0), 1)
    # s0 = 1 leaves 3 selected nodes for one cluster of 2
    with pytest.raises(ConfigError) as err:
        horizontal_selection(NodeParams(n=5, k=4, L=1, R=2, E=3), 1)
    assert str(err.value) == "cannot place 3 selected nodes in 1x2"


@pytest.mark.parametrize(
    "separate, clusters, positions, expected",
    [
        (0, (4, 3), (), (1, 2, 1, 2, 1, 2, 1)),
        (1, (4, 2, 0), (6,), (1, 2, 1, 2, 1, 0, 1)),
        (1, (4, 4, 0), (9,), (1, 2, 1, 2, 1, 2, 1, 2, 0)),
        (0, (2, 0), (), (1, 1)),
    ],
)
def test_vertical_order_published_examples(separate, clusters, positions, expected):
    dist = SelectedNodeDistribution(separate=separate, clusters=clusters)
    got = vertical_order(dist, SeparatePositions(positions))
    assert got.labels == expected


def test_vertical_order_validates_positions():
    dist = SelectedNodeDistribution(separate=1, clusters=(2, 0))
    with pytest.raises(ConfigError):
        vertical_order(dist, SeparatePositions(()))  # count mismatch
    with pytest.raises(ConfigError):
        vertical_order(dist, SeparatePositions((4,)))  # out of range


@pytest.mark.parametrize(
    "k, j, expected",
    [
        (8, 8, (1, 2, 1, 2, 1, 2, 1, 0)),
        (8, 4, (1, 2, 1, 0, 2, 1, 2, 1)),
        (7, 7, (1, 2, 1, 2, 1, 1, 0)),
    ],
)
def test_optimal_order_with_separate_at_published_examples(k, j, expected):
    nodes = NodeParams(n=13, k=k, L=3, R=4, E=1)
    assert optimal_order_with_separate_at(nodes, j).labels == expected


def test_optimal_order_position_range():
    nodes = NodeParams(n=13, k=8, L=3, R=4, E=1)
    with pytest.raises(ConfigError):
        optimal_order_with_separate_at(nodes, 0)
    with pytest.raises(ConfigError):
        optimal_order_with_separate_at(nodes, 9)
    with pytest.raises(ConfigError):
        optimal_order_with_separate_at(NodeParams(n=12, k=8, L=3, R=4, E=0), 8)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.integers(1, 12),
       st.integers(0, 1), st.data())
@settings(max_examples=150, deadline=None)
def test_constructions_produce_members(L, R, E, k, s0, data):
    n = L * R + E
    assume(2 <= n and 1 <= k <= n - 1)
    assume(s0 <= E and k - s0 <= L * R and s0 <= k)
    nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
    dist = horizontal_selection(nodes, s0)
    assert dist.is_member(nodes)

    positions = tuple(
        sorted(
            data.draw(
                st.lists(
                    st.integers(1, k), min_size=s0, max_size=s0, unique=True
                )
            )
        )
    )
    order = vertical_order(dist, SeparatePositions(positions))
    assert order.matches(dist)
    assert all(order.labels[p - 1] == 0 for p in positions)


def test_equal_records_share_one_cache_entry():
    """The caches are keyed by the records' fields: an equal but distinct
    NodeParams or distribution finds the entry that the first one made."""
    first, second = (NodeParams(n=13, k=9, L=3, R=4, E=1) for _ in range(2))
    assert first == second and first is not second
    for public, cached, arg in (
        (horizontal_selection, sequencing._horizontal_selection, 1),
        (optimal_order_with_separate_at, sequencing._optimal_order_with_separate_at, 9),
    ):
        cached.cache_clear()
        assert public(second, arg) is public(first, arg)
        assert cached.cache_info()[:2] == (1, 1)  # (hits, misses)
    dist = horizontal_selection(first, 1)
    twin = SelectedNodeDistribution(separate=1, clusters=dist.clusters)
    sep = SeparatePositions(positions=(9,))
    sequencing._vertical_order.cache_clear()
    assert vertical_order(twin, SeparatePositions(positions=(9,))) is vertical_order(dist, sep)
    assert sequencing._vertical_order.cache_info()[:2] == (1, 1)


def test_vertical_order_without_positions_shares_the_empty_entry():
    """vertical_order(dist) and vertical_order(dist, SeparatePositions.none())
    are one cache entry."""
    dist = SelectedNodeDistribution(separate=0, clusters=(3, 2, 2))
    sequencing._vertical_order.cache_clear()
    order = vertical_order(dist)
    assert vertical_order(dist, SeparatePositions.none()) is order
    assert order.labels == (1, 2, 3, 1, 2, 3, 1)
    info = sequencing._vertical_order.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
