"""Parameter validation and enumeration tests."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercap import model
from clustercap.model import (
    BandwidthOrder,
    ClusterOrder,
    ConfigError,
    DCRange,
    DInvalid,
    KRange,
    NodeCount,
    NodeParams,
    SelectedNodeDistribution,
    enumerate_distributions,
    enumerate_orders,
    enumeration_size,
    format_rational,
    order_count,
    parse_rational,
    validate_config,
)


def test_validate_fig6_config():
    cfg = validate_config(
        n=13, k=9, L=3, R=4, E=1, d_intra=3, d_cross=7,
        beta_intra=2, beta_cross=1, alpha=10,
    )
    assert cfg.nodes.n == 13
    assert cfg.repair.d == 10
    assert cfg.repair.gamma_separate == 10


def test_validate_fig5_config():
    cfg = validate_config(
        n=5, k=3, L=2, R=2, E=1, d_intra=1, d_cross=3,
        beta_intra=2, beta_cross=1, alpha=2,
    )
    assert cfg.repair.gamma_intra == 2
    assert cfg.repair.gamma_cross == 3


def test_validate_dc_below_range():
    with pytest.raises(DCRange):
        validate_config(
            n=4, k=2, L=2, R=2, E=0, d_cross=0,
            beta_intra=2, beta_cross=1, alpha=1,
        )


@pytest.mark.parametrize(
    "kwargs, error",
    [
        (dict(n=5, k=2, L=2, R=2, E=0), NodeCount),
        (dict(n=4, k=4, L=2, R=2, E=0), KRange),
        (dict(n=4, k=0, L=2, R=2, E=0), KRange),
        (dict(n=4, k=2, L=2, R=2, E=0, d_intra=2), DInvalid),
        (dict(n=4, k=2, L=2, R=2, E=0, beta_intra=1, beta_cross=2), BandwidthOrder),
        (dict(n=4, k=2, L=2, R=2, E=0, d_cross=3), DCRange),
        (dict(n=4, k=2, L=2, R=2, E=0, d_cross=-1), DCRange),
    ],
)
def test_validation_errors(kwargs, error):
    base = dict(n=4, k=2, L=2, R=2, E=0, d_cross=1, beta_intra=2, beta_cross=1, alpha=1)
    base.update(kwargs)
    with pytest.raises(error):
        validate_config(**base)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(7, 2)) == Fraction(7, 2)
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    with pytest.raises(TypeError):
        parse_rational(1.5)


def test_enumerate_distributions_examples():
    got = enumerate_distributions(NodeParams(n=4, k=2, L=2, R=2, E=0))
    assert [(d.separate, d.clusters) for d in got] == [(0, (2, 0)), (0, (1, 1))]

    got = enumerate_distributions(NodeParams(n=5, k=3, L=2, R=2, E=1))
    assert [(d.separate, d.clusters) for d in got] == [
        (1, (2, 0)), (1, (1, 1)), (0, (2, 1)),
    ]


def test_enumerate_distributions_full_selection():
    got = enumerate_distributions(NodeParams(n=7, k=6, L=2, R=3, E=1))
    # k = L*R requires every cluster full once the separate node is skipped
    assert got[-1].clusters == (3, 3)
    assert all(d.separate + sum(d.clusters) == 6 for d in got)


def test_distribution_invariants_enforced():
    with pytest.raises(ConfigError):
        SelectedNodeDistribution(separate=0, clusters=(1, 2))
    with pytest.raises(ConfigError):
        SelectedNodeDistribution(separate=-1, clusters=(2, 1))


def test_enumerate_orders_examples():
    dist = SelectedNodeDistribution(separate=1, clusters=(2, 0))
    got = [o.labels for o in enumerate_orders(dist)]
    assert got == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    single = SelectedNodeDistribution(separate=0, clusters=(2, 0))
    assert [o.labels for o in enumerate_orders(single)] == [(1, 1)]

    big = SelectedNodeDistribution(separate=1, clusters=(4, 2, 0))
    orders = enumerate_orders(big)
    assert len(orders) == 105  # 7! / (4! 2! 1!)
    assert len(set(orders)) == 105


def test_order_membership_and_distribution():
    dist = SelectedNodeDistribution(separate=1, clusters=(2, 1))
    for order in enumerate_orders(dist):
        assert order.matches(dist)
        assert order.distribution(2) == dist
    assert not ClusterOrder((1, 1, 1, 0)).matches(dist)
    # a label above L, and counts that are not non-increasing, match no
    # distribution rather than raise
    with pytest.raises(ConfigError) as err:
        ClusterOrder((1, 3, 0)).distribution(2)
    assert str(err.value) == "label 3 exceeds L=2"
    assert not ClusterOrder((1, 3, 0)).matches(dist)
    assert not ClusterOrder((2, 2, 0)).matches(SelectedNodeDistribution(1, (2, 0)))


@st.composite
def small_distributions(draw):
    L = draw(st.integers(1, 3))
    clusters = tuple(
        sorted((draw(st.integers(0, 3)) for _ in range(L)), reverse=True)
    )
    separate = draw(st.integers(0, 2))
    if separate + sum(clusters) == 0:
        clusters = (1,) + clusters[1:]
    return SelectedNodeDistribution(separate=separate, clusters=clusters)


@given(small_distributions())
@settings(max_examples=60, deadline=None)
def test_order_count_matches_enumeration(dist):
    if dist.k > 8:
        return
    orders = enumerate_orders(dist)
    expected = factorial(dist.k) // (
        factorial(dist.separate) * _prod_factorials(dist.clusters)
    )
    assert order_count(dist) == expected
    assert len(orders) == expected
    assert len(set(orders)) == expected
    assert orders == sorted(orders, key=lambda o: o.labels)


def _prod_factorials(values):
    out = 1
    for v in values:
        out *= factorial(v)
    return out


@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.integers(1, 8)
)
@settings(max_examples=60, deadline=None)
def test_distributions_match_brute_force_filter(L, R, E, k):
    n = L * R + E
    if not 1 <= k <= n - 1:
        return
    nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
    got = {(d.separate, d.clusters) for d in enumerate_distributions(nodes)}
    expected = set()
    for s0 in range(E + 1):
        for clusters in itertools.product(range(R + 1), repeat=L):
            if s0 + sum(clusters) == k and all(
                a >= b for a, b in zip(clusters, clusters[1:])
            ):
                expected.add((s0, clusters))
    assert got == expected


def test_equal_layouts_share_one_cache_entry():
    """The distributions and the order total are cached by the layout's
    fields: an equal but distinct NodeParams finds the first one's entry."""
    first, second = (NodeParams(n=13, k=9, L=3, R=4, E=1) for _ in range(2))
    assert first == second and first is not second
    for public, cached in (
        (enumerate_distributions, model._enumerate_distributions),
        (enumeration_size, model._enumeration_size),
    ):
        cached.cache_clear()
        assert public(second) is public(first)
        assert cached.cache_info()[:2] == (1, 1)  # (hits, misses)
