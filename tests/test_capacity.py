"""Closed-form weight sequences, capacity, tradeoff inversion, and the
separate-node comparison."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustercap.capacity import (
    Outcome,
    UnsupportedE,
    Unstorable,
    Variant,
    WeightSequence,
    cluster_weight_values,
    compare_separate,
    csn_weight_values,
    min_alpha,
    mincut_by_location,
    system_capacity,
    tradeoff_curve,
    weight_sequence,
    weight_values,
)
from clustercap.mincut import mincut
from clustercap.model import (
    ClusterOrder,
    ConfigError,
    NodeParams,
    RepairParams,
    validate_config,
)
from clustercap.oracle import brute_force_capacity, ifg_mincut


def cfg_fig5(alpha):
    return validate_config(
        n=5, k=3, L=2, R=2, E=1, d_cross=3, beta_intra=2, beta_cross=1, alpha=alpha
    )


def test_csn_weight_sequence_example():
    ws = weight_sequence(cfg_fig5(2), Variant.CSN_ONE_SEPARATE)
    assert ws.values == (2, 3, 5)


def test_cluster_weight_sequence_example():
    values = cluster_weight_values(7, 4, 6, Fraction(2), Fraction(1))
    assert values == (3, 5, 6, 8, 9, 11, 12)


def test_homogeneous_variants_agree():
    for k, R, d_cross in ((5, 3, 4), (6, 3, 5), (8, 4, 6), (4, 2, 3)):
        beta = Fraction(3, 2)
        ladder = tuple(sorted((R + d_cross - i) * beta for i in range(1, k + 1)))
        assert cluster_weight_values(k, R, d_cross, beta, beta) == ladder
        assert csn_weight_values(k, R, d_cross, beta, beta) == ladder
        for E in (2, 3):
            assert weight_values(k, E, R, d_cross, beta, beta) == ladder


def test_weight_sequence_variant_requires_separate_node():
    cfg = validate_config(
        n=4, k=2, L=2, R=2, E=0, d_cross=2, beta_intra=2, beta_cross=1, alpha=5
    )
    with pytest.raises(UnsupportedE):
        weight_sequence(cfg, Variant.CSN_ONE_SEPARATE)


def test_system_capacity_examples():
    assert system_capacity(cfg_fig5(2)) == 6
    assert system_capacity(cfg_fig5(100)) == 10
    assert system_capacity(cfg_fig5(0)) == 0


def test_system_capacity_two_separate_nodes_matches_search():
    cfg = validate_config(
        n=6, k=3, L=2, R=2, E=2, d_cross=3, beta_intra=2, beta_cross=1, alpha=5
    )
    # two separate nodes last (weights 2 and 3), one cluster node first (5)
    assert system_capacity(cfg) == 10
    assert brute_force_capacity(cfg).value == 10


def test_mincut_by_location_matches_capacity_at_last_position():
    cfg = cfg_fig5(100)
    assert mincut_by_location(cfg, 3) == 10
    assert mincut_by_location(cfg, 3) == system_capacity(cfg)


def test_mincut_by_location_needs_a_separate_node():
    cfg = validate_config(
        n=4, k=3, L=2, R=2, E=0, d_cross=2, beta_intra=2, beta_cross=1, alpha=10
    )
    with pytest.raises(ConfigError) as err:
        mincut_by_location(cfg, 1)
    assert str(err.value) == "separate-node location sweep needs E >= 1"


def test_mincut_by_location_early_position():
    # The separate newcomer at position 1 absorbs one cross-cluster edge
    # of every later repair, so the later weights drop by beta_C each:
    # weights (4, 4, 2), not (4, 5, 3).  Cross-checked against both the
    # exhaustive scan restricted to that location and the flow graph.
    cfg = cfg_fig5(100)
    got = mincut_by_location(cfg, 1)
    assert got == 10
    assert got == ifg_mincut(cfg, ClusterOrder((0, 1, 1)))
    assert got == mincut(cfg, ClusterOrder((0, 1, 1))).value


def test_mincut_by_location_monotone_for_published_configs():
    for k in (7, 8, 9):
        cfg = validate_config(
            n=13, k=k, L=3, R=4, E=1, d_cross=7, beta_intra=2, beta_cross=1, alpha=9
        )
        values = [mincut_by_location(cfg, j) for j in range(1, k + 1)]
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_min_alpha_examples():
    ws = weight_sequence(cfg_fig5(2), Variant.CSN_ONE_SEPARATE)
    assert min_alpha(ws, 6) == 2
    assert min_alpha(ws, 0) == 0
    assert min_alpha(ws, 8) == 3
    assert min_alpha(ws, 10) == 5  # saturation point: alpha = w_max
    with pytest.raises(Unstorable):
        min_alpha(ws, Fraction(21, 2))


def test_min_alpha_piecewise_boundaries():
    ws = WeightSequence(values=(Fraction(2), Fraction(3), Fraction(5)), variant=Variant.CSN_ONE_SEPARATE)
    # first segment closes at k*w1 = 6; the next opens just above
    assert min_alpha(ws, 6) == 2
    assert min_alpha(ws, Fraction(13, 2)) == Fraction(9, 4)
    # segment joints: capacity at alpha=3 is 2+3+3 = 8
    assert min_alpha(ws, 8) == 3
    # the capacity does not depend on the order of the weights
    shuffled = WeightSequence(values=ws.values[::-1], variant=ws.variant)
    assert min_alpha(shuffled, 8) == 3


@given(st.fractions(0, 10, max_denominator=8))
@settings(max_examples=80, deadline=None)
def test_min_alpha_inverts_capacity_exactly(size):
    ws = weight_sequence(cfg_fig5(2), Variant.CSN_ONE_SEPARATE)
    assume(size <= ws.total)
    alpha = min_alpha(ws, size)
    capacity = sum(min(alpha, w) for w in ws.values)
    assert capacity == size
    # minimality: any smaller alpha stores strictly less
    smaller = alpha - Fraction(1, 1000)
    if smaller >= 0:
        assert sum(min(smaller, w) for w in ws.values) < size


def test_tradeoff_curve_minimum_storage_point():
    nodes = NodeParams(n=5, k=3, L=2, R=2, E=1)
    result = tradeoff_curve(nodes, 3, 2, 6, [Fraction(1)])
    assert len(result.points) == 1
    point = result.points[0]
    assert (point.beta_cross, point.alpha_star, point.size) == (1, 2, 6)
    assert result.variant is Variant.CSN_ONE_SEPARATE


def test_tradeoff_curve_zero_size():
    nodes = NodeParams(n=5, k=3, L=2, R=2, E=1)
    result = tradeoff_curve(nodes, 3, 2, 0, [Fraction(1), Fraction(2)])
    assert [p.alpha_star for p in result.points] == [0, 0]


def test_tradeoff_curve_reports_unstorable_points():
    nodes = NodeParams(n=5, k=3, L=2, R=2, E=1)
    result = tradeoff_curve(nodes, 3, 2, 6, [Fraction(1, 2), Fraction(1)])
    assert result.unstorable == (Fraction(1, 2),)
    assert [p.beta_cross for p in result.points] == [1]


def test_tradeoff_curve_monotone_in_beta():
    nodes = NodeParams(n=13, k=7, L=3, R=4, E=1)
    grid = [Fraction(n, 4) for n in range(2, 13)]
    result = tradeoff_curve(nodes, 9, 2, 32, grid)
    alphas = [p.alpha_star for p in result.points]
    assert all(x >= y for x, y in zip(alphas, alphas[1:]))


@st.composite
def tradeoff_cases(draw):
    """A tradeoff query with E <= 1 whose grid also holds every
    beta_cross at which `size` sits exactly on a breakpoint B_i of the
    unit weights (b = size / B_i), saturation (b = size / P_k) among them."""
    L = draw(st.integers(2, 3))
    R = draw(st.integers(2, 4))
    E = draw(st.integers(0, 1))
    n = L * R + E
    k = draw(st.integers(2, n - 1))
    nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
    d_cross = draw(st.integers(max(0, k - R + 1), n - R))
    tau = draw(st.fractions(1, 4, max_denominator=5))
    size = draw(st.just(Fraction(0)) | st.fractions(0, 40, max_denominator=6))
    start = draw(st.fractions(Fraction(1, 20), 3, max_denominator=20))
    step = draw(st.fractions(Fraction(1, 20), 1, max_denominator=20))
    grid = [start + i * step for i in range(draw(st.integers(1, 6)))]
    unit = weight_values(k, E, R, d_cross, tau, Fraction(1))
    prefix = [sum(unit[:i], start=Fraction(0)) for i in range(k + 1)]
    breaks = [prefix[i - 1] + (k - i + 1) * unit[i - 1] for i in range(1, k + 1)]
    assert breaks[-1] == prefix[-1]
    if size > 0:
        grid += [size / b for b in breaks if b > 0]
    return nodes, d_cross, tau, size, grid


@given(tradeoff_cases())
@settings(max_examples=150, deadline=None)
def test_tradeoff_curve_matches_per_point_inversion(case):
    """One unit profile per curve gives what inverting the weights of
    every grid point does, exactly."""
    nodes, d_cross, tau, size, grid = case
    result = tradeoff_curve(nodes, d_cross, tau, size, grid)
    variant = Variant.CLUSTER_DSS if nodes.E == 0 else Variant.CSN_ONE_SEPARATE
    points, unstorable = [], []
    for b in grid:
        values = weight_values(nodes.k, nodes.E, nodes.R, d_cross, tau * b, b)
        try:
            alpha = min_alpha(WeightSequence(values=values, variant=variant), size)
        except Unstorable:
            assert sum(values) < size
            unstorable.append(b)
            continue
        assert sum(min(alpha, w) for w in values) == size
        points.append((b, alpha, size))
    assert [(p.beta_cross, p.alpha_star, p.size) for p in result.points] == points
    assert result.unstorable == tuple(unstorable)
    assert (result.variant, result.d_cross) == (variant, d_cross)


def test_tradeoff_curve_on_breakpoints_and_saturation():
    """size = 8 sits on the breakpoint B_2 = 8 of the fig. 5 weights
    (2, 3, 5) at beta_cross = 1, and on saturation P_3 = 10 at
    beta_cross = 4/5; a hair below 4/5 it cannot be stored."""
    nodes = NodeParams(n=5, k=3, L=2, R=2, E=1)
    assert weight_values(3, 1, 2, 3, Fraction(2), Fraction(1)) == (2, 3, 5)
    grid = [Fraction(1), Fraction(4, 5), Fraction(4, 5) - Fraction(1, 1000)]
    result = tradeoff_curve(nodes, 3, 2, 8, grid)
    assert [(p.beta_cross, p.alpha_star) for p in result.points] == [
        (Fraction(1), Fraction(3)),
        (Fraction(4, 5), Fraction(4)),
    ]
    assert result.unstorable == (Fraction(799, 1000),)


@pytest.mark.parametrize(
    "k, d_cross, expected",
    [
        (8, 7, Outcome.EQUAL),
        (9, 7, Outcome.REDUCED),
        (7, 6, Outcome.REDUCED),
    ],
)
def test_compare_separate_published_examples(k, d_cross, expected):
    nodes = NodeParams(n=12, k=k, L=3, R=4, E=0)
    repair = RepairParams(
        alpha=Fraction(10**6),
        d_intra=3,
        beta_intra=Fraction(2),
        d_cross=d_cross,
        beta_cross=Fraction(1),
    )
    verdict = compare_separate(nodes, repair)
    assert verdict.outcome is expected
    if expected is Outcome.REDUCED:
        assert verdict.capacity_with < verdict.capacity_without
    else:
        assert verdict.capacity_with == verdict.capacity_without


def test_compare_separate_capped_alpha_can_mask_reduction():
    # at alpha=0 both capacities are 0 regardless of divisibility
    nodes = NodeParams(n=12, k=9, L=3, R=4, E=0)
    repair = RepairParams(
        alpha=Fraction(0), d_intra=3, beta_intra=Fraction(2),
        d_cross=7, beta_cross=Fraction(1),
    )
    verdict = compare_separate(nodes, repair)
    assert verdict.outcome is Outcome.EQUAL


def test_compare_separate_rejects_a_base_with_separate_nodes():
    nodes = NodeParams(n=13, k=9, L=3, R=4, E=1)
    repair = RepairParams(
        alpha=Fraction(10), d_intra=3, beta_intra=Fraction(2),
        d_cross=7, beta_cross=Fraction(1),
    )
    with pytest.raises(ConfigError, match="^base system must have E=0, got E=1$"):
        compare_separate(nodes, repair)


@given(
    st.integers(2, 3), st.integers(2, 4), st.integers(0, 1), st.integers(2, 8),
    st.fractions(0, 20, max_denominator=4), st.fractions(0, 20, max_denominator=4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_capacity_monotone_in_alpha_and_bandwidth(L, R, E, k, alpha_lo, alpha_hi, data):
    """Capacity never decreases when alpha grows or when both bandwidths
    scale up together (beta_intra = tau * beta_cross)."""
    n = L * R + E
    assume(k <= n - 1)
    d_cross = data.draw(st.integers(max(0, k - R + 1), n - R))
    tau = data.draw(st.fractions(1, 3, max_denominator=3))
    beta_lo = data.draw(st.fractions(Fraction(1, 4), 4, max_denominator=4))
    beta_hi = beta_lo + data.draw(st.fractions(0, 4, max_denominator=4))
    if alpha_lo > alpha_hi:
        alpha_lo, alpha_hi = alpha_hi, alpha_lo

    def cap(alpha, beta_cross):
        cfg = validate_config(
            n=n, k=k, L=L, R=R, E=E, d_cross=d_cross,
            beta_intra=tau * beta_cross, beta_cross=beta_cross, alpha=alpha,
        )
        return system_capacity(cfg)

    assert cap(alpha_lo, beta_lo) <= cap(alpha_hi, beta_lo)
    assert cap(alpha_hi, beta_lo) <= cap(alpha_hi, beta_hi)


@given(
    st.integers(2, 3), st.integers(2, 4), st.integers(0, 1),
    st.integers(2, 8), st.data(),
)
@settings(max_examples=100, deadline=None)
def test_weight_sequence_sortedness_and_minimum(L, R, E, k, data):
    n = L * R + E
    assume(k <= n - 1)
    d_cross = data.draw(st.integers(max(0, k - R + 1), n - R))
    beta_cross = data.draw(st.fractions(Fraction(1, 3), 3, max_denominator=3))
    beta_intra = beta_cross + data.draw(st.fractions(0, 2, max_denominator=3))
    cfg = validate_config(
        n=n, k=k, L=L, R=R, E=E, d_cross=d_cross,
        beta_intra=beta_intra, beta_cross=beta_cross, alpha=1,
    )
    variant = Variant.CLUSTER_DSS if E == 0 else Variant.CSN_ONE_SEPARATE
    ws = weight_sequence(cfg, variant)
    assert list(ws.values) == sorted(ws.values)
    d = cfg.repair.d
    if variant is Variant.CSN_ONE_SEPARATE:
        # last repaired node is the separate one: all-cross helpers
        assert ws.values[0] == (d + 1 - k) * beta_cross
    elif k >= R:
        assert ws.values[0] == (d + 1 - k) * beta_cross
    else:
        # fewer selections than one cluster: the last repair still keeps
        # R-k intra helpers, so the minimum weight retains a beta_intra part
        assert ws.values[0] == (R - k) * beta_intra + d_cross * beta_cross


@pytest.mark.parametrize("E", [0, 1, 2, 3, 4])
def test_integer_capacity_equals_fraction_sum(E):
    """system_capacity sums on scaled integers; it equals the Fraction sum
    of min(alpha, w) over weight_values at every breakpoint and beyond
    saturation, on bandwidths scaled by 2/7."""
    scale = Fraction(2, 7)
    checked = 0
    for L, R in ((2, 2), (2, 3), (3, 2)):
        n = L * R + E
        for k in range(1, n):
            if k - min(E, k) > L * R:
                continue
            for d_cross in range(max(0, k - R + 1), n - R + 1):
                for bi, bc in ((1, 1), (2, 1), (3, 2)):
                    beta_i, beta_c = bi * scale, bc * scale
                    values = weight_values(k, E, R, d_cross, beta_i, beta_c)
                    saturated = sum(values, start=Fraction(0))
                    for alpha in sorted({Fraction(0), *values, saturated, saturated + scale}):
                        config = validate_config(
                            n=n, k=k, L=L, R=R, E=E, d_cross=d_cross,
                            beta_intra=beta_i, beta_cross=beta_c, alpha=alpha,
                        )
                        expected = sum((min(alpha, w) for w in values), start=Fraction(0))
                        assert system_capacity(config) == expected
                        checked += 1
    assert checked > 100
