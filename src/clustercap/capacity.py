"""Closed-form capacity, sorted weight sequences, and the storage vs
repair-bandwidth tradeoff.

The capacity-achieving repair sequence yields k incoming weights whose
sorted values have piecewise closed forms in (k, E, R, d_cross,
beta_intra, beta_cross); capacity is sum(min(alpha, w*_i)).  For any E the
achiever repairs min(E, k) separate nodes last, after the cluster-only
construction for the remaining nodes.  Inverting that piecewise linear
function of alpha gives the minimum per-node storage for a target file
size.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .mincut import _scaled_cut
from .model import (
    ConfigError,
    NodeParams,
    RationalLike,
    Record,
    RepairParams,
    SystemConfig,
    _check_d_cross,
    _fraction,
    _scaled_bandwidths,
    parse_rational,
)
from .sequencing import (
    _horizontal_selection,
    _vertical_order,
    optimal_order_with_separate_at,
)


class UnsupportedE(ConfigError):
    """The tradeoff curve supports only E <= 1 for now."""


class Unstorable(ValueError):
    """Requested file size exceeds the saturated capacity sum(w*)."""


class Variant(enum.Enum):
    """Which system family a weight sequence describes."""

    CLUSTER_DSS = "ClusterDSS"
    CSN_ONE_SEPARATE = "CSN-OneSeparate"


class WeightSequence(Record):
    """The k sorted (ascending) incoming weights of the capacity-achieving
    repair sequence."""

    __slots__ = ("values", "variant")

    def __init__(self, values: tuple[Fraction, ...], variant: Variant) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variant", variant)

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def total(self) -> Fraction:
        return sum(self.values, start=Fraction(0))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def cluster_weight_values(
    k: int, R: int, d_cross: int, beta_intra: Fraction, beta_cross: Fraction
) -> tuple[Fraction, ...]:
    """Sorted weights for a pure cluster system (no separate selected node).

    Index i below runs over the sequence positions of the achieving order;
    the result is stored at k - i + 1 so it comes out ascending.
    """
    q = k // R
    m = q + 1
    first = m * (k - q * R)
    w = [0] * k
    for i in range(1, k + 1):
        if i <= first:
            c = _ceil_div(i, m)
            a, b = R - c, d_cross - i + c
        else:
            f = (k - i) // q
            a, b = f, d_cross + R - i - f
        assert a >= 0 and b >= 0, f"negative coefficient at i={i}: a={a} b={b}"
        w[k - i] = a * beta_intra + b * beta_cross
    values = tuple(w)
    assert all(x <= y for x, y in zip(values, values[1:])), "weights not ascending"
    return values


@lru_cache(maxsize=4096, typed=True)
def weight_values(
    k: int, E: int, R: int, d_cross: int, beta_intra: Fraction, beta_cross: Fraction
) -> tuple[Fraction, ...]:
    """Sorted weights of the capacity-achieving sequence with E separate
    nodes: s = min(E, k) of them are selected and repaired last.  Cached
    per argument types as well as values, so integer bandwidths give
    integer weights and Fraction bandwidths Fraction weights.

    The separate node at position i weighs (R + d_cross - i) * beta_cross,
    so the tail i = k, ..., k-s+1 comes first in ascending order; the k - s
    cluster nodes before it weigh what a pure cluster system with k - s
    selected nodes does.
    """
    s = min(E, k)
    values = tuple((R + d_cross - i) * beta_cross for i in range(k, k - s, -1))
    values += cluster_weight_values(k - s, R, d_cross, beta_intra, beta_cross)
    assert all(x <= y for x, y in zip(values, values[1:])), "weights not ascending"
    return values


def csn_weight_values(
    k: int, R: int, d_cross: int, beta_intra: Fraction, beta_cross: Fraction
) -> tuple[Fraction, ...]:
    """Sorted weights with one separate selected node (pinned at the last
    position, which minimizes the min-cut)."""
    return weight_values(k, 1, R, d_cross, beta_intra, beta_cross)


def weight_sequence(cfg: SystemConfig, variant: Variant) -> WeightSequence:
    """Closed-form sorted weight sequence for the requested variant."""
    nd, rp = cfg.nodes, cfg.repair
    if variant is Variant.CSN_ONE_SEPARATE and nd.E < 1:
        raise UnsupportedE("CSN-OneSeparate weights need E >= 1")
    E = 0 if variant is Variant.CLUSTER_DSS else 1
    return WeightSequence(
        values=weight_values(nd.k, E, nd.R, rp.d_cross, rp.beta_intra, rp.beta_cross),
        variant=variant,
    )


def _variant_for(nodes: NodeParams) -> Variant:
    if nodes.E == 0:
        return Variant.CLUSTER_DSS
    if nodes.E == 1:
        return Variant.CSN_ONE_SEPARATE
    raise UnsupportedE(f"tradeoff supports only E <= 1 for now, got E={nodes.E}")


def system_capacity(cfg: SystemConfig) -> Fraction:
    """Exact capacity for any E: sum of min(alpha, w*_i) over the sorted
    weights of the sequence with min(E, k) separate nodes last, summed on
    the bandwidths cleared to integers and divided once by their scale."""
    nd, rp = cfg.nodes, cfg.repair
    scale, alpha, beta_intra, beta_cross = _scaled_bandwidths(cfg)
    values = weight_values(nd.k, nd.E, nd.R, rp.d_cross, beta_intra, beta_cross)
    return _fraction(sum([alpha if alpha < w else w for w in values]), scale)


def capacity_achiever(cfg: SystemConfig):
    """The (distribution, order) pair realizing system_capacity: horizontal
    selection of the cluster nodes, vertical order, separate nodes last."""
    nd = cfg.nodes
    return _layout_achiever(nd.k, nd.L, nd.R, nd.E)


def _layout_achiever(k: int, L: int, R: int, E: int):
    """capacity_achiever of any config with the node layout of these
    fields: the pair does not depend on the repair parameters."""
    s = min(E, k)
    dist = _horizontal_selection(k, L, R, E, s)
    return dist, _vertical_order(s, dist.clusters, tuple(range(k - s + 1, k + 1)))


def mincut_by_location(cfg: SystemConfig, j: int) -> Fraction:
    """Min-cut of the optimal sequence with the separate node at position
    j; non-increasing in j."""
    if cfg.nodes.E < 1:
        raise ConfigError("separate-node location sweep needs E >= 1")
    scale, _, cut, _ = _scaled_cut(cfg, optimal_order_with_separate_at(cfg.nodes, j))
    return _fraction(cut, scale)


def _inversion_table(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Prefix sums P_0..P_k and breakpoints B_1..B_k of ascending integer
    weights w_1..w_k.

    B_i = P_{i-1} + (k-i+1)*w_i is C(alpha) = sum(min(alpha, w_j)) at
    alpha = w_i, so the least alpha storing a size lies on segment
    [w_{i-1}, w_i] of the first i with size <= B_i.  B_{i+1} - B_i =
    (k-i)*(w_{i+1} - w_i) >= 0, so the breakpoints are non-decreasing,
    and B_k = P_k is the saturated capacity.
    """
    k = len(values)
    prefix = [0]
    breaks = []
    for i, w in enumerate(values):
        breaks.append(prefix[i] + (k - i) * w)
        prefix.append(prefix[i] + w)
    return prefix, breaks


def _invert(
    table: tuple[list[int], list[int]], size: Fraction, scale_num: int, scale_den: int
) -> Fraction | None:
    """Least alpha with sum(min(alpha, s*w_i)) >= size, where s =
    scale_num/scale_den > 0 and `table` is _inversion_table(w); None when
    size exceeds the saturated capacity s*P_k.

    The weights s*w give the breakpoints s*B_i, so the segment is the first
    i with B_i >= size/s, or B_i >= ceil(size/s) since B_i is an integer;
    on it alpha = (size - s*P_{i-1}) / (k-i+1).
    """
    prefix, breaks = table
    m, d = size.numerator, size.denominator
    i = bisect_left(breaks, -(-m * scale_den // (d * scale_num)))
    if i == len(breaks):
        return None
    return Fraction(
        m * scale_den - scale_num * prefix[i] * d, d * scale_den * (len(breaks) - i)
    )


def _check_size(size: Fraction) -> None:
    if size < 0:
        raise ValueError(f"size={size} must be >= 0")


def min_alpha(weights: WeightSequence, size: RationalLike) -> Fraction:
    """Least per-node storage alpha with capacity >= size.

    Piecewise inversion of C(alpha) = sum(min(alpha, w*_i)): on the segment
    alpha in [w*_{i-1}, w*_i] the capacity is sum_{j<i} w*_j + (k-i+1)*alpha.
    The first segment covers size in [0, k*w*_1].  The weights are cleared
    to integers by their common denominator D and inverted at scale 1/D;
    C does not depend on their order, so they are sorted first.
    """
    size = parse_rational(size)
    _check_size(size)
    scale = lcm(*(w.denominator for w in weights.values))
    table = _inversion_table(
        sorted(w.numerator * (scale // w.denominator) for w in weights.values)
    )
    alpha = _invert(table, size, 1, scale)
    if alpha is None:
        raise Unstorable(
            f"size={size} exceeds saturated capacity {Fraction(table[0][-1], scale)}"
        )
    return alpha


class TradeoffPoint(Record):
    """One point of the storage/bandwidth tradeoff: the minimum alpha that
    stores `size` at cross-cluster bandwidth beta_cross."""

    __slots__ = ("beta_cross", "alpha_star", "size")

    def __init__(self, beta_cross: Fraction, alpha_star: Fraction, size: Fraction) -> None:
        object.__setattr__(self, "beta_cross", beta_cross)
        object.__setattr__(self, "alpha_star", alpha_star)
        object.__setattr__(self, "size", size)


class TradeoffResult(Record):
    __slots__ = ("points", "unstorable", "variant", "d_cross")

    def __init__(
        self,
        points: tuple[TradeoffPoint, ...],
        unstorable: tuple[Fraction, ...],  # grid values whose capacity saturates below size
        variant: Variant,
        d_cross: int,
    ) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "unstorable", unstorable)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "d_cross", d_cross)


def tradeoff_curve(
    nodes: NodeParams,
    d_cross: int,
    tau: RationalLike,
    size: RationalLike,
    grid: list[Fraction],
) -> TradeoffResult:
    """Minimum-storage curve over a beta_cross grid with beta_intra =
    tau * beta_cross; grid points that cannot store `size` at all are
    omitted and reported.

    Every weight is linear in beta_cross, so alpha*(size; b*u) =
    b * alpha*(size/b; u) and one inversion table of the unit weights u
    serves the whole grid."""
    tau = parse_rational(tau)
    size = parse_rational(size)
    if tau < 1:
        raise ConfigError(f"tau={tau} must be >= 1 (intra at least as wide as cross)")
    variant = _variant_for(nodes)
    _check_d_cross(nodes, d_cross)
    for beta_cross in grid:
        if beta_cross <= 0:
            raise ConfigError(f"grid value {beta_cross} must be positive")
    _check_size(size)
    # the weights at beta_cross = b are b/t times the integer weights at
    # (beta_intra, beta_cross) = (tau*t, t), t the denominator of tau
    t = tau.denominator
    table = _inversion_table(
        weight_values(nodes.k, nodes.E, nodes.R, d_cross, tau.numerator, t)
    )
    points = []
    unstorable = []
    for beta_cross in grid:
        alpha_star = _invert(table, size, beta_cross.numerator, beta_cross.denominator * t)
        if alpha_star is None:
            unstorable.append(beta_cross)
        else:
            points.append(
                TradeoffPoint(beta_cross=beta_cross, alpha_star=alpha_star, size=size)
            )
    return TradeoffResult(
        points=tuple(points),
        unstorable=tuple(unstorable),
        variant=variant,
        d_cross=d_cross,
    )


class Outcome(enum.Enum):
    EQUAL = "Equal"
    REDUCED = "Reduced"


class ComparisonVerdict(Record):
    """Effect of adding one separate node to a cluster system at the
    supplied alpha."""

    __slots__ = ("outcome", "capacity_without", "capacity_with")

    def __init__(
        self, outcome: Outcome, capacity_without: Fraction, capacity_with: Fraction
    ) -> None:
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "capacity_without", capacity_without)
        object.__setattr__(self, "capacity_with", capacity_with)


def compare_separate(nodes: NodeParams, repair: RepairParams) -> ComparisonVerdict:
    """Compare a cluster system (E=0) against the same system plus one
    separate node, identical storage/repair parameters.

    At uncapped alpha the verdict follows the divisibility of k by R:
    equal capacity iff R | k (or the bandwidths are homogeneous).
    """
    if nodes.E != 0:
        raise ConfigError(f"base system must have E=0, got E={nodes.E}")
    base = SystemConfig(nodes=nodes, repair=repair)
    augmented = SystemConfig(
        nodes=NodeParams(n=nodes.n + 1, k=nodes.k, L=nodes.L, R=nodes.R, E=1),
        repair=repair,
    )
    without = system_capacity(base)
    with_sep = system_capacity(augmented)
    assert with_sep <= without, "adding a separate node must not raise capacity"
    outcome = Outcome.EQUAL if with_sep == without else Outcome.REDUCED
    return ComparisonVerdict(
        outcome=outcome, capacity_without=without, capacity_with=with_sep
    )
