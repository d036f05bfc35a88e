"""Closed-form capacity, sorted weight sequences, and the storage vs
repair-bandwidth tradeoff.

The capacity-achieving repair sequence yields k incoming weights whose
sorted values have piecewise closed forms in (k, R, d_cross, beta_intra,
beta_cross); capacity is sum(min(alpha, w*_i)).  Inverting that piecewise
linear function of alpha gives the minimum per-node storage for a target
file size.  Closed forms cover E in {0, 1}.  For any E, `lattice_capacity`
computes the exact capacity by dynamic programming over the selection
lattice: w_i depends only on the position i, on whether the node is
separate and on its within-cluster rank, so the min-cut is a shortest path
through the per-cluster selection counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .mincut import _coefficient, mincut
from .model import (
    BudgetExceeded,
    ClusterOrder,
    ConfigError,
    NodeParams,
    RationalLike,
    RepairParams,
    SelectedNodeDistribution,
    SystemConfig,
    _scaled_bandwidths,
    enumerate_distributions,
    parse_rational,
)
from .sequencing import (
    SeparatePositions,
    horizontal_selection,
    optimal_order_with_separate_at,
    vertical_order,
)


class UnsupportedE(ConfigError):
    """No closed form for this separate-node count."""


class Unstorable(ValueError):
    """Requested file size exceeds the saturated capacity sum(w*)."""


class Variant(enum.Enum):
    """Which system family a weight sequence describes."""

    CLUSTER_DSS = "ClusterDSS"
    CSN_ONE_SEPARATE = "CSN-OneSeparate"


@dataclass(frozen=True)
class WeightSequence:
    """The k sorted (ascending) incoming weights of the capacity-achieving
    repair sequence."""

    values: tuple[Fraction, ...]
    variant: Variant

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
    w = [Fraction(0)] * k
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


def csn_weight_values(
    k: int, R: int, d_cross: int, beta_intra: Fraction, beta_cross: Fraction
) -> tuple[Fraction, ...]:
    """Sorted weights with one separate selected node (pinned at the last
    position, which minimizes the min-cut).

    The separate node's weight (R + d_cross - k) * beta_cross is the
    smallest; the k - 1 cluster nodes before it weigh what a pure cluster
    system with k - 1 selected nodes does.
    """
    values = ((R + d_cross - k) * beta_cross,) + cluster_weight_values(
        k - 1, R, d_cross, beta_intra, beta_cross
    )
    assert all(x <= y for x, y in zip(values, values[1:])), "weights not ascending"
    return values


def weight_sequence(cfg: SystemConfig, variant: Variant) -> WeightSequence:
    """Closed-form sorted weight sequence for the requested variant."""
    nd, rp = cfg.nodes, cfg.repair
    if variant is Variant.CSN_ONE_SEPARATE and nd.E < 1:
        raise UnsupportedE("CSN-OneSeparate weights need E >= 1")
    fn = cluster_weight_values if variant is Variant.CLUSTER_DSS else csn_weight_values
    return WeightSequence(
        values=fn(nd.k, nd.R, rp.d_cross, rp.beta_intra, rp.beta_cross),
        variant=variant,
    )


def _variant_for(nodes: NodeParams) -> Variant:
    if nodes.E == 0:
        return Variant.CLUSTER_DSS
    if nodes.E == 1:
        return Variant.CSN_ONE_SEPARATE
    raise UnsupportedE(
        f"no closed form for E={nodes.E}; for E >= 2 only the capacity is exact "
        "(lattice_capacity)"
    )


def system_capacity(cfg: SystemConfig) -> Fraction:
    """Exact capacity: sum of min(alpha, w*_i) over the matching variant's
    weight sequence.  E must be 0 or 1."""
    ws = weight_sequence(cfg, _variant_for(cfg.nodes))
    alpha = cfg.repair.alpha
    return sum((min(alpha, w) for w in ws.values), start=Fraction(0))


def capacity_achiever(cfg: SystemConfig):
    """The (distribution, order) pair realizing system_capacity."""
    if cfg.nodes.E == 0:
        dist = horizontal_selection(cfg.nodes, 0)
        order = vertical_order(dist, SeparatePositions.none())
    else:
        dist = horizontal_selection(cfg.nodes, 1)
        order = optimal_order_with_separate_at(cfg.nodes, cfg.nodes.k)
    return dist, order


DEFAULT_STATE_BUDGET = 1_000_000  # lattice states per forward pass


def _moves(state: tuple[int, ...], caps: tuple[int, ...]):
    """(h, successor) for each way to add one node to a lattice state; h is
    the node's within-cluster rank, 0 for a separate node.

    state[0] counts the separate nodes and state[1:] the clusters, each at
    most its entry of caps.  Clusters with equal caps are interchangeable,
    so within a run of equal caps the counts stay non-increasing and only
    the first of equal counts grows.
    """
    if state[0] < caps[0]:
        yield 0, (state[0] + 1,) + state[1:]
    for j in range(1, len(state)):
        c = state[j]
        if c < caps[j] and not (j > 1 and caps[j - 1] == caps[j] and state[j - 1] == c):
            yield c + 1, state[:j] + (c + 1,) + state[j + 1 :]


def _layers(caps: tuple[int, ...], cost: list[list[int]], k: int, budget: int):
    """Layers 0..k of the lattice under `caps`: layer i maps each state of
    i selected nodes to the least cut over the paths reaching it.  Raises
    BudgetExceeded once more than `budget` states have been created."""
    layer = {(0,) * len(caps): 0}
    created = 1
    yield layer
    for i in range(1, k + 1):
        row = cost[i]
        nxt: dict[tuple[int, ...], int] = {}
        for state, value in layer.items():
            for h, succ in _moves(state, caps):
                v = value + row[h]
                old = nxt.get(succ)
                if old is None:
                    created += 1
                    if created > budget:
                        raise BudgetExceeded(created, budget, "lattice states")
                    nxt[succ] = v
                elif v < old:
                    nxt[succ] = v
        layer = nxt
        yield layer


def _canonical(counts: list[int], caps: tuple[int, ...]) -> tuple[int, ...]:
    """The lattice state of per-label counts: counts sorted descending
    within each run of equal caps."""
    out = [counts[0]]
    for _, run in groupby(zip(caps[1:], counts[1:]), key=itemgetter(0)):
        out.extend(sorted((c for _, c in run), reverse=True))
    return tuple(out)


def _first_order(
    dist: SelectedNodeDistribution, cost: list[list[int]], best: int, budget: int
) -> tuple[int, ...]:
    """Lexicographically first labels (separate node last) of a repair
    sequence of `dist` whose cut is `best`, the least over its orders."""
    caps = (dist.separate,) + dist.clusters
    layers = list(_layers(caps, cost, dist.k, budget))
    remaining = dict.fromkeys(layers[-1], 0)  # least cut from a state to dist
    for i in range(len(layers) - 1, 0, -1):
        row = cost[i]
        for state in layers[i - 1]:
            remaining[state] = min(row[h] + remaining[succ] for h, succ in _moves(state, caps))
    counts = [0] * len(caps)  # counts[0]: separate nodes; counts[j]: cluster j
    spent = 0
    labels = []
    for i in range(1, dist.k + 1):
        for label in (*range(1, len(caps)), 0):
            if counts[label] == caps[label]:
                continue
            step = cost[i][counts[label] + 1 if label else 0]
            counts[label] += 1
            if spent + step + remaining[_canonical(counts, caps)] == best:
                spent += step
                labels.append(label)
                break
            counts[label] -= 1
    return tuple(labels)


def lattice_capacity(
    cfg: SystemConfig, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[Fraction, SelectedNodeDistribution, ClusterOrder]:
    """Exact capacity for any E, with the achieving distribution and order.

    A forward pass over the selection lattice adds one node per layer at
    cost min(alpha, w_i) on scaled integers; layer k holds the least cut
    of every distribution.  The reported argmin is the exhaustive scan's:
    the first minimizing distribution in enumeration order and its
    lexicographically first minimizing order, separate label last.  Each
    pass creates at most `budget` states, else BudgetExceeded.
    """
    nd, rp = cfg.nodes, cfg.repair
    scale, alpha, beta_intra, beta_cross = _scaled_bandwidths(cfg)

    def cut(i: int, h: int) -> int:
        a, b, _ = _coefficient(i, h, h == 0, rp.d_intra, rp.d_cross)
        return min(alpha, a * beta_intra + b * beta_cross)

    # cost[i][h]: the cut at position i for within-cluster rank h, 0 for a
    # separate node
    cost = [[]] + [[cut(i, h) for h in range(nd.R + 1)] for i in range(1, nd.k + 1)]
    for final in _layers((nd.E,) + (nd.R,) * nd.L, cost, nd.k, budget):
        pass
    best = min(final.values())
    dist = next(
        d for d in enumerate_distributions(nd) if final[(d.separate,) + d.clusters] == best
    )
    order = ClusterOrder(labels=_first_order(dist, cost, best, budget))
    return Fraction(best, scale), dist, order


def mincut_by_location(cfg: SystemConfig, j: int) -> Fraction:
    """Min-cut of the optimal sequence with the separate node at position
    j; non-increasing in j."""
    if cfg.nodes.E < 1:
        raise ConfigError("separate-node location sweep needs E >= 1")
    order = optimal_order_with_separate_at(cfg.nodes, j)
    return mincut(cfg, order).value


def min_alpha(weights: WeightSequence, size: RationalLike) -> Fraction:
    """Least per-node storage alpha with capacity >= size.

    Piecewise inversion of C(alpha) = sum(min(alpha, w*_i)): on the segment
    alpha in [w*_{i-1}, w*_i] the capacity is sum_{j<i} w*_j + (k-i+1)*alpha.
    The first segment covers size in [0, k*w*_1].
    """
    size = parse_rational(size)
    if size < 0:
        raise ValueError(f"size={size} must be >= 0")
    values = weights.values
    k = len(values)
    prefix = Fraction(0)
    for i, w in enumerate(values, start=1):
        # capacity at alpha = w is prefix + (k - i + 1) * w
        if size <= prefix + (k - i + 1) * w:
            return (size - prefix) / (k - i + 1)
        prefix += w
    raise Unstorable(f"size={size} exceeds saturated capacity {prefix}")


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the storage/bandwidth tradeoff: the minimum alpha that
    stores `size` at cross-cluster bandwidth beta_cross."""

    beta_cross: Fraction
    alpha_star: Fraction
    size: Fraction


@dataclass(frozen=True)
class TradeoffResult:
    points: tuple[TradeoffPoint, ...]
    unstorable: tuple[Fraction, ...]  # grid values whose capacity saturates below size
    variant: Variant
    d_cross: int


def tradeoff_curve(
    nodes: NodeParams,
    d_cross: int,
    tau: RationalLike,
    size: RationalLike,
    grid: list[Fraction],
) -> TradeoffResult:
    """Minimum-storage curve over a beta_cross grid with beta_intra =
    tau * beta_cross; grid points that cannot store `size` at all are
    omitted and reported."""
    tau = parse_rational(tau)
    size = parse_rational(size)
    if tau < 1:
        raise ConfigError(f"tau={tau} must be >= 1 (intra at least as wide as cross)")
    variant = _variant_for(nodes)
    lo, hi = nodes.k - nodes.R + 1, nodes.n - nodes.R
    if d_cross < 0 or not lo <= d_cross <= hi:
        raise ConfigError(f"d_cross={d_cross} outside [{lo}, {hi}]")
    fn = cluster_weight_values if variant is Variant.CLUSTER_DSS else csn_weight_values
    points = []
    unstorable = []
    for beta_cross in grid:
        if beta_cross <= 0:
            raise ConfigError(f"grid value {beta_cross} must be positive")
        ws = WeightSequence(
            values=fn(nodes.k, nodes.R, d_cross, tau * beta_cross, beta_cross),
            variant=variant,
        )
        try:
            alpha_star = min_alpha(ws, size)
        except Unstorable:
            unstorable.append(beta_cross)
            continue
        points.append(TradeoffPoint(beta_cross=beta_cross, alpha_star=alpha_star, size=size))
    return TradeoffResult(
        points=tuple(points),
        unstorable=tuple(unstorable),
        variant=variant,
        d_cross=d_cross,
    )


class Outcome(enum.Enum):
    EQUAL = "Equal"
    REDUCED = "Reduced"


@dataclass(frozen=True)
class ComparisonVerdict:
    """Effect of adding one separate node to a cluster system at the
    supplied alpha."""

    outcome: Outcome
    capacity_without: Fraction
    capacity_with: Fraction


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
