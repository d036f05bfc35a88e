"""Construction of capacity-achieving selections and repair sequences.

Two greedy constructions together achieve the system capacity:

* horizontal selection fills whole clusters first, so the selected nodes
  occupy as few clusters as possible;
* vertical ordering repairs the selected nodes column by column, cycling
  through the non-exhausted clusters, so same-cluster repairs are spread
  as far apart as possible.

Separate selected nodes occupy pre-fixed positions in the sequence and
the cluster labels cycle around them.

The selection and the orders depend only on their arguments (node
layout, distribution, separate positions), never on alpha or the
bandwidths, so each function caches its immutable result under them.
"""

from __future__ import annotations

from functools import lru_cache

from .model import ClusterOrder, ConfigError, NodeParams, Record, SelectedNodeDistribution


class SeparatePositions(Record):
    """1-based sequence positions reserved for separate selected nodes."""

    __slots__ = ("positions",)

    def __init__(self, positions: tuple[int, ...]) -> None:
        object.__setattr__(self, "positions", tuple(sorted(positions)))
        if len(set(self.positions)) != len(self.positions):
            raise ConfigError(f"duplicate separate positions {self.positions}")

    @classmethod
    def none(cls) -> "SeparatePositions":
        return cls(positions=())


@lru_cache(maxsize=256)
def horizontal_selection(nodes: NodeParams, s0: int) -> SelectedNodeDistribution:
    """Select s0 separate nodes and fill clusters with R selected nodes
    each until k - s0 are placed; the next cluster takes the remainder, the
    rest stay empty."""
    if not 0 <= s0 <= min(nodes.E, nodes.k):
        raise ConfigError(f"s0={s0} outside 0..min(E, k)={min(nodes.E, nodes.k)}")
    remaining = nodes.k - s0
    if remaining > nodes.L * nodes.R:
        raise ConfigError(f"cannot place {remaining} selected nodes in {nodes.L}x{nodes.R}")
    full = remaining // nodes.R
    counts = [0] * nodes.L
    for i in range(full):
        counts[i] = nodes.R
    if full < nodes.L:
        counts[full] = remaining - full * nodes.R
    return SelectedNodeDistribution(separate=s0, clusters=tuple(counts))


@lru_cache(maxsize=1024)
def vertical_order(
    dist: SelectedNodeDistribution, sep: SeparatePositions | None = None
) -> ClusterOrder:
    """Assign cluster labels by cycling 1..L, skipping exhausted clusters;
    positions listed in `sep` receive the separate label 0."""
    sep = sep or SeparatePositions.none()
    if len(sep.positions) != dist.separate:
        raise ConfigError(
            f"{len(sep.positions)} separate positions but distribution has {dist.separate}"
        )
    k = dist.k
    if any(not 1 <= p <= k for p in sep.positions):
        raise ConfigError(f"separate positions {sep.positions} outside 1..{k}")
    remaining = list(dist.clusters)
    L = len(remaining)
    sep_set = set(sep.positions)
    labels = []
    j = 0  # 0-based cluster cursor
    for i in range(1, k + 1):
        if i in sep_set:
            labels.append(0)
            continue
        # advance cyclically past exhausted clusters (never loops: the
        # non-separate positions equal the total cluster count)
        while remaining[j] == 0:
            j = (j + 1) % L
        labels.append(j + 1)
        remaining[j] -= 1
        j = (j + 1) % L
    return ClusterOrder(labels=tuple(labels))


@lru_cache(maxsize=512)
def optimal_order_with_separate_at(nodes: NodeParams, j: int) -> ClusterOrder:
    """The capacity-candidate sequence with one separate selected node
    pinned at position j; its min-cut is non-increasing in j, so j = k
    achieves the system capacity."""
    if nodes.E < 1:
        raise ConfigError("needs at least one separate node (E >= 1)")
    if not 1 <= j <= nodes.k:
        raise ConfigError(f"position j={j} outside 1..{nodes.k}")
    dist = horizontal_selection(nodes, 1)
    return vertical_order(dist, SeparatePositions(positions=(j,)))
