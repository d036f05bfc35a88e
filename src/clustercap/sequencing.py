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
bandwidths, so each function caches its immutable result under them:
the public function passes the fields of its records, as plain ints and
int tuples, to a private cached one.
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


def horizontal_selection(nodes: NodeParams, s0: int) -> SelectedNodeDistribution:
    """Select s0 separate nodes and fill clusters with R selected nodes
    each until k - s0 are placed; the next cluster takes the remainder, the
    rest stay empty."""
    return _horizontal_selection(nodes.k, nodes.L, nodes.R, nodes.E, s0)


@lru_cache(maxsize=256)
def _horizontal_selection(k: int, L: int, R: int, E: int, s0: int) -> SelectedNodeDistribution:
    """`horizontal_selection` in the layout with these fields."""
    if not 0 <= s0 <= min(E, k):
        raise ConfigError(f"s0={s0} outside 0..min(E, k)={min(E, k)}")
    remaining = k - s0
    if remaining > L * R:
        raise ConfigError(f"cannot place {remaining} selected nodes in {L}x{R}")
    full = remaining // R
    counts = [0] * L
    for i in range(full):
        counts[i] = R
    if full < L:
        counts[full] = remaining - full * R
    return SelectedNodeDistribution(separate=s0, clusters=tuple(counts))


def vertical_order(
    dist: SelectedNodeDistribution, sep: SeparatePositions | None = None
) -> ClusterOrder:
    """Assign cluster labels by cycling 1..L, skipping exhausted clusters;
    positions listed in `sep` receive the separate label 0.  No `sep` and
    `SeparatePositions.none()` share one cache entry."""
    return _vertical_order(dist.separate, dist.clusters, () if sep is None else sep.positions)


@lru_cache(maxsize=1024)
def _vertical_order(
    separate: int, clusters: tuple[int, ...], positions: tuple[int, ...]
) -> ClusterOrder:
    """`vertical_order` of the distribution with these fields, the
    separate nodes at `positions` (sorted, distinct)."""
    if len(positions) != separate:
        raise ConfigError(
            f"{len(positions)} separate positions but distribution has {separate}"
        )
    k = separate + sum(clusters)
    if any(not 1 <= p <= k for p in positions):
        raise ConfigError(f"separate positions {positions} outside 1..{k}")
    remaining = list(clusters)
    L = len(remaining)
    sep_set = set(positions)
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


def optimal_order_with_separate_at(nodes: NodeParams, j: int) -> ClusterOrder:
    """The capacity-candidate sequence with one separate selected node
    pinned at position j; its min-cut is non-increasing in j, so j = k
    achieves the system capacity."""
    return _optimal_order_with_separate_at(nodes.k, nodes.L, nodes.R, nodes.E, j)


@lru_cache(maxsize=512)
def _optimal_order_with_separate_at(k: int, L: int, R: int, E: int, j: int) -> ClusterOrder:
    """`optimal_order_with_separate_at` in the layout with these fields."""
    if E < 1:
        raise ConfigError("needs at least one separate node (E >= 1)")
    if not 1 <= j <= k:
        raise ConfigError(f"position j={j} outside 1..{k}")
    dist = _horizontal_selection(k, L, R, E, 1)
    return _vertical_order(1, dist.clusters, (j,))
