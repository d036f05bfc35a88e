"""Part-cut calculus: per-position incoming weights and the min-cut value
of a repair sequence.

Cutting the k selected newcomers one at a time in topological order, the
i-th position contributes min(alpha, w_i), where w_i counts the capacity
of helper edges arriving from not-yet-cut nodes.  Under the worst-case
wiring (each newcomer connects to all previous newcomers first), the
weights have a closed form in the relative location h_i of the node
within its own cluster's selection order:

  cluster node:  w_i = (d_intra + 1 - h_i) * beta_intra
                       + max(d_cross - (i - h_i), 0) * beta_cross
  separate node: w_i = (d - i + 1) * beta_cross

The cross-cluster coefficient floors at zero: once more than d_cross
previous newcomers sit outside the node's cluster, every cross edge comes
from an already-cut node.  The intra coefficient never floors because
d_intra = R - 1 bounds h_i <= d_intra + 1; this is asserted, not clamped.
"""

from __future__ import annotations

from fractions import Fraction

from .model import ClusterOrder, Record, SystemConfig, _fraction, _scaled_bandwidths

WeightVector = tuple[Fraction, ...]


class CutReport(Record):
    """Min-cut value with the weights behind it; capped[i] is True where
    alpha (not w_i) was the minimum at position i."""

    __slots__ = ("value", "weights", "capped")

    def __init__(self, value: Fraction, weights: WeightVector, capped: tuple[bool, ...]) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "capped", capped)


def relative_location(order: ClusterOrder) -> tuple[int, ...]:
    """h_i = how many of the first i entries share position i's label
    (separate entries are counted among themselves)."""
    return tuple(_locations(order.labels))


def _locations(labels: tuple[int, ...]) -> list[int]:
    """`relative_location` of a label sequence: the one count of h_i that
    the coefficients, the label check and the flow-graph wiring read."""
    seen: dict[int, int] = {}
    out = []
    for label in labels:
        seen[label] = h = seen.get(label, 0) + 1
        out.append(h)
    return out


def _coefficient(
    i: int, h: int, is_separate: bool, d_intra: int, d_cross: int
) -> tuple[int, int, bool]:
    """(beta_intra coeff, beta_cross coeff, is_separate) of the node at
    position i whose within-cluster rank is h (h is unused for a separate
    node)."""
    if is_separate:
        return 0, d_intra + d_cross - i + 1, True
    a = d_intra + 1 - h
    assert a >= 0, f"intra coefficient negative at position {i} (h={h})"
    b = d_cross - (i - h)
    return a, (b if b > 0 else 0), False


def incoming_coefficients(
    d_intra: int, d_cross: int, order: ClusterOrder
) -> tuple[tuple[int, int, bool], ...]:
    """Per-position (beta_intra coeff, beta_cross coeff, is_separate).

    Separate positions fold into the same shape with a zero intra
    coefficient and cross coefficient d - i + 1.
    """
    labels = order.labels
    return tuple(
        _coefficient(i, h, label == 0, d_intra, d_cross)
        for i, (label, h) in enumerate(zip(labels, _locations(labels)), start=1)
    )


def _check_labels(labels: tuple[int, ...], k: int, L: int, R: int, E: int) -> list[int]:
    """The relative locations (`_locations`) of `labels`, once checked to
    be a repair sequence of the layout: k entries, cluster labels at most
    L, at most R nodes of each cluster and at most E separate nodes.
    Raise ValueError otherwise."""
    if len(labels) != k:
        raise ValueError(f"order has {len(labels)} entries, config has k={k}")
    locations = _locations(labels)
    for label, h in zip(labels, locations):
        if label == 0:
            if h > E:
                raise ValueError(f"order selects {h} separate nodes but E={E}")
        elif label > L:
            raise ValueError(f"cluster label exceeds L={L} in {ClusterOrder(labels)}")
        elif h > R:
            raise ValueError(f"order selects {h} nodes from cluster {label} but R={R}")
    return locations


def _weights(cfg: SystemConfig, order: ClusterOrder, beta_i: Fraction, beta_c: Fraction) -> list:
    """The incoming weight of each position of a repair sequence at the
    given bandwidths, once its labels are checked against the layout of
    `cfg` (`_check_labels`)."""
    nd, rp = cfg.nodes, cfg.repair
    labels = order.labels
    locations = _check_labels(labels, nd.k, nd.L, nd.R, nd.E)
    weights = []
    for i, (label, h) in enumerate(zip(labels, locations), start=1):
        a, b, _ = _coefficient(i, h, label == 0, rp.d_intra, rp.d_cross)
        weights.append(a * beta_i + b * beta_c)
    return weights


def part_incoming_weights(cfg: SystemConfig, order: ClusterOrder) -> WeightVector:
    """The k incoming weights of a repair sequence, in sequence order."""
    rp = cfg.repair
    return tuple(_weights(cfg, order, rp.beta_intra, rp.beta_cross))


def _scaled_cut(cfg: SystemConfig, order: ClusterOrder) -> tuple[int, int, int, list[int]]:
    """(scale, alpha, cut, weights) of a repair sequence with the
    bandwidths cleared to integers by `scale`: the cut is
    sum(min(alpha, w_i)) over the scaled weights, in sequence order."""
    scale, alpha, beta_intra, beta_cross = _scaled_bandwidths(cfg)
    weights = _weights(cfg, order, beta_intra, beta_cross)
    return scale, alpha, sum([alpha if alpha < w else w for w in weights]), weights


def mincut(cfg: SystemConfig, order: ClusterOrder) -> CutReport:
    """The part-cut of `order`: sum of min(alpha, w_i) over the k
    positions, summed on scaled integers.  It is one cut of the flow
    graph that `order` induces, not always its least: the max-flow of
    that graph (`oracle.ifg_mincut`) falls below it on 10 of the 1,000
    triples of `oracle.sample_sweep_triples(1000, seed=0)` (40 against 42
    on one of them).  The two agree at capacity-achieving orders."""
    scale, alpha, cut, weights = _scaled_cut(cfg, order)
    fractions = tuple([_fraction(w, scale) for w in weights])
    return CutReport(_fraction(cut, scale), fractions, tuple([alpha < w for w in weights]))
