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
from functools import lru_cache

from .model import ClusterOrder, Record, SystemConfig, _scaled_bandwidths

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


def _coefficients(
    labels: tuple[int, ...], locations: list[int], d_intra: int, d_cross: int
) -> tuple[tuple[int, int, bool], ...]:
    """Per-position (beta_intra coeff, beta_cross coeff, is_separate) of a
    label sequence in which 0 marks the separate nodes, given its relative
    locations (`_locations`)."""
    return tuple(
        _coefficient(i, h, label == 0, d_intra, d_cross)
        for i, (label, h) in enumerate(zip(labels, locations), start=1)
    )


def incoming_coefficients(
    d_intra: int, d_cross: int, order: ClusterOrder
) -> tuple[tuple[int, int, bool], ...]:
    """Per-position (beta_intra coeff, beta_cross coeff, is_separate).

    Separate positions fold into the same shape with a zero intra
    coefficient and cross coefficient d - i + 1.
    """
    return _coefficients(order.labels, _locations(order.labels), d_intra, d_cross)


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


@lru_cache(maxsize=16384)
def _order_coefficients(
    labels: tuple[int, ...], k: int, L: int, R: int, E: int, d_intra: int, d_cross: int
) -> tuple[int, ...]:
    """(a_1, b_1, ..., a_k, b_k): the beta_intra and beta_cross
    coefficients of each position of a repair sequence, once `labels` is
    checked against the layout.  A rejected sequence caches nothing, so
    it is rejected again on every call."""
    locations = _check_labels(labels, k, L, R, E)
    return tuple(
        [x for a, b, _ in _coefficients(labels, locations, d_intra, d_cross) for x in (a, b)]
    )


def _checked_coefficients(cfg: SystemConfig, order: ClusterOrder) -> tuple[int, ...]:
    """_order_coefficients of `order` under the layout and helper counts
    of `cfg`."""
    nd, rp = cfg.nodes, cfg.repair
    return _order_coefficients(order.labels, nd.k, nd.L, nd.R, nd.E, rp.d_intra, rp.d_cross)


def part_incoming_weights(cfg: SystemConfig, order: ClusterOrder) -> WeightVector:
    """The k incoming weights of a repair sequence, in sequence order."""
    rp = cfg.repair
    it = iter(_checked_coefficients(cfg, order))
    return tuple(a * rp.beta_intra + b * rp.beta_cross for a, b in zip(it, it))


def _scaled_cut(cfg: SystemConfig, order: ClusterOrder) -> tuple[int, int, int, list[int]]:
    """(scale, alpha, cut, weights) of a repair sequence with the
    bandwidths cleared to integers by `scale`: the cut is
    sum(min(alpha, w_i)) over the scaled weights, in sequence order."""
    it = iter(_checked_coefficients(cfg, order))
    scale, alpha, beta_intra, beta_cross = _scaled_bandwidths(cfg)
    weights = [a * beta_intra + b * beta_cross for a, b in zip(it, it)]
    return scale, alpha, sum([alpha if alpha < w else w for w in weights]), weights


def mincut(cfg: SystemConfig, order: ClusterOrder) -> CutReport:
    """Min-cut of the flow graph induced by `order`: sum of
    min(alpha, w_i) over the k positions, summed on scaled integers."""
    scale, alpha, cut, weights = _scaled_cut(cfg, order)
    if scale == 1:  # Fraction(w) skips the gcd that Fraction(w, 1) computes
        value, fractions = Fraction(cut), tuple(map(Fraction, weights))
    else:
        value = Fraction(cut, scale)
        fractions = tuple(Fraction(w, scale) for w in weights)
    return CutReport(value, fractions, tuple([alpha < w for w in weights]))
