"""Scan kernel: minimum min-cut over all repair sequences of one
selected-node distribution, on scaled integer inputs.

Scan order (shared argmin semantics): repair sequences are visited in
lexicographic order with the separate label sorting AFTER all cluster
labels, and only strict improvements move the minimum.  The first
minimizing sequence in that order is therefore reported.

To keep repeated queries cheap, sequences are collapsed into distinct
coefficient profiles (per-position beta coefficients); each profile keeps
its first sequence as representative, which preserves the scan-order
argmin exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .mincut import _coefficients
from .model import _multiset_permutations


@lru_cache(maxsize=4096)
def distribution_profiles(
    s0: int, clusters: tuple[int, ...], d_intra: int, d_cross: int
) -> tuple[tuple[tuple[tuple[int, int, bool], ...], tuple[int, ...]], ...]:
    """Distinct coefficient profiles of a distribution, in scan order.

    Returns ((coeffs, representative_order), ...) where coeffs is a tuple
    of (intra_coeff, cross_coeff, is_separate) per position and the
    representative is the first sequence (original labels, 0 = separate)
    producing that profile.
    """
    L = len(clusters)
    sep_label = L + 1
    items = [c for c, count in enumerate(clusters, start=1) for _ in range(count)]
    items += [sep_label] * s0
    profiles: dict = {}
    ordered = []
    for mapped in _multiset_permutations(items):
        coeffs = _coefficients(mapped, sep_label, d_intra, d_cross)
        if coeffs not in profiles:
            labels = tuple(0 if x == sep_label else x for x in mapped)
            profiles[coeffs] = labels
            ordered.append((coeffs, labels))
    return tuple(ordered)


@lru_cache(maxsize=16384)
def _weighted_profiles(
    s0: int,
    clusters: tuple[int, ...],
    d_intra: int,
    d_cross: int,
    beta_intra: int,
    beta_cross: int,
):
    """Profiles with weights pre-sorted and prefix-summed so a capacity
    query per alpha is O(log k) per profile."""
    out = []
    for coeffs, labels in distribution_profiles(s0, clusters, d_intra, d_cross):
        weights = sorted(a * beta_intra + b * beta_cross for a, b, _ in coeffs)
        prefix = [0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        out.append((weights, tuple(prefix), labels))
    return tuple(out)


def scan_distribution(
    s0: int,
    clusters: tuple[int, ...],
    d_intra: int,
    d_cross: int,
    alpha: int,
    beta_intra: int,
    beta_cross: int,
) -> tuple[int, tuple[int, ...]]:
    """Minimum of sum(min(alpha, w_i)) over all sequences of the
    distribution, with the first achieving sequence in scan order.

    All bandwidth arguments are pre-scaled non-negative integers.
    """
    k = s0 + sum(clusters)
    best_value = -1
    best_order: tuple[int, ...] = ()
    for weights, prefix, labels in _weighted_profiles(
        s0, clusters, d_intra, d_cross, beta_intra, beta_cross
    ):
        t = bisect_right(weights, alpha)
        value = prefix[t] + alpha * (k - t)
        if best_value < 0 or value < best_value:
            best_value = value
            best_order = labels
    return best_value, best_order
