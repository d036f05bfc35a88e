"""Scan kernel: the min-cut of every repair sequence of one
selected-node distribution, on scaled integer inputs.  This is the one
place a coefficient profile becomes a cut value.

Scan order: repair sequences are visited in lexicographic order with the
separate label sorting AFTER all cluster labels.  Sequences are collapsed
into distinct coefficient profiles (per-position beta coefficients); each
profile keeps its first sequence as representative, so the first minimum
over the profiles (as ``min`` returns it) is the first minimizing
sequence in scan order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
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


def profile_cuts(
    s0: int,
    clusters: tuple[int, ...],
    d_intra: int,
    d_cross: int,
    alpha: int,
    beta_intra: int,
    beta_cross: int,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(sum(min(alpha, w_i)), representative order) of each distinct
    profile of the distribution, in scan order.

    All bandwidth arguments are pre-scaled non-negative integers.
    """
    k = s0 + sum(clusters)
    for weights, prefix, labels in _weighted_profiles(
        s0, clusters, d_intra, d_cross, beta_intra, beta_cross
    ):
        t = bisect_right(weights, alpha)
        yield prefix[t] + alpha * (k - t), labels
