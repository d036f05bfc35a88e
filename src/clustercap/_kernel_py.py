"""Scan kernel: the min-cut of every repair sequence of one
selected-node distribution, on scaled integer inputs.  This is the one
place a coefficient profile becomes a cut value.

Scan order: repair sequences are visited in lexicographic order with the
separate label sorting AFTER all cluster labels.  Sequences are collapsed
into distinct coefficient profiles (per-position beta coefficients); each
profile keeps its first sequence as representative, so the first minimum
over the profiles (as ``min`` returns it) is the first minimizing
sequence in scan order.

The profiles are built by a depth-first search over positions that tries
labels in scan order, so the sequences it completes come in scan order.
A position's coefficient depends only on the position, the node's
within-cluster rank and whether it is separate, so the profiles that
complete a prefix depend only on the prefix's per-label counts.  The
search skips a branch when it already expanded a prefix with the same
counts and the same profile prefix, and it skips cluster c when cluster
c-1 has the same size and the same count so far: swapping the two labels
maps every completion through c onto one through c-1 with the same
profile.  Either skipped subtree repeats only profiles that an earlier
branch already completed, so each profile is still first reached
through its first sequence in scan order.

The scan visits cut classes, not profiles.  A profile's cut
sum(min(alpha, w_i)) is piecewise linear in alpha with breaks at its
weights, so between two consecutive distinct weights (bounds) of all the
distribution's profiles it is s + alpha * (k - t), where t and s count and
sum the weights at or below the lower bound.  Within one such alpha
interval the profiles with the same (first separate position, t, s) form
a class with one cut, and the class keeps its first profile in scan order
as representative.  Both readers want the first profile in scan order
that meets a test depending only on the cut and the separate position:
the first minimum (the search), and the first cut below a bound for its
separate position (Theorem 1's check).  The first profile that meets such
a test is the first of its class, since every earlier member would meet
it too; so scanning the classes in the order of their representatives
finds the same profile.  Each interval's classes live in a slot of
their (distribution, bandwidths) key's `_weighted_profiles` entry,
filled on first use; they are a deterministic function of that entry,
which is why sharing the mutable slot is safe.

Both caches store their integers packed (`model._packed`): one flat
sequence per entry, k values a row, bytes while every value is below
256, with the representatives kept once and shared by reference.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .mincut import _coefficient
from .model import _packed

# a model._packed sequence of ints
_Packed = bytes | tuple[int, ...]


@lru_cache(maxsize=4096)
def distribution_profiles(
    s0: int, clusters: tuple[int, ...], d_intra: int, d_cross: int
) -> tuple[_Packed, tuple[tuple[int, ...], ...]]:
    """Distinct coefficient profiles of a distribution, in scan order.

    Returns (pairs, representatives).  pairs is every profile's
    (intra_coeff, cross_coeff) per position, 2k values a profile, packed;
    representatives[p] is the first sequence (original labels, 0 =
    separate) producing profile p.  A position is separate exactly where
    its label is 0.

    Built by the pruned depth-first search of the module docstring, with
    an explicit stack so that k bounds no recursion depth.  A state is
    the per-label used counts plus the id of its profile prefix, interned
    as (parent id, (a, b), is_separate); the search expands each state
    once and skips a twin cluster, so every profile is emitted through its
    first sequence in scan order, as a walk over every sequence would.
    """
    sizes = clusters + (s0,)
    sep = len(clusters)
    names = tuple(range(1, sep + 1)) + (0,)
    n = len(sizes)
    twin = [0 < c < sep and sizes[c - 1] == sizes[c] for c in range(n)]
    k = sum(sizes)
    used = [0] * n
    coefficient: dict = {}
    ids: dict = {}
    expanded = set()
    path: list[int] = []
    prefix: list[int] = []  # the (a, b) pairs of the path
    pids: list[int] = []
    pid = -1
    pairs: list[int] = []
    representatives = []
    c = 0  # the next label index to try at the current depth
    while True:
        while c < n and (used[c] == sizes[c] or (twin[c] and used[c - 1] == used[c])):
            c += 1
        if c == n:  # every label tried here: back up and try the next one
            if not path:
                return _packed(pairs), tuple(representatives)
            c = path.pop()
            used[c] -= 1
            del prefix[-2:]
            pid = pids.pop()
            c += 1
            continue
        i = len(path) + 1
        h = used[c] + 1
        key = (i, h, c == sep)
        pair = coefficient.get(key)
        if pair is None:
            pair = coefficient[key] = _coefficient(i, h, c == sep, d_intra, d_cross)[:2]
        child = ids.setdefault((pid, pair, c == sep), len(ids))
        used[c] = h
        state = (tuple(used), child)
        if state not in expanded:
            expanded.add(state)
            if i < k:
                path.append(c)
                prefix += pair
                pids.append(pid)
                pid = child
                c = 0
                continue
            pairs += prefix
            pairs += pair
            representatives.append(tuple(names[x] for x in path) + (names[c],))
        used[c] -= 1
        c += 1


@lru_cache(maxsize=4096)
def intra_multiset_mismatch(
    s0: int, clusters: tuple[int, ...], d_intra: int, d_cross: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
    """Lemma 1's verdict on a distribution: None when every profile has
    the same sorted intra coefficients, else (representative order, its
    sorted intra coefficients, the first profile's) of the first profile
    in scan order that differs."""
    pairs, representatives = distribution_profiles(s0, clusters, d_intra, d_cross)
    step = 2 * (s0 + sum(clusters))
    reference = None
    for p, labels in enumerate(representatives):
        bag = tuple(sorted(pairs[step * p : step * (p + 1) : 2]))
        if reference is None:
            reference = bag
        elif bag != reference:
            return labels, bag, reference
    return None


@lru_cache(maxsize=16384)
def _weighted_profiles(
    s0: int,
    clusters: tuple[int, ...],
    d_intra: int,
    d_cross: int,
    beta_intra: int,
    beta_cross: int,
) -> tuple[tuple[_Packed, _Packed, tuple[tuple[int, ...], ...]], tuple[int, ...], list]:
    """(rows, bounds, classes) of a distribution under scaled bandwidths.

    rows is (positions, weights, representatives), one row per distinct
    (first separate position, sorted weights) in scan order: the first
    profile of each, since the rest share its cut at every alpha.
    positions holds each row's 0-based first separate position (0 for
    every row when s0 is 0), weights each row's k sorted weights in turn,
    both packed, and representatives each row's representative, the same
    tuple as in `distribution_profiles`.  bounds is the sorted distinct
    weights of every row.  classes has one slot per alpha interval,
    bisect_right(bounds, alpha): None until `profile_cuts` first scans
    the interval and stores its classes there.
    """
    pairs, representatives = distribution_profiles(s0, clusters, d_intra, d_cross)
    k = s0 + sum(clusters)
    it = iter(pairs)
    unsorted = [a * beta_intra + b * beta_cross for a, b in zip(it, it)]
    rows: dict = {}
    for p, labels in enumerate(representatives):
        weights = tuple(sorted(unsorted[k * p : k * (p + 1)]))
        rows.setdefault((labels.index(0) if s0 else 0, weights), labels)
    flat = [w for _, weights in rows for w in weights]
    bounds = tuple(sorted(set(flat)))
    packed = _packed([j for j, _ in rows]), _packed(flat), tuple(rows.values())
    return packed, bounds, [None] * (len(bounds) + 1)


def profile_cuts(
    s0: int,
    clusters: tuple[int, ...],
    d_intra: int,
    d_cross: int,
    alpha: int,
    beta_intra: int,
    beta_cross: int,
) -> list[tuple[int, tuple[int, ...]]]:
    """(sum(min(alpha, w_i)), representative order) of each cut class of
    the distribution at alpha, in scan order.

    On alpha's interval a row's weights up to alpha are those up to the
    lower bound (none on interval 0): t of them, summing to s.  A class
    is the rows with the same (first separate position, t, s), kept as
    (s, k - t, first row's representative).  All bandwidth arguments are
    pre-scaled non-negative integers.
    """
    rows, bounds, classes = _weighted_profiles(
        s0, clusters, d_intra, d_cross, beta_intra, beta_cross
    )
    interval = bisect_right(bounds, alpha)
    table = classes[interval]
    if table is None:
        positions, weights, representatives = rows
        k = s0 + sum(clusters)
        bound = bounds[interval - 1] if interval else -1
        first: dict = {}
        lo = 0
        for j, labels in zip(positions, representatives):
            t = bisect_right(weights, bound, lo, lo + k)
            first.setdefault((j, t - lo, sum(weights[lo:t])), labels)
            lo += k
        table = classes[interval] = tuple((s, k - t, labels) for (_, t, s), labels in first.items())
    return [(s + alpha * free, labels) for s, free, labels in table]
