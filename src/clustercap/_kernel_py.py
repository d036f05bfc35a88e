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
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .mincut import _coefficient

# (first separate position, sorted weights, representative)
_Row = tuple[int, tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=4096)
def distribution_profiles(
    s0: int, clusters: tuple[int, ...], d_intra: int, d_cross: int
) -> tuple[tuple[tuple[tuple[int, int, bool], ...], tuple[int, ...]], ...]:
    """Distinct coefficient profiles of a distribution, in scan order.

    Returns ((coeffs, representative_order), ...) where coeffs is a tuple
    of (intra_coeff, cross_coeff, is_separate) per position and the
    representative is the first sequence (original labels, 0 = separate)
    producing that profile.

    Built by the pruned depth-first search of the module docstring, with
    an explicit stack so that k bounds no recursion depth.  A state is
    the per-label used counts plus the id of its profile prefix, interned
    as (parent id, coefficient); the search expands each state once and
    skips a twin cluster, so every profile is emitted through its first
    sequence in scan order, as a walk over every sequence would.
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
    coeffs: list = []
    pids: list[int] = []
    pid = -1
    out = []
    c = 0  # the next label index to try at the current depth
    while True:
        while c < n and (used[c] == sizes[c] or (twin[c] and used[c - 1] == used[c])):
            c += 1
        if c == n:  # every label tried here: back up and try the next one
            if not path:
                return tuple(out)
            c = path.pop()
            used[c] -= 1
            coeffs.pop()
            pid = pids.pop()
            c += 1
            continue
        i = len(path) + 1
        h = used[c] + 1
        key = (i, h, c == sep)
        coeff = coefficient.get(key)
        if coeff is None:
            coeff = coefficient[key] = _coefficient(i, h, c == sep, d_intra, d_cross)
        child = ids.setdefault((pid, coeff), len(ids))
        used[c] = h
        state = (tuple(used), child)
        if state not in expanded:
            expanded.add(state)
            if i < k:
                path.append(c)
                coeffs.append(coeff)
                pids.append(pid)
                pid = child
                c = 0
                continue
            out.append((
                tuple(coeffs) + (coeff,),
                tuple(names[x] for x in path) + (names[c],),
            ))
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
    reference = None
    for coeffs, labels in distribution_profiles(s0, clusters, d_intra, d_cross):
        bag = tuple(sorted(a for a, _, _ in coeffs))
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
) -> tuple[tuple[_Row, ...], tuple[int, ...], list]:
    """(rows, bounds, classes) of a distribution under scaled bandwidths.

    rows is ((first separate position, sorted weights, representative),
    ...) in scan order, one per distinct (first separate position, sorted
    weights): the first profile of each, since the rest share its cut at
    every alpha.  The position is 0-based, -1 when s0 is 0.  bounds is the
    sorted distinct weights of every row.  classes has one slot per alpha
    interval, bisect_right(bounds, alpha): None until `profile_cuts`
    first scans the interval and stores its classes there.
    """
    rows: dict = {}
    for coeffs, labels in distribution_profiles(s0, clusters, d_intra, d_cross):
        weights = tuple(sorted(a * beta_intra + b * beta_cross for a, b, _ in coeffs))
        rows.setdefault((labels.index(0) if s0 else -1, weights), labels)
    bounds = tuple(sorted({w for _, weights in rows for w in weights}))
    classes = [None] * (len(bounds) + 1)
    return tuple((j, weights, labels) for (j, weights), labels in rows.items()), bounds, classes


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
        k = s0 + sum(clusters)
        bound = bounds[interval - 1] if interval else -1
        first: dict = {}
        for j, weights, labels in rows:
            t = bisect_right(weights, bound)
            first.setdefault((j, t, sum(weights[:t])), labels)
        table = classes[interval] = tuple((s, k - t, labels) for (_, t, s), labels in first.items())
    return [(s + alpha * free, labels) for s, free, labels in table]
