"""Lattice-DP tests: the value pass over the canonical selection lattice
must give each distribution's least cut and first minimizing order, and
Theorem 1's least cut per separate position, as a walk over every
sequence does, and exact integers must carry huge rationals."""

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, repeat

from clustercap.capacity import capacity_achiever, system_capacity
from clustercap.mincut import _coefficient, mincut
from clustercap.model import (
    NodeParams,
    RepairParams,
    SystemConfig,
    _multiset_permutations,
    enumerate_distributions,
    enumerate_orders,
    validate_config,
)
from clustercap.oracle import (
    ALL_CLAIMS,
    SWEEP_BETA_PAIRS,
    VerificationFamily,
    _Search,
    _separate_minima,
    brute_force_capacity,
    ifg_mincut,
    sweep_configs,
    verify_claims,
)


def _random_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        L = rng.choice((2, 3))
        R = rng.choice((2, 3, 4))
        E = rng.choice((0, 1, 2))
        n = L * R + E
        k = rng.randint(1, min(8, n - 1))
        d_cross = rng.randint(max(0, k - R + 1), n - R)
        alpha = rng.randint(0, 25)
        beta_i = rng.randint(1, 5)
        beta_c = rng.randint(0, beta_i)
        yield NodeParams(n=n, k=k, L=L, R=R, E=E), d_cross, alpha, beta_i, beta_c


def test_pure_scan_matches_naive_per_order_minimum():
    """The value pass must agree with a direct loop over every sequence,
    including the first minimizing order."""
    for nodes, d_cross, alpha, beta_i, beta_c in _random_cases(40, seed=3):
        cfg = validate_config(
            n=nodes.n, k=nodes.k, L=nodes.L, R=nodes.R, E=nodes.E,
            d_cross=d_cross, beta_intra=beta_i, beta_cross=beta_c, alpha=alpha,
        )
        search = _Search(cfg)
        for dist in enumerate_distributions(nodes):
            got = (search.minima[search.distributions.index(dist)], search.first_order(dist))
            best = None
            key = lambda o: tuple(nodes.L + 1 if x == 0 else x for x in o.labels)
            for order in sorted(enumerate_orders(dist), key=key):
                value = mincut(cfg, order).value
                if best is None or value < best[0]:
                    best = (value, order.labels)
            assert got == (best[0], best[1])


def test_brute_force_handles_huge_rationals():
    cfg = validate_config(
        n=4, k=2, L=2, R=2, E=0, d_cross=2,
        beta_intra=Fraction(2**80, 3), beta_cross=Fraction(2**80, 7),
        alpha=Fraction(2**90),
    )
    result = brute_force_capacity(cfg)
    expected = (Fraction(2**80, 3) + 2 * Fraction(2**80, 7)) + 2 * Fraction(2**80, 7)
    assert result.value == expected


def _walked_ranks(s0, clusters):
    """(labels, positions) of the first order of each distinct sequence
    of (position, within-cluster rank, is separate), walking every order
    of the distribution in scan order (lexicographic, separate label
    last); every coefficient of an order is a function of its sequence."""
    sep_label = len(clusters) + 1
    items = [c for c, count in enumerate(clusters, start=1) for _ in range(count)]
    first = {}
    for mapped in _multiset_permutations(items + [sep_label] * s0):
        seen = {}
        positions = []
        for i, x in enumerate(mapped, start=1):
            seen[x] = seen.get(x, 0) + 1
            positions.append((i, seen[x], x == sep_label))
        first.setdefault(tuple(positions), tuple(0 if x == sep_label else x for x in mapped))
    return [(labels, positions) for positions, labels in first.items()]


def _walked_profiles(ranks, d_intra, d_cross):
    """(coefficients, labels) of the first order in scan order of each
    distinct coefficient profile, from `_walked_ranks`, computing each
    order's coefficients once."""
    coefficient = {}
    first = {}
    for labels, positions in ranks:
        for p in positions:
            if p not in coefficient:
                coefficient[p] = _coefficient(*p, d_intra, d_cross)
        first.setdefault(tuple(map(coefficient.__getitem__, positions)), labels)
    return tuple(first.items())


def _walked_rows(profiles, betas, s0):
    """(separate positions, sorted weights, prefix sums, labels), one
    entry per row in scan order: the first profile of each distinct
    (separate position when s0 is 1, sorted weights) under `betas`, whose
    cut every later profile of the row shares at every alpha."""
    bi, bc = betas
    rows = {}
    for coeffs, labels in profiles:
        weights = tuple(sorted(a * bi + b * bc for a, b, _ in coeffs))
        rows.setdefault((labels.index(0) if s0 == 1 else -1, weights), labels)
    return (
        [j for j, _ in rows],
        [weights for _, weights in rows],
        [list(accumulate(weights, initial=0)) for _, weights in rows],
        list(rows.values()),
    )


def _walked_cuts(rows, k, alpha):
    """sum(min(alpha, w_i)) of each row, in scan order: t weights are at
    most alpha and the other k - t are capped."""
    _, weights, prefixes, _ = rows
    return [
        prefix[t] + alpha * (k - t)
        for prefix, t in zip(prefixes, map(bisect_right, weights, repeat(alpha)))
    ]


def _alpha_grid(rows):
    """Zero, each distinct weight (bound), each midpoint between two
    consecutive bounds, and one above the last bound."""
    bounds = sorted({w for weights in rows[1] for w in weights})
    grid = {0, bounds[-1] + 1, *bounds}
    grid.update((x + y) // 2 for x, y in zip(bounds, bounds[1:]))
    return grid


def _memo_rows(memo, key, betas):
    """`_walked_rows` of a (separate count, cluster counts, d_intra,
    d_cross) key under `betas`, memoised in `memo` with the walks behind
    it."""
    if (key, betas) not in memo:
        if key not in memo:
            if key[:2] not in memo:
                memo[key[:2]] = _walked_ranks(*key[:2])
            memo[key] = _walked_profiles(memo[key[:2]], *key[2:])
        memo[key, betas] = _walked_rows(memo[key], betas, key[0])
    return memo[key, betas]


def _check_layout(layout, betas, memo, done):
    """The value pass of each config of a layout (n, k, L, R, E, d_cross)
    under `betas`, across the alpha grids of its distributions, against a
    walk over every order: each distribution's least cut and first
    minimizing order, and with one separate node Theorem 1's least cut per
    position.  Checks each (key, betas) not in `done` and adds it there;
    returns the number of (key, betas, alpha) it checked."""
    n, k, L, R, E, d_cross = layout
    nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
    keys = {
        dist: (dist.separate, dist.clusters, R - 1, d_cross)
        for dist in enumerate_distributions(nodes)
    }
    grids = {}
    for dist, key in keys.items():
        if (key, betas) not in done:
            done.add((key, betas))
            grids[dist] = _alpha_grid(_memo_rows(memo, key, betas))
    # Theorem 1's minima are checked at every alpha checked here when the
    # layout has a one-separate distribution, against all of them
    pinned_grid = set()
    if any(dist.separate == 1 for dist in keys):
        pinned_grid = set().union(*grids.values())
    rows = {
        dist: _memo_rows(memo, key, betas)
        for dist, key in keys.items()
        if dist in grids or (dist.separate == 1 and pinned_grid)
    }
    bi, bc = map(Fraction, betas)
    checked = 0
    for alpha in sorted(set().union(*grids.values())):
        cfg = SystemConfig(nodes, RepairParams(Fraction(alpha), R - 1, bi, d_cross, bc))
        search = _Search(cfg)
        pinned = {}
        for dist, dist_rows in rows.items():
            own = alpha in grids.get(dist, ())
            if not own and not (dist.separate == 1 and alpha in pinned_grid):
                continue
            cuts = _walked_cuts(dist_rows, k, alpha)
            if own:
                value = min(cuts)
                labels = dist_rows[3][cuts.index(value)]
                least = search.minima[search.distributions.index(dist)]
                assert (least, search.first_order(dist)) == (value, labels), (cfg, dist)
                checked += 1
            if dist.separate == 1:
                for value, j in zip(cuts, dist_rows[0]):
                    if value < pinned.get(j, value + 1):
                        pinned[j] = value
        if alpha in pinned_grid:
            _, backward, blocks = search.lattice
            least = _separate_minima(search.forward, backward, blocks, search.cut_table)
            assert least == [pinned[j] for j in range(k)], cfg
    return checked


def _sweep_layouts():
    """Every distinct (n, k, L, R, E, d_cross) of the sweep at E <= 2."""
    return sorted({
        (c.nodes.n, c.nodes.k, c.nodes.L, c.nodes.R, c.nodes.E, c.repair.d_cross)
        for c in sweep_configs(E_values=(0, 1, 2))
    })


def test_lattice_dp_matches_a_walk_over_every_order():
    """On every distinct sweep key (separate count, cluster counts,
    d_intra, d_cross) at E <= 2 under each sweep bandwidth pair, at alpha
    0, at each bound, at each midpoint and above the last bound, the
    value pass gives a walk's least cut and first minimizing order, and
    Theorem 1's least cut per position (`_check_layout`).  The bandwidths
    are doubled so that the midpoints are integers."""
    memo, done, checked = {}, set(), 0
    for layout in _sweep_layouts():
        for bi, bc in SWEEP_BETA_PAIRS:
            checked += _check_layout(layout, (2 * bi, 2 * bc), memo, done)
    assert len(done) > 4 * 1300
    assert checked > 50_000


def test_lattice_dp_matches_the_walk_on_scaled_values():
    """Weights of 256 or more: every 40th sweep layout with alpha and
    both bandwidths scaled by m = 300."""
    m = 300
    layouts = _sweep_layouts()[::40]
    assert len(layouts) > 10
    checked = 0
    for index, layout in enumerate(layouts):
        bi, bc = SWEEP_BETA_PAIRS[index % len(SWEEP_BETA_PAIRS)]
        checked += _check_layout(layout, (m * bi, m * bc), {}, set())
    assert checked > 900


def test_lattice_dp_matches_the_walk_on_large_coefficients():
    """Layouts whose helper count of 280 to 300 puts coefficients of 256
    or more in the cuts."""
    wide = ((303, 4, 2, 3, 297, 300), (301, 4, 2, 2, 297, 299), (281, 3, 1, 1, 280, 280))
    checked = 0
    for layout in wide:
        checked += _check_layout(layout, (2, 2), {}, set())
    assert checked > 100


def test_lattice_search_needs_no_recursion_per_position():
    """k = 1100 positions in one cluster: a search that recursed once per
    position would exceed the interpreter's recursion limit."""
    cfg = validate_config(
        n=1200, k=1100, L=1, R=1200, E=0, d_cross=0,
        beta_intra=1, beta_cross=1, alpha=5,
    )
    assert brute_force_capacity(cfg).value == 5500


def test_every_cache_is_bounded_with_lru_controls(structural_caches):
    """Each cache has a finite size, empties on `cache_clear`, and counts
    in `cache_info` what the nine claims and the max-flow check of two
    configs, one with a separate node and one without, put in it."""
    assert set(structural_caches) == {
        "model._enumerate_distributions",
        "model._enumeration_size",
        "sequencing._horizontal_selection",
        "sequencing._vertical_order",
        "sequencing._optimal_order_with_separate_at",
        "capacity.weight_values",
        "oracle._cut_coefficients",
        "oracle._ifg_wiring",
        "oracle._lattice_edges",
        "oracle._lemma1_counterexample",
        "oracle._lemma2_counterexample",
        "oracle._order_ranks",
        "oracle._thm4_counterexample",
    }
    for name, cached in structural_caches.items():
        cached.cache_clear()
        info = cached.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 0), name
        assert isinstance(info.maxsize, int) and info.maxsize > 0, name
    configs = tuple(
        validate_config(
            n=6 + E, k=5, L=3, R=2, E=E, d_cross=4, beta_intra=2, beta_cross=1, alpha=3,
        )
        for E in (1, 0)
    )
    family = VerificationFamily(name="two", configs=configs, claims=ALL_CLAIMS)
    assert all(report.passed for report in verify_claims(family))
    for cfg in configs:
        assert ifg_mincut(cfg, capacity_achiever(cfg)[1]) == system_capacity(cfg)
    for name, cached in structural_caches.items():
        info = cached.cache_info()
        assert 0 < info.currsize == info.misses <= info.maxsize, (name, info)
