"""Scan-kernel tests: the profile-compressed scan must match a direct loop
over every sequence, the pruned profile search must match a walk over
every permutation, the scan over cut classes must match a scan over every
profile, and exact integers must carry huge rationals."""

import gc
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter

from clustercap import _kernel_py
from clustercap.capacity import capacity_achiever, system_capacity
from clustercap.mincut import _coefficients, mincut
from clustercap.model import (
    NodeParams,
    _multiset_permutations,
    _packed,
    enumerate_distributions,
    enumerate_orders,
    validate_config,
)
from clustercap.oracle import (
    ALL_CLAIMS,
    SWEEP_BETA_PAIRS,
    VerificationFamily,
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
    """The profile-compressed scan must agree with a direct loop over
    every sequence, including the representative order choice."""
    for nodes, d_cross, alpha, beta_i, beta_c in _random_cases(40, seed=3):
        for dist in enumerate_distributions(nodes):
            got = min(_kernel_py.profile_cuts(
                dist.separate, dist.clusters, nodes.R - 1, d_cross,
                alpha, beta_i, beta_c,
            ), key=itemgetter(0))
            best = None
            key = lambda o: tuple(nodes.L + 1 if x == 0 else x for x in o.labels)
            for order in sorted(enumerate_orders(dist), key=key):
                cfg = validate_config(
                    n=nodes.n, k=nodes.k, L=nodes.L, R=nodes.R, E=nodes.E,
                    d_cross=d_cross, beta_intra=beta_i, beta_cross=beta_c,
                    alpha=alpha,
                )
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



def _walked_profiles(s0, clusters, d_intra, d_cross):
    """Reference for `distribution_profiles`: the coefficients of every
    multiset permutation in scan order (separate label last), keeping the
    first sequence of each distinct profile."""
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


def _sweep_keys():
    """Every distinct (s0, clusters, d_intra, d_cross) of the sweep at E <= 2."""
    return {
        (dist.separate, dist.clusters, cfg.repair.d_intra, cfg.repair.d_cross)
        for cfg in sweep_configs(E_values=(0, 1, 2))
        for dist in enumerate_distributions(cfg.nodes)
    }


def _walk_layout(walked):
    """`_walked_profiles` in the layout of `distribution_profiles`: the
    packed (a, b) of every profile in turn, and the representatives.  The
    walk's separate flags must be exactly the positions labelled 0, the
    flags that layout drops."""
    for coeffs, labels in walked:
        assert tuple(sep for _, _, sep in coeffs) == tuple(x == 0 for x in labels), labels
    pairs = [x for coeffs, _ in walked for a, b, _ in coeffs for x in (a, b)]
    return _packed(pairs), tuple(labels for _, labels in walked)


def test_profile_search_matches_permutation_walk():
    """Same profiles, same representatives, same order as the walk over
    every permutation: on each distinct key of the sweep at E <= 2, on
    twin-heavy L=4 keys, on keys with zero-count clusters and on k=1."""
    keys = _sweep_keys()
    assert len(keys) > 1300
    keys |= {
        (0, (2, 2, 2, 1), 2, 4),
        (2, (2, 2, 2, 2), 1, 5),
        (1, (3, 3, 3, 0), 2, 6),
        (1, (2, 0, 2), 1, 4),
        (0, (0, 3, 0, 3), 2, 5),
        (2, (0,), 0, 3),
        (1, (1,), 0, 1),
    }
    search = _kernel_py.distribution_profiles.__wrapped__
    for key in sorted(keys):
        assert search(*key) == _walk_layout(_walked_profiles(*key)), key


def _scanned_profiles(key, beta_intra, beta_cross):
    """Reference for the cut classes: (sorted weights, prefix sums,
    representative) of every profile of `key`, in scan order, for
    `_profile_scan`."""
    pairs, representatives = _kernel_py.distribution_profiles(*key)
    step = 2 * (key[0] + sum(key[1]))
    rows = []
    for p, labels in enumerate(representatives):
        profile = pairs[step * p : step * (p + 1)]
        a, b = profile[::2], profile[1::2]
        weights = sorted(x * beta_intra + y * beta_cross for x, y in zip(a, b))
        prefix = [0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        rows.append((weights, prefix, labels))
    return rows


def _profile_scan(rows, k, alpha):
    """(sum(min(alpha, w_i)), representative) of every profile, in scan
    order: t weights are at most alpha and the other k - t are capped."""
    return [
        (prefix[t] + alpha * (k - t), labels)
        for weights, prefix, labels in rows
        for t in (bisect_right(weights, alpha),)
    ]


def _first_below(cuts, thresholds):
    """The first (cut, order) whose cut is below the threshold of the
    order's separate position, as thm1 looks for it; None if there is none."""
    return next(((v, o) for v, o in cuts if v < thresholds[o.index(0)]), None)


def _check_cut_classes(key, betas):
    """At alpha = 0, at each weight bound, between bounds and above the
    last one: the cut classes of `key` under `betas` give the first
    minimum of a per-profile scan, and for one separate node the first
    cut below a per-position threshold.  Returns the alphas checked."""
    s0, clusters = key[:2]
    k = s0 + sum(clusters)
    rows = _scanned_profiles(key, *betas)
    positions = [labels.index(0) for _, _, labels in rows] if s0 == 1 else None
    bounds = sorted({w for weights, _, _ in rows for w in weights})
    alphas = {0, bounds[-1] + 1}
    alphas.update(bounds)
    alphas.update((x + y) // 2 for x, y in zip(bounds, bounds[1:]))
    for alpha in sorted(alphas):
        reference = _profile_scan(rows, k, alpha)
        got = _kernel_py.profile_cuts(*key, alpha, *betas)
        assert min(got, key=itemgetter(0)) == min(reference, key=itemgetter(0))
        if s0 != 1:
            continue
        # the separate node takes every position in some order
        least, most = {}, {}
        for (v, _), j in zip(reference, positions):
            least[j] = min(v, least.get(j, v))
            most[j] = max(v, most.get(j, v))
        lowest = [least[j] + 1 for j in range(k)]
        highest = [most[j] for j in range(k)]
        mixed = [lowest[j] if j % 2 else highest[j] for j in range(k)]
        for thresholds in (lowest, highest, mixed):
            assert _first_below(got, thresholds) == _first_below(reference, thresholds)
    return len(alphas)


def test_cut_classes_match_a_scan_over_every_profile():
    """On every distinct sweep key at E <= 2 under each sweep bandwidth
    pair, the cut classes match a scan over every profile
    (`_check_cut_classes`).  The bandwidths are doubled so that the
    midpoints are integers."""
    checked = 0
    for key in sorted(_sweep_keys()):
        for bi, bc in SWEEP_BETA_PAIRS:
            checked += _check_cut_classes(key, (2 * bi, 2 * bc))
    assert checked > 50_000


def test_scaled_scan_takes_the_tuple_path():
    """Weights of 256 or more do not fit the packed bytes: scaling alpha
    and both bandwidths by m = 300 stores the sweep keys' weights as
    tuples, and every cut class keeps its representative while its cut
    scales by m."""
    m = 300
    keys = sorted(_sweep_keys())[::40]
    assert len(keys) > 30
    for index, key in enumerate(keys):
        bi, bc = SWEEP_BETA_PAIRS[index % len(SWEEP_BETA_PAIRS)]
        (_, weights, _), bounds, _ = _kernel_py._weighted_profiles(*key, bi, bc)
        (_, scaled, _), _, _ = _kernel_py._weighted_profiles(*key, m * bi, m * bc)
        assert type(weights) is bytes and type(scaled) is tuple
        assert scaled == tuple(m * w for w in weights)
        for alpha in sorted({0, *bounds, bounds[-1] + 1}):
            cuts = _kernel_py.profile_cuts(*key, alpha, bi, bc)
            scaled_cuts = _kernel_py.profile_cuts(*key, m * alpha, m * bi, m * bc)
            assert scaled_cuts == [(m * v, labels) for v, labels in cuts], (key, alpha)


def test_large_coefficients_take_the_tuple_path():
    """A helper count of 300 puts coefficients of 256 or more in the
    profiles, so the profiles and the rows are tuples; the search still
    matches the walk and the cut classes a scan over every profile."""
    for key in ((1, (2, 1), 2, 300), (0, (2, 2), 1, 299), (2, (1,), 0, 280)):
        profiles = _kernel_py.distribution_profiles(*key)
        assert type(profiles[0]) is tuple and max(profiles[0]) >= 256
        assert profiles == _walk_layout(_walked_profiles(*key)), key
        _, weights, _ = _kernel_py._weighted_profiles(*key, 2, 2)[0]
        assert type(weights) is tuple
        assert _check_cut_classes(key, (2, 2)) > 2


def test_sweep_entries_are_packed_as_bytes():
    """Every sweep key at E <= 2 keeps its profiles as bytes, and under
    each sweep bandwidth pair its row positions and weights too, so a
    later change cannot silently store them as tuples again."""
    for key in sorted(_sweep_keys()):
        assert type(_kernel_py.distribution_profiles(*key)[0]) is bytes, key
        for betas in SWEEP_BETA_PAIRS:
            positions, weights, _ = _kernel_py._weighted_profiles(*key, *betas)[0]
            assert (type(positions), type(weights)) == (bytes, bytes), (key, betas)


def test_profile_caches_stay_packed_in_memory():
    """The two profile caches, filled with the 392 keys of the L=3, R=4,
    E=1 sweep layouts under bandwidths (2, 1), retain at most half of
    the 7,987,184 bytes (tracemalloc) that they held when each profile
    and each row was a tuple of its own; packed they hold about 2.8 MB."""
    keys = sorted({
        (dist.separate, dist.clusters, cfg.repair.d_intra, cfg.repair.d_cross)
        for cfg in sweep_configs(L_values=(3,), R_values=(4,), E_values=(1,))
        for dist in enumerate_distributions(cfg.nodes)
    })
    assert len(keys) == 392
    for cached in (_kernel_py.distribution_profiles, _kernel_py._weighted_profiles):
        cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            _kernel_py._weighted_profiles(*key, 2, 1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 7_987_184 // 2, retained


def test_profile_search_needs_no_recursion_per_position():
    """k = 1100 positions in one cluster: a search that recursed once per
    position would exceed the interpreter's recursion limit."""
    cfg = validate_config(
        n=1200, k=1100, L=1, R=1200, E=0, d_cross=0,
        beta_intra=1, beta_cross=1, alpha=5,
    )
    assert brute_force_capacity(cfg).value == 5500


def test_profile_caches_expose_lru_controls():
    """perfbench reads `cache_info` of both profile caches and clears them
    between cold samples; clearing `_weighted_profiles` also drops the
    interval classes, so the next scan builds them again."""
    for cached in (_kernel_py.distribution_profiles, _kernel_py._weighted_profiles):
        cached.cache_clear()
        assert cached.cache_info().currsize == 0
    key, alpha, betas = (1, (2, 1), 1, 3), 4, (2, 1)
    cuts = _kernel_py.profile_cuts(*key, alpha, *betas)
    for cached in (_kernel_py.distribution_profiles, _kernel_py._weighted_profiles):
        info = cached.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
    _, bounds, classes = _kernel_py._weighted_profiles(*key, *betas)
    interval = bisect_right(bounds, alpha)
    table = classes[interval]
    assert table is not None
    assert [slot for slot in classes if slot is not None] == [table]
    _kernel_py._weighted_profiles.cache_clear()
    assert _kernel_py.profile_cuts(*key, alpha, *betas) == cuts
    info = _kernel_py._weighted_profiles.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    rebuilt = _kernel_py._weighted_profiles(*key, *betas)[2][interval]
    assert rebuilt == table and rebuilt is not table


def test_interval_classes_do_not_depend_on_fill_order():
    """On every distinct sweep key at E <= 2, under the sweep bandwidth
    pairs in turn: the class tables that one warm entry fills in
    descending alpha order equal those that a freshly cleared entry
    builds for each interval alone, and a scan fills only its own slot."""
    weighted = _kernel_py._weighted_profiles
    checked = 0
    for index, key in enumerate(sorted(_sweep_keys())):
        betas = SWEEP_BETA_PAIRS[index % len(SWEEP_BETA_PAIRS)]
        weighted.cache_clear()
        _, bounds, classes = weighted(*key, *betas)
        alphas = sorted({0, *bounds}, reverse=True)
        for alpha in alphas:
            _kernel_py.profile_cuts(*key, alpha, *betas)
        for alpha in alphas:
            interval = bisect_right(bounds, alpha)
            weighted.cache_clear()
            _kernel_py.profile_cuts(*key, alpha, *betas)
            fresh = weighted(*key, *betas)[2]
            assert classes[interval] is not None
            assert fresh[interval] == classes[interval], (key, betas, alpha)
            assert sum(slot is not None for slot in fresh) == 1
            checked += 1
    assert checked > 10_000


def test_every_cache_is_bounded_with_lru_controls(structural_caches):
    """Each cache has a finite size, empties on `cache_clear`, and counts
    in `cache_info` what the nine claims and the max-flow check of two
    configs, one with a separate node and one without, put in it."""
    assert set(structural_caches) == {
        "model.enumerate_distributions",
        "sequencing.horizontal_selection",
        "sequencing.vertical_order",
        "sequencing.optimal_order_with_separate_at",
        "_kernel_py.distribution_profiles",
        "_kernel_py.intra_multiset_mismatch",
        "_kernel_py._weighted_profiles",
        "mincut._order_coefficients",
        "capacity.weight_values",
        "oracle._ifg_wiring",
        "oracle._lemma2_counterexample",
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
