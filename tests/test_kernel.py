"""Scan-kernel tests: the profile-compressed scan must match a direct loop
over every sequence, and exact integers must carry huge rationals."""

import random
from fractions import Fraction
from operator import itemgetter

from clustercap import _kernel_py
from clustercap.mincut import mincut
from clustercap.model import (
    NodeParams,
    enumerate_distributions,
    enumerate_orders,
    validate_config,
)
from clustercap.oracle import brute_force_capacity


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

