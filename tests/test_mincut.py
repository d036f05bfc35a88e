"""Part-cut weight and min-cut tests, including the structural lemma
properties the capacity argument relies on."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustercap.capacity import mincut_by_location
from clustercap.mincut import (
    incoming_coefficients,
    mincut,
    part_incoming_weights,
    relative_location,
)
from clustercap.model import (
    ClusterOrder,
    NodeParams,
    _scaled_bandwidths,
    enumerate_distributions,
    enumerate_orders,
    validate_config,
)
from clustercap.oracle import build_ifg, sweep_configs
from clustercap.sequencing import (
    SeparatePositions,
    horizontal_selection,
    optimal_order_with_separate_at,
    vertical_order,
)


def cfg_small(alpha=10):
    return validate_config(
        n=4, k=2, L=2, R=2, E=0, d_cross=2, beta_intra=2, beta_cross=1, alpha=alpha
    )


def cfg_fig5(alpha=2):
    return validate_config(
        n=5, k=3, L=2, R=2, E=1, d_cross=3, beta_intra=2, beta_cross=1, alpha=alpha
    )


@pytest.mark.parametrize(
    "labels, expected",
    [
        ((1, 1, 1, 2, 2, 2, 0), (1, 2, 3, 1, 2, 3, 1)),
        ((1, 2, 3), (1, 1, 1)),
        ((1, 2, 1, 2, 1, 0, 1), (1, 1, 2, 2, 3, 1, 4)),
    ],
)
def test_relative_location(labels, expected):
    assert relative_location(ClusterOrder(labels)) == expected


def test_weights_two_cluster_repairs():
    weights = part_incoming_weights(cfg_small(), ClusterOrder((1, 1)))
    assert weights == (Fraction(4), Fraction(2))  # beta_I+2beta_C, 2beta_C


def test_weights_with_separate_tail():
    weights = part_incoming_weights(cfg_fig5(), ClusterOrder((1, 1, 0)))
    assert weights == (Fraction(5), Fraction(3), Fraction(2))


def test_weights_first_position_takes_all_helpers():
    cfg = validate_config(
        n=7, k=1, L=2, R=3, E=1, d_cross=3, beta_intra=3, beta_cross=2, alpha=100
    )
    weights = part_incoming_weights(cfg, ClusterOrder((1,)))
    assert weights == (2 * 3 + 3 * 2,)  # d_I*beta_I + d_C*beta_C


def test_mincut_values():
    assert mincut(cfg_small(alpha=10), ClusterOrder((1, 1))).value == 6
    assert mincut(cfg_small(alpha=1), ClusterOrder((1, 1))).value == 2  # k*alpha
    assert mincut(cfg_small(alpha=10), ClusterOrder((1, 2))).value == 7


def test_mincut_capped_flags():
    report = mincut(cfg_small(alpha=3), ClusterOrder((1, 1)))
    assert report.weights == (4, 2)
    assert report.capped == (True, False)
    assert report.value == 3 + 2


def test_order_k_mismatch_rejected():
    with pytest.raises(ValueError):
        part_incoming_weights(cfg_small(), ClusterOrder((1, 1, 1)))
    with pytest.raises(ValueError):
        part_incoming_weights(cfg_small(), ClusterOrder((1, 0)))  # E=0


def _small_systems(k_max=6):
    for L in (2, 3):
        for R in (2, 3):
            for E in (0, 1):
                n = L * R + E
                for k in range(2, min(k_max, n - 1) + 1):
                    for d_cross in (max(0, k - R + 1), n - R):
                        yield L, R, E, n, k, d_cross


def test_lemma1_intra_multiset_invariant():
    """For a fixed all-cluster selection, the intra-coefficient multiset
    does not depend on the repair sequence."""
    for L, R, E, n, k, d_cross in _small_systems():
        nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
        for dist in enumerate_distributions(nodes):
            if dist.separate != 0:
                continue
            bags = {
                tuple(sorted(a for a, _, _ in incoming_coefficients(R - 1, d_cross, o)))
                for o in enumerate_orders(dist)
            }
            assert len(bags) == 1, (dist, d_cross, bags)


def test_lemma2_coefficient_sums_on_constructed_order():
    """Along the constructed optimal sequence, coefficients sum to
    d + 1 - i (no cross-coefficient flooring occurs)."""
    for L, R, E, n, k, d_cross in _small_systems():
        nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
        s0 = 1 if E else 0
        if k - s0 > L * R:
            continue
        dist = horizontal_selection(nodes, s0)
        sep = SeparatePositions((k,) if s0 else ())
        order = vertical_order(dist, sep)
        d = (R - 1) + d_cross
        for i, (a, b, _) in enumerate(
            incoming_coefficients(R - 1, d_cross, order), start=1
        ):
            assert a + b == d + 1 - i, (order, d_cross, i)


def test_homogeneous_weights_reduce_to_uniform_ladder():
    """With equal bandwidths and no flooring, the weight multiset is
    ((d - i + 1) * beta), independent of the sequence."""
    cfg = validate_config(
        n=9, k=5, L=2, R=4, E=1, d_cross=4, beta_intra=3, beta_cross=3, alpha=1000
    )
    d = cfg.repair.d
    expected = sorted(Fraction(3) * (d - i + 1) for i in range(1, 6))
    checked = 0
    for dist in enumerate_distributions(cfg.nodes):
        for order in enumerate_orders(dist):
            h = relative_location(order)
            if any(i - hi > cfg.repair.d_cross for i, hi in enumerate(h, start=1)):
                continue  # flooring hit: the uniform ladder does not apply
            weights = sorted(part_incoming_weights(cfg, order))
            assert weights == expected, order
            checked += 1
    assert checked > 0


@st.composite
def random_config_and_order(draw):
    L = draw(st.integers(1, 3))
    R = draw(st.integers(1, 4))
    E = draw(st.integers(0, 2))
    n = L * R + E
    assume(n >= 2)
    k = draw(st.integers(1, min(6, n - 1)))
    lo, hi = max(0, k - R + 1), n - R
    d_cross = draw(st.integers(lo, hi))
    beta_cross = draw(st.fractions(0, 3, max_denominator=3))
    beta_intra = beta_cross + draw(st.fractions(0, 3, max_denominator=3))
    alpha = draw(st.fractions(0, 20, max_denominator=3))
    cfg = validate_config(
        n=n, k=k, L=L, R=R, E=E, d_cross=d_cross,
        beta_intra=beta_intra, beta_cross=beta_cross, alpha=alpha,
    )
    dists = enumerate_distributions(cfg.nodes)
    dist = dists[draw(st.integers(0, len(dists) - 1))]
    orders = enumerate_orders(dist)
    order = orders[draw(st.integers(0, len(orders) - 1))]
    return cfg, order


@given(random_config_and_order())
@settings(max_examples=120, deadline=None)
def test_weights_nonnegative_and_cut_bounded(pair):
    cfg, order = pair
    weights = part_incoming_weights(cfg, order)
    assert all(w >= 0 for w in weights)
    report = mincut(cfg, order)
    assert 0 <= report.value <= cfg.nodes.k * max(cfg.repair.alpha, Fraction(0))
    assert report.value == sum(min(cfg.repair.alpha, w) for w in weights)


def test_integer_cut_matches_fraction_weights_on_scaled_sweep():
    """mincut and mincut_by_location sum scaled integers; with the sweep
    bandwidths and alphas scaled by 2/7 (scale 7) they still equal the
    cut summed over the exact rational weights, for every order."""
    checked = 0
    for base in sweep_configs(L_values=(2,), R_values=(2, 3), k_max=4):
        nd, rp = base.nodes, base.repair
        cfg = validate_config(
            n=nd.n, k=nd.k, L=nd.L, R=nd.R, E=nd.E, d_cross=rp.d_cross,
            beta_intra=rp.beta_intra * Fraction(2, 7),
            beta_cross=rp.beta_cross * Fraction(2, 7),
            alpha=rp.alpha * Fraction(2, 7),
        )
        assert _scaled_bandwidths(cfg)[0] == 7
        alpha = cfg.repair.alpha
        for dist in enumerate_distributions(nd):
            for order in enumerate_orders(dist):
                weights = part_incoming_weights(cfg, order)
                report = mincut(cfg, order)
                assert report.value == sum(min(alpha, w) for w in weights), order
                assert report.weights == weights
                assert report.capped == tuple(alpha < w for w in weights)
                checked += 1
        if nd.E >= 1 and nd.k - 1 <= nd.L * nd.R:
            for j in range(1, nd.k + 1):
                order = optimal_order_with_separate_at(nd, j)
                weights = part_incoming_weights(cfg, order)
                assert mincut_by_location(cfg, j) == sum(min(alpha, w) for w in weights)
    assert checked > 1000


def test_mincut_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        mincut(cfg_small(), ClusterOrder((1, 1, 1)))
    with pytest.raises(ValueError):
        mincut(cfg_small(), ClusterOrder((1, 0)))  # E=0
    with pytest.raises(ValueError):
        mincut(cfg_small(), ClusterOrder((1, 3)))  # L=2
    one_separate = validate_config(
        n=5, k=3, L=2, R=2, E=1, d_cross=3, beta_intra=2, beta_cross=1, alpha=10
    )
    overfull = {
        (0, 0, 1): "order selects 2 separate nodes but E=1",
        (1, 1, 1): "order selects 3 nodes from cluster 1 but R=2",
    }
    for labels, message in overfull.items():
        for evaluate in (mincut, part_incoming_weights, build_ifg):
            with pytest.raises(ValueError, match=message):
                evaluate(one_separate, ClusterOrder(labels))


_OPTIMIZED_PROBE = """
from clustercap.mincut import mincut, part_incoming_weights
from clustercap.model import ClusterOrder, validate_config
from clustercap.oracle import build_ifg
if __debug__:
    raise SystemExit("asserts are on")
cfg = validate_config(n=5, k=3, L=2, R=2, E=1, d_cross=3, beta_intra=2, beta_cross=1, alpha=10)
for labels in ((0, 0, 1), (1, 1, 1), (1, 3, 1), (1, 1)):
    for evaluate in (mincut, part_incoming_weights, build_ifg):
        try:
            evaluate(cfg, ClusterOrder(labels))
        except ValueError:
            continue
        raise SystemExit(f"{evaluate.__name__} accepted {labels}")
"""


def test_order_rejections_hold_without_asserts():
    """Under python -O, where assert statements are stripped, every order
    path still rejects an order that does not fit the config."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
