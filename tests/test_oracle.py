"""Exhaustive-search and flow-graph oracle tests."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustercap import model, oracle
from clustercap.capacity import (
    capacity_achiever,
    mincut_by_location,
    system_capacity,
    weight_values,
)
from clustercap.mincut import incoming_coefficients, mincut, part_incoming_weights
from clustercap.model import (
    ClusterOrder,
    NodeParams,
    SelectedNodeDistribution,
    enumerate_distributions,
    enumerate_orders,
    validate_config,
)
from clustercap.oracle import (
    BudgetExceeded,
    VerificationFamily,
    brute_force_capacity,
    build_ifg,
    enumeration_size,
    ifg_mincut,
    lattice_capacity,
    max_flow,
    sample_sweep_triples,
    sweep_configs,
    verify_claims,
)
from clustercap.sequencing import horizontal_selection, vertical_order


def cfg(n, k, L, R, E, d_cross, bi, bc, alpha):
    return validate_config(
        n=n, k=k, L=L, R=R, E=E, d_cross=d_cross,
        beta_intra=bi, beta_cross=bc, alpha=alpha,
    )


def test_brute_force_tiny_cluster_system():
    result = brute_force_capacity(cfg(4, 2, 2, 2, 0, 2, 2, 1, 10))
    assert result.value == 6
    assert (result.distribution.separate, result.distribution.clusters) == (0, (2, 0))
    assert result.order.labels == (1, 1)


def test_brute_force_one_separate_matches_closed_form():
    result = brute_force_capacity(cfg(5, 3, 2, 2, 1, 3, 2, 1, 100))
    assert result.value == 10
    assert (result.distribution.separate, result.distribution.clusters) == (1, (2, 0))
    assert result.order.labels == (1, 1, 0)


def test_brute_force_single_selection():
    config = cfg(5, 1, 2, 2, 1, 3, 2, 1, 100)
    result = brute_force_capacity(config)
    cluster_first = config.repair.gamma_intra + config.repair.gamma_cross
    separate_first = config.repair.gamma_separate
    assert result.value == min(cluster_first, separate_first)


def test_brute_force_budget_guard():
    config = cfg(13, 9, 3, 4, 1, 9, 2, 1, 100)
    with pytest.raises(BudgetExceeded) as err:
        brute_force_capacity(config, budget=100)
    assert err.value.size == enumeration_size(config.nodes)
    assert err.value.size > 100


def test_brute_force_deterministic_cold_and_warm():
    config = cfg(9, 6, 2, 4, 1, 5, 3, 2, Fraction(7, 2))
    runs = [brute_force_capacity(config) for _ in range(2)]
    oracle._lattice_edges.cache_clear()
    runs.append(brute_force_capacity(config))
    assert len({(r.value, r.distribution, r.order) for r in runs}) == 1


def test_ifg_single_repair_flow():
    config = cfg(7, 1, 2, 3, 1, 3, 3, 2, 5)
    assert ifg_mincut(config, ClusterOrder((1,))) == min(
        Fraction(5), config.repair.gamma_intra + config.repair.gamma_cross
    )
    assert ifg_mincut(config, ClusterOrder((0,))) == min(
        Fraction(5), config.repair.gamma_separate
    )


def test_ifg_two_successive_repairs_matches_formula():
    config = cfg(4, 2, 2, 2, 0, 2, 2, 1, 10)
    for labels in ((1, 1), (1, 2)):
        order = ClusterOrder(labels)
        assert ifg_mincut(config, order) == mincut(config, order).value


def test_ifg_structure():
    config = cfg(5, 3, 2, 2, 1, 3, 2, 1, 2)
    order = ClusterOrder((1, 1, 0))
    graph = build_ifg(config, order)
    n, k = 5, 3
    assert graph.vertex_count == 2 * n + 2 * k + 2
    alpha_edges = [e for e in graph.edges if e[2] == 2 * graph.scale]
    assert len(alpha_edges) >= n + k  # one storage edge per node, alpha=2
    infinite = [e for e in graph.edges if e[2] == graph.infinite]
    assert len(infinite) == n + k  # source feeds n originals, collector reads k
    finite_total = sum(c for _, _, c in graph.edges if c != graph.infinite)
    assert graph.infinite == finite_total + 1


def test_max_flow_on_known_graph():
    # classic 6-vertex example with max flow 5
    from clustercap.oracle import FlowGraph

    graph = FlowGraph(
        vertex_count=6,
        edges=(
            (0, 1, 3), (0, 2, 3), (1, 2, 2), (1, 3, 3),
            (2, 4, 2), (4, 5, 3), (3, 4, 4), (3, 5, 2),
        ),
        source=0,
        sink=5,
        scale=1,
        infinite=100,
    )
    assert max_flow(graph) == 5


def test_max_flow_cancels_flow_on_a_reverse_arc():
    """The first shortest path found, 0-1-3-5, blocks both 0-2-3-5 and
    0-1-4-5; the second unit needs the longer path 0-2-3-1-4-5, which
    runs back along the flow on 1-3."""
    from clustercap.oracle import FlowGraph

    graph = FlowGraph(
        vertex_count=6,
        edges=((0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 3, 1), (3, 5, 1), (4, 5, 1)),
        source=0,
        sink=5,
        scale=1,
        infinite=8,
    )
    assert max_flow(graph) == 2


def _brute_force_min_cut(graph):
    """Least capacity of edges leaving a vertex set that holds the source
    and not the sink, over every such set."""
    others = [v for v in range(graph.vertex_count) if v not in (graph.source, graph.sink)]
    best = None
    for mask in range(1 << len(others)):
        side = {graph.source} | {v for i, v in enumerate(others) if mask >> i & 1}
        value = sum(c for u, v, c in graph.edges if u in side and v not in side)
        best = value if best is None else min(best, value)
    return best


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 7))
    source, sink = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 9)),
            max_size=18,
        )
    )
    # parallel edges on purpose: repeat some drawn edges
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return oracle.FlowGraph(
        vertex_count=n, edges=tuple(edges), source=source, sink=sink, scale=1, infinite=10**6,
    )


@given(small_graphs())
@settings(max_examples=300, deadline=None)
def test_max_flow_equals_brute_force_min_cut(graph):
    """Max-flow/min-cut duality on graphs of at most 7 vertices with
    capacities 0..9, self-loops and parallel edges."""
    assert max_flow(graph) == _brute_force_min_cut(graph)


def _residual(graph):
    """(starts, to, rev, cap): the residual arcs of a graph's edges
    (`_residual_arcs`), each forward arc at its edge's capacity."""
    starts, to, rev, where = oracle._residual_arcs(
        graph.vertex_count, [u for u, _, _ in graph.edges], [v for _, v, _ in graph.edges]
    )
    cap = [0] * len(to)
    for p, (_, _, c) in zip(where, graph.edges):
        cap[p] = c
    return starts, to, rev, cap


@given(small_graphs())
@settings(max_examples=300, deadline=None)
def test_dinic_returns_the_max_flow_under_any_cut_bound(graph):
    """`_dinic` stops once the flow reaches `bound`, a cut value of the
    graph: given the least cut, a cut that need not be least (every edge
    out of the source), or none, it returns the brute-force min-cut."""
    least = _brute_force_min_cut(graph)
    s, t = graph.source, graph.sink
    out_of_source = sum(c for u, v, c in graph.edges if u == s != v)
    for bound in (least, out_of_source, None):
        assert oracle._dinic(*_residual(graph), s, t, bound=bound) == least


def _path(m, rng):
    """A path of m vertices, 0 -> 1 -> ... -> m - 1, capacities 1..9."""
    edges = tuple((v, v + 1, rng.randint(1, 9)) for v in range(m - 1))
    graph = oracle.FlowGraph(
        vertex_count=m, edges=edges, source=0, sink=m - 1, scale=1, infinite=10**6,
    )
    return graph, min(c for _, _, c in edges)


def _ladder(m, rng):
    """A two-lane ladder of 2m + 2 vertices, capacities 1..9: the source
    0 feeds lanes 1..m and m + 1..2m at their first rungs, each lane runs
    forward, a rung joins the lanes both ways at every position, and both
    lanes' last vertices feed the sink 2m + 1.  Its min-cut is a shortest
    path over the positions: which of the two vertices there lie on the
    source side, and the edges that this cuts."""
    def c():
        return rng.randint(1, 9)

    sink = 2 * m + 1
    into, along, rungs, out = (c(), c()), [], [], (c(), c())
    edges = [(0, 1, into[0]), (0, m + 1, into[1])]
    for i in range(1, m + 1):
        rungs.append((c(), c()))
        edges += [(i, m + i, rungs[-1][0]), (m + i, i, rungs[-1][1])]
        if i < m:
            along.append((c(), c()))
            edges += [(i, i + 1, along[-1][0]), (m + i, m + i + 1, along[-1][1])]
    edges += [(m, sink, out[0]), (2 * m, sink, out[1])]
    sides = [(a, b) for a in (0, 1) for b in (0, 1)]  # 1: on the source side

    def inside(side, rung):
        a, b = side
        return (a and not b) * rung[0] + (b and not a) * rung[1]

    least = {side: (1 - side[0]) * into[0] + (1 - side[1]) * into[1] + inside(side, rungs[0])
             for side in sides}
    for lanes, rung in zip(along, rungs[1:]):
        least = {
            side: inside(side, rung) + min(
                value + (prev[0] and not side[0]) * lanes[0]
                + (prev[1] and not side[1]) * lanes[1]
                for prev, value in least.items()
            )
            for side in sides
        }
    cut = min(value + side[0] * out[0] + side[1] * out[1] for side, value in least.items())
    graph = oracle.FlowGraph(
        vertex_count=2 * m + 2, edges=tuple(edges), source=0, sink=sink, scale=1,
        infinite=10**6,
    )
    return graph, cut


@pytest.mark.parametrize("build, size", [(_path, 3000), (_ladder, 1499)], ids=["path", "ladder"])
def test_max_flow_has_no_depth_limit(build, size):
    """A blocking flow walks a path as long as the graph's levels without
    recursion: 3,000-vertex graphs, whose shortest paths run far past
    Python's recursion limit, give their min-cut."""
    graph, cut = build(size, random.Random(3))
    assert graph.vertex_count == 3000
    assert max_flow(graph) == cut


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(sink=0), "distinct vertices"),
        (dict(source=6), "distinct vertices"),
        (dict(edges=((0, 1, 3), (1, 5, -1))), "negative endpoint or capacity"),
        (dict(edges=((0, 1, 3), (-1, 5, 2))), "negative endpoint or capacity"),
        (dict(edges=((0, 1, 3), (1, 6, 2))), "endpoint not below 6"),
    ],
)
def test_max_flow_rejects_malformed_graphs(changes, message):
    fields = dict(
        vertex_count=6, edges=((0, 1, 3), (1, 5, 2)), source=0, sink=5, scale=1, infinite=6,
    )
    with pytest.raises(ValueError, match=message):
        max_flow(oracle.FlowGraph(**{**fields, **changes}))


def _reference_build_ifg(cfg, order):
    """`build_ifg` as it was before its wiring was cached: the reference
    that the cached wiring must reproduce edge for edge."""
    nd, rp = cfg.nodes, cfg.repair
    scale, alpha, beta_i, beta_c = oracle._scaled_bandwidths(cfg)
    n, k = nd.n, nd.k

    def orig_in(slot):
        return 1 + 2 * slot

    def orig_out(slot):
        return 2 + 2 * slot

    def new_in(i):
        return 1 + 2 * n + 2 * i

    def new_out(i):
        return 2 + 2 * n + 2 * i

    source = 0
    sink = 2 * n + 2 * k + 1

    def cluster_of(slot):
        return slot // nd.R + 1 if slot < nd.L * nd.R else 0

    finite = []
    for slot in range(n):
        finite.append((orig_in(slot), orig_out(slot), alpha))
    occupant = {}
    step_cluster = []
    seen = {}
    for i, label in enumerate(order.labels):
        seen[label] = seen.get(label, 0) + 1
        h = seen[label]
        if label == 0:
            slot = nd.L * nd.R + (h - 1)
            want = rp.d
        else:
            slot = (label - 1) * nd.R + (h - 1)
            for r in range(nd.R):
                other = (label - 1) * nd.R + r
                if other == slot:
                    continue
                step = occupant.get(other)
                src = orig_out(other) if step is None else new_out(step)
                finite.append((src, new_in(i), beta_i))
            want = rp.d_cross
        helpers = []
        for j in range(i - 1, -1, -1):
            if len(helpers) == want:
                break
            if label == 0 or step_cluster[j] != label:
                helpers.append(new_out(j))
        for other in range(n):
            if len(helpers) == want:
                break
            if other == slot or other in occupant:
                continue
            if label != 0 and cluster_of(other) == label:
                continue
            helpers.append(orig_out(other))
        assert len(helpers) == want
        for src in helpers:
            finite.append((src, new_in(i), beta_c))
        finite.append((new_in(i), new_out(i), alpha))
        occupant[slot] = i
        step_cluster.append(label)

    infinite = sum(c for _, _, c in finite) + 1
    edges = list(finite)
    for slot in range(n):
        edges.append((source, orig_in(slot), infinite))
    for i in range(k):
        edges.append((new_out(i), sink, infinite))
    return oracle.FlowGraph(
        vertex_count=2 * n + 2 * k + 2,
        edges=tuple(edges),
        source=source,
        sink=sink,
        scale=scale,
        infinite=infinite,
    )


# 278 vertices, and coefficients up to 301
WIDE_LAYOUTS = (cfg(128, 10, 12, 10, 8, 4, 2, 1, 10), cfg(304, 3, 2, 2, 300, 300, 2, 1, 10))


def _reference_pairs():
    """(config, order): every order of every tiny-family config and its
    E=2 analogue, the criterion-2 triples, and the capacity-achieving
    orders of the two wide layouts."""
    tiny = oracle.FAMILIES["tiny"]().configs
    configs = dict.fromkeys(tiny + tuple(_with_separate(c, 2) for c in tiny))
    assert {c.nodes.E for c in configs} == {0, 1, 2}
    pairs = [
        (config, order)
        for config in configs
        for dist in enumerate_distributions(config.nodes)
        for order in enumerate_orders(dist)
    ]
    pairs += [(config, order) for config, _, order in sample_sweep_triples(1000, seed=0)]
    pairs += [(wide, capacity_achiever(wide)[1]) for wide in WIDE_LAYOUTS]
    return pairs


def test_cached_wiring_matches_reference_graph():
    """On every pair of `_reference_pairs` the graph from the cached
    wiring equals the reference graph edge for edge, on warm caches too."""
    for wide in WIDE_LAYOUTS:
        _, order = capacity_achiever(wide)
        rp = wide.repair
        assert part_incoming_weights(wide, order) == tuple(
            a * rp.beta_intra + b * rp.beta_cross
            for a, b, _ in incoming_coefficients(rp.d_intra, rp.d_cross, order)
        )
    for config, order in _reference_pairs():
        assert build_ifg(config, order) == _reference_build_ifg(config, order)
    assert oracle._ifg_wiring.cache_info().hits


def test_capacity_fill_gives_the_max_flow_of_the_reference_graph():
    """`ifg_mincut` fills the arc capacities with the picker and the edge
    counts cached with the wiring; on every pair of `_reference_pairs` it
    gives the max-flow of the reference graph, built without the cached
    wiring.  Where alpha and both bandwidths are positive, the levels
    cached with the wiring are those that the first Dinic phase labels on
    the filled capacities; elsewhere (alpha = 0) `ifg_mincut` labels
    them itself."""
    cached = labelled = 0
    for config, order in _reference_pairs():
        reference = _reference_build_ifg(config, order)
        assert ifg_mincut(config, order) == Fraction(max_flow(reference), reference.scale)
        wiring, _, capacity = oracle._ifg_capacities(config, order)
        starts, to, rev, _, _, pick, _, levels, _ = wiring
        if all(capacity[:3]):
            cap = list(pick(capacity))
            assert list(levels) == oracle._levels(starts, to, rev, cap, 0, len(starts) - 2)
            cached += 1
        else:
            labelled += 1
    assert cached and labelled


def _every_order_pairs():
    """(orders, triples), each a list of (config, order): every order of
    every tiny-family config and its E=2 and E=3 analogues, and the 1000
    criterion-2 triples."""
    tiny = oracle.FAMILIES["tiny"]().configs
    configs = dict.fromkeys(tiny + tuple(_with_separate(c, E) for E in (2, 3) for c in tiny))
    assert {c.nodes.E for c in configs} == {0, 1, 2, 3}
    pairs = [
        (config, order)
        for config in configs
        for dist in enumerate_distributions(config.nodes)
        for order in enumerate_orders(dist)
    ]
    return pairs, [(config, order) for config, _, order in sample_sweep_triples(1000, seed=0)]


def test_cached_arcs_give_the_max_flow_of_the_built_graph():
    """`ifg_mincut` runs Dinic on the residual arcs cached with the wiring,
    and `max_flow` builds them from the `FlowGraph`: both give the same
    value on every pair of `_every_order_pairs`, among them the 10
    criterion-2 triples whose max-flow falls below the part-cut.  On each
    of them the sum of cut-table entries (`_Search.order_cut`) is the
    part-cut, scaled."""
    orders, triples = _every_order_pairs()
    searches = {}
    for config, order in orders + triples:
        graph = build_ifg(config, order)
        assert ifg_mincut(config, order) == Fraction(max_flow(graph), graph.scale)
        if config not in searches:
            searches[config] = oracle._Search(config)
        search = searches[config]
        assert search.order_cut(order) == mincut(config, order).value * search.scale
    gaps = [pair for pair in triples if ifg_mincut(*pair) < mincut(*pair).value]
    assert len(gaps) == 10
    pinned = cfg(9, 8, 2, 4, 1, 5, 2, 1, 7), ClusterOrder((0, 2, 1, 2, 2, 1, 1, 1))
    assert pinned in gaps
    assert (ifg_mincut(*pinned), mincut(*pinned).value) == (40, 42)


def _spy_on_dinic(monkeypatch):
    """Record from here on the `bound` of each `_dinic` call, and whether
    each level pass reaches the source."""
    seen = {"bounds": [], "found": []}
    dinic, levels = oracle._dinic, oracle._levels

    def spy_dinic(starts, to, rev, cap, s, t, level=None, bound=None):
        seen["bounds"].append(bound)
        return dinic(starts, to, rev, cap, s, t, level, bound)

    def spy_levels(*args):
        level = levels(*args)
        seen["found"].append(level is not None)
        return level

    monkeypatch.setattr(oracle, "_dinic", spy_dinic)
    monkeypatch.setattr(oracle, "_levels", spy_levels)
    return seen


def test_ifg_bound_is_the_part_cut_of_its_own_graph(monkeypatch):
    """The bound that `ifg_mincut` gives Dinic, read from the wiring's
    helper counts, is the scaled part-cut `mincut` on every pair of
    `_every_order_pairs`.  On the 10 criterion-2 triples whose max-flow
    falls below it, the flow never reaches it: Dinic runs to a level
    pass that finds no path, and the value is still the max-flow of the
    reference graph.  On the capacity-achieving order of every tiny
    config the flow reaches it, and no level pass comes back empty."""
    orders, triples = _every_order_pairs()
    seen = _spy_on_dinic(monkeypatch)
    for config, order in orders + triples:
        ifg_mincut(config, order)
        part = mincut(config, order).value
        assert seen["bounds"].pop() == part * oracle._scaled_bandwidths(config)[0]
    gaps = [pair for pair in triples if ifg_mincut(*pair) < mincut(*pair).value]
    assert len(gaps) == 10
    for config, order in gaps:
        seen["found"].clear()  # after the level pass that built the cached levels
        flow = ifg_mincut(config, order)
        assert seen["found"] and not seen["found"][-1]
        reference = _reference_build_ifg(config, order)
        assert flow == Fraction(max_flow(reference), reference.scale)
    for config in oracle.FAMILIES["tiny"]().configs:
        _, order = capacity_achiever(config)
        oracle._ifg_capacities(config, order)
        seen["found"].clear()
        assert ifg_mincut(config, order) == system_capacity(config)
        assert all(seen["found"]), config.describe()


def test_rejected_order_is_rejected_on_every_call():
    """Rejections are not cached: a bad order fails on its second call
    too, after the layout's valid orders have filled the caches."""
    one_separate = cfg(5, 3, 2, 2, 1, 3, 2, 1, 10)
    table_cut = oracle._Search(one_separate).order_cut
    evaluators = (mincut, build_ifg, lambda config, order: table_cut(order))
    for evaluate in evaluators:
        evaluate(one_separate, ClusterOrder((1, 1, 0)))
    rejected = {
        (0, 0, 1): "order selects 2 separate nodes but E=1",
        (1, 1, 1): "order selects 3 nodes from cluster 1 but R=2",
        (1, 3, 1): r"cluster label exceeds L=2 in \(1, 3, 1\)",
        (1, 1): "order has 2 entries, config has k=3",
    }
    for labels, message in rejected.items():
        for evaluate in evaluators:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    evaluate(one_separate, ClusterOrder(labels))
    # a wiring that cannot find its helpers (d_cross beyond any valid
    # config) is refused on every call as well
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot find 5 helpers at repair step 1"):
            oracle._ifg_wiring((1,), 1, 2, 2, 0, 1, 5)


def test_order_cut_caches_no_rejected_order():
    """`order_cut` reads an order's ranks from a cache keyed by its
    labels: a bad order raises ValueError on two calls in a row and
    leaves no entry, while a valid one is checked once."""
    search = oracle._Search(cfg(5, 3, 2, 2, 1, 3, 2, 1, 10))
    oracle._order_ranks.cache_clear()
    assert search.order_cut(ClusterOrder((1, 1, 0))) == search.order_cut(ClusterOrder((1, 1, 0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="order selects 2 separate nodes but E=1"):
            search.order_cut(ClusterOrder((0, 0, 1)))
    info = oracle._order_ranks.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 3)


def test_graph_lower_bounds_formula_on_sampled_triples():
    """The explicit graph's true min-cut never exceeds the structured
    part-cut value, and they agree at every capacity-achieving pair."""
    for config, dist, order in sample_sweep_triples(120, seed=7):
        formula = mincut(config, order).value
        graph = ifg_mincut(config, order)
        assert graph <= formula
    configs = sweep_configs(L_values=(2,), R_values=(2, 3), E_values=(0, 1, 2), k_max=5)
    for config in configs[::7]:
        dist, order = capacity_achiever(config)
        assert ifg_mincut(config, order) == mincut(config, order).value
        assert mincut(config, order).value == system_capacity(config)


def test_known_structured_cut_gap_counterexample():
    """Pinned instance where the part-cut value strictly exceeds the true
    graph min-cut: the unselected cluster-2 original helps three newcomers,
    and paying its alpha edge (5) beats cutting its three outgoing edges.
    This is why pointwise formula==max-flow cannot hold for arbitrary
    sequences; capacity-level equality is unaffected (tests below)."""
    config = cfg(5, 4, 2, 2, 1, 3, 3, 1, 5)
    order = ClusterOrder((0, 2, 1, 1))
    assert mincut(config, order).value == 14
    assert ifg_mincut(config, order) == 13
    # the gap never reaches below the capacity
    assert system_capacity(config) == 13
    assert brute_force_capacity(config).value == 13


def test_graph_capacity_equals_closed_form_small():
    """min over selections and orders of the true graph min-cut equals
    the closed-form capacity (spot check; slow path)."""
    from clustercap.model import iter_orders

    for config in (
        cfg(5, 3, 2, 2, 1, 3, 2, 1, 2),
        cfg(5, 4, 2, 2, 1, 3, 3, 1, 5),
        cfg(6, 4, 2, 3, 0, 3, 2, 1, 4),
        cfg(7, 5, 3, 2, 1, 4, 3, 2, 6),
    ):
        best = min(
            ifg_mincut(config, order)
            for dist in enumerate_distributions(config.nodes)
            for order in iter_orders(dist)
        )
        assert best == system_capacity(config)


def test_closed_form_equals_search_on_random_configs():
    for config in sweep_configs(L_values=(2, 3), R_values=(2, 3), k_max=6)[::11]:
        assert system_capacity(config) == brute_force_capacity(config).value


@st.composite
def small_configs(draw):
    """Configs with E up to 3, rationals with small denominators, and at
    most 2,000 sequences in total."""
    L, R, E = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    n = L * R + E
    # largest k first: Hypothesis favours the first element of sampled_from
    ks = [
        k for k in range(n - 1, 0, -1)
        if enumeration_size(NodeParams(n=n, k=k, L=L, R=R, E=E)) <= 2_000
    ]
    assume(ks)
    k = draw(st.sampled_from(ks))
    d_cross = draw(st.integers(max(0, k - R + 1), n - R))
    denominators = st.integers(1, 4)
    beta_c = Fraction(draw(st.integers(0, 6)), draw(denominators))
    beta_i = beta_c + Fraction(draw(st.integers(0, 6)), draw(denominators))
    alpha = Fraction(draw(st.integers(0, 30)), draw(denominators))
    return cfg(n, k, L, R, E, d_cross, beta_i, beta_c, alpha)


@given(small_configs())
@settings(max_examples=100, deadline=None)
def test_brute_force_matches_first_naive_minimizer(config):
    """The scan returns the value and the (distribution, order) of the
    first minimizer of `mincut` in scan order: distributions as
    enumerated, sequences lexicographic with the separate label last.  The
    closed form and the lattice DP give its value for every E."""
    scan_key = lambda o: tuple(config.nodes.L + 1 if x == 0 else x for x in o.labels)
    best = None
    for dist in enumerate_distributions(config.nodes):
        for order in sorted(enumerate_orders(dist), key=scan_key):
            value = mincut(config, order).value
            if best is None or value < best[0]:
                best = (value, dist, order)
    result = brute_force_capacity(config)
    assert (result.value, result.distribution, result.order) == best
    assert system_capacity(config) == best[0]
    assert lattice_capacity(config) == best[0]


def _with_separate(config, E):
    nd, rp = config.nodes, config.repair
    return cfg(
        nd.L * nd.R + E, nd.k, nd.L, nd.R, E, rp.d_cross,
        rp.beta_intra, rp.beta_cross, rp.alpha,
    )


def _assert_achieves(config, value):
    dist, order = capacity_achiever(config)
    assert dist.is_member(config.nodes)
    assert order.matches(dist)
    assert mincut(config, order).value == value


def test_lattice_capacity_matches_closed_form_and_search_on_sweep():
    """Every other sweep config and its E=2 and E=3 analogues: the DP value
    is the closed form, whose achiever's order has that min-cut; on the
    analogues with at most 2,000 orders the exhaustive scan agrees."""
    configs = sweep_configs()[::2]
    analogues = list(dict.fromkeys(_with_separate(c, E) for E in (2, 3) for c in configs))
    searched = 0
    for config in configs + analogues:
        value = system_capacity(config)
        assert lattice_capacity(config) == value
        _assert_achieves(config, value)
        if config.nodes.E >= 2 and enumeration_size(config.nodes) <= 2_000:
            assert brute_force_capacity(config).value == value
            searched += 1
    assert searched


def test_lattice_capacity_large_instance():
    """Far beyond the exhaustive scan: the DP value is the closed form, and
    the constructive achiever realizes it."""
    config = cfg(40, 30, 8, 4, 8, 30, 2, 1, Fraction(31, 2))
    value = system_capacity(config)
    assert lattice_capacity(config) == value
    _assert_achieves(config, value)


def test_lattice_capacity_state_budget():
    config = cfg(6, 3, 2, 2, 2, 3, 2, 1, 100)
    with pytest.raises(BudgetExceeded) as err:
        lattice_capacity(config, budget=3)
    assert (err.value.size, err.value.budget, err.value.unit) == (4, 3, "lattice states")


def test_search_argmin_achievable_by_construction_when_no_separate():
    for config in sweep_configs(L_values=(2,), R_values=(2, 3), E_values=(0,), k_max=5)[::5]:
        result = brute_force_capacity(config)
        dist = horizontal_selection(config.nodes, 0)
        constructed = mincut(config, vertical_order(dist)).value
        assert constructed == result.value


def test_verify_claims_tiny_family_all_pass():
    reports = verify_claims("tiny")
    failures = [r for r in reports if not r.passed]
    assert not failures, failures[:5]
    claims = {r.claim for r in reports}
    assert {
        "lemma1-multiset", "lemma2-sum", "prop1-vertical", "prop2-horizontal",
        "thm1-fixed-separate", "thm2-monotone", "thm3-capacity",
        "thm4-dichotomy", "closed-form-vs-search",
    } <= claims


def _scaled_config(config, factor):
    nd, rp = config.nodes, config.repair
    return cfg(
        nd.n, nd.k, nd.L, nd.R, nd.E, rp.d_cross,
        rp.beta_intra * factor, rp.beta_cross * factor, rp.alpha * factor,
    )


def test_verify_claims_pass_on_rational_bandwidths():
    """Every tiny-family config has integer bandwidths (scale 1); scaled by
    2/7 the checkers compare scaled integers against rational bounds."""
    configs = tuple(
        _scaled_config(c, Fraction(2, 7)) for c in oracle.FAMILIES["tiny"]().configs
    )
    assert all(oracle._scaled_bandwidths(c)[0] == 7 for c in configs)
    family = VerificationFamily(name="tiny-2/7", configs=configs, claims=oracle.ALL_CLAIMS)
    failures = [r for r in verify_claims(family) if not r.passed]
    assert not failures, failures[:5]


PLANTED = cfg(7, 5, 3, 2, 1, 4, Fraction(3, 2), Fraction(1, 3), Fraction(5, 2))
# PLANTED's layout and bandwidths at alpha = 2, where a clustered order's cut
# lies above the constructed one (at alpha = 5/2 the two tie)
PLANTED_AT_2 = cfg(7, 5, 3, 2, 1, 4, Fraction(3, 2), Fraction(1, 3), 2)
RAISE = Fraction(1, 1000)


def _only_report(claim, config=PLANTED):
    family = VerificationFamily(name="planted", configs=(config,), claims=(claim,))
    (report,) = verify_claims(family)
    return report


def _clustered(order):
    """`order` with its cluster labels sorted and each separate node kept
    in place: a wrong construction that repairs one cluster after another."""
    labels = iter(sorted(x for x in order.labels if x))
    return ClusterOrder(tuple(x and next(labels) for x in order.labels))


def test_thm1_flags_planted_violation_on_rational_config(monkeypatch):
    """A clustered order in place of the constructed one at every location:
    the vertical order of the same selection cuts below it."""
    assert oracle._scaled_bandwidths(PLANTED_AT_2)[0] == 6
    constructed = oracle.optimal_order_with_separate_at
    monkeypatch.setattr(
        oracle,
        "optimal_order_with_separate_at",
        lambda nodes, j: _clustered(constructed(nodes, j)),
    )
    report = _only_report("thm1-fixed-separate", PLANTED_AT_2)
    assert not report.passed
    match = re.search(
        r"order=\(([\d, ]+)\) separate at (\d+): (\S+) < constructed (\S+)$",
        report.counterexample,
    )
    assert match, report.counterexample
    labels = tuple(int(x) for x in match[1].split(","))
    j, value, bound = int(match[2]), Fraction(match[3]), Fraction(match[4])
    assert labels.index(0) + 1 == j
    assert value == mincut(PLANTED_AT_2, ClusterOrder(labels=labels)).value
    assert bound == mincut(PLANTED_AT_2, _clustered(constructed(PLANTED_AT_2.nodes, j))).value
    assert value < bound
    # the first violating order in scan order, byte for byte
    assert report.counterexample == (
        "s=(1; 2, 2, 0) order=(1, 2, 1, 2, 0) separate at 5: 6 < constructed 19/3"
    )


def test_prop1_flags_planted_violation_on_rational_config(monkeypatch):
    """A clustered order in place of the vertical one: the first least
    order of the distribution cuts below it."""
    vertical = oracle.vertical_order
    monkeypatch.setattr(oracle, "vertical_order", lambda dist: _clustered(vertical(dist)))
    report = _only_report("prop1-vertical", PLANTED_AT_2)
    assert not report.passed
    match = re.search(r"order \(([\d, ]+)\) gives (\S+) < (\S+)$", report.counterexample)
    assert match, report.counterexample
    labels = tuple(int(x) for x in match[1].split(","))
    value, bound = Fraction(match[2]), Fraction(match[3])
    dist = SelectedNodeDistribution(
        separate=0, clusters=tuple(labels.count(c) for c in range(1, PLANTED_AT_2.nodes.L + 1))
    )
    assert value == mincut(PLANTED_AT_2, ClusterOrder(labels=labels)).value
    assert bound == mincut(PLANTED_AT_2, _clustered(vertical(dist))).value
    assert value < bound
    # the first minimum of the first failing distribution, byte for byte
    assert report.counterexample == "s=(0; 2, 2, 1): order (1, 2, 3, 1, 2) gives 7 < 15/2"


def test_prop2_flags_planted_violation(monkeypatch):
    """A selection that is not horizontal put in place of the horizontal
    one: the horizontal selection's vertical cut lies below it, and the
    report names it."""
    config = cfg(7, 4, 3, 2, 1, 4, Fraction(3, 2), Fraction(1, 3), Fraction(5, 2))
    star = horizontal_selection(config.nodes, 0)
    wrong = SelectedNodeDistribution(separate=0, clusters=(2, 1, 1))
    assert (mincut(config, vertical_order(star)).value,
            mincut(config, vertical_order(wrong)).value) == (Fraction(20, 3), Fraction(47, 6))
    monkeypatch.setattr(oracle, "horizontal_selection", lambda nodes, s0: wrong)
    report = _only_report("prop2-horizontal", config)
    assert not report.passed
    assert report.counterexample == "s=(0; 2, 2, 0) gives 20/3 < 47/6 at s*=(0; 2, 1, 1)"


def test_prop2_passes_without_an_all_cluster_selection():
    """k = 5 > L*R = 4: every selection takes a separate node, so there is
    no horizontal selection to check, and every claim passes."""
    configs = tuple(
        cfg(7, 5, 2, 2, 3, d_cross, 2, 1, alpha) for d_cross in (4, 5) for alpha in (1, 3, 100)
    )
    family = VerificationFamily(name="k>LR", configs=configs, claims=oracle.ALL_CLAIMS)
    reports = verify_claims(family)
    assert len(reports) == len(configs) * len(oracle.ALL_CLAIMS)
    assert all(r.passed and r.counterexample is None for r in reports)


def test_thm2_flags_planted_violation(monkeypatch):
    """A clustered order in place of the constructed one at the last
    location cuts above the constructed one before it: the first increase
    is reported."""
    k = PLANTED_AT_2.nodes.k
    assert [mincut_by_location(PLANTED_AT_2, j) for j in range(1, k + 1)] == [
        Fraction(20, 3), Fraction(19, 3), 6, 6, 6
    ]
    constructed = oracle.optimal_order_with_separate_at
    monkeypatch.setattr(
        oracle,
        "optimal_order_with_separate_at",
        lambda nodes, j: _clustered(constructed(nodes, j)) if j == k else constructed(nodes, j),
    )
    report = _only_report("thm2-monotone", PLANTED_AT_2)
    assert not report.passed
    assert report.counterexample == "MC at j=4 is 6 < MC at j=5 = 19/3"


def test_thm3_flags_planted_violation(monkeypatch):
    """A closed form raised by RAISE departs from the cut with the separate
    node last."""
    closed = oracle.system_capacity
    monkeypatch.setattr(oracle, "system_capacity", lambda c: closed(c) + RAISE)
    report = _only_report("thm3-capacity")
    assert not report.passed
    assert report.counterexample == "MC at j=k is 7 but closed form gives 7001/1000"


def test_verify_claims_pass_with_two_or_three_separate_nodes(monkeypatch):
    """The tiny family's E=2 and E=3 analogues pass every claim, and
    closed-form-vs-search compares there: a planted error fails it."""
    configs = tuple(
        dict.fromkeys(
            _with_separate(c, E) for E in (2, 3) for c in oracle.FAMILIES["tiny"]().configs
        )
    )
    family = VerificationFamily(name="tiny-E23", configs=configs, claims=oracle.ALL_CLAIMS)
    failures = [r for r in verify_claims(family) if not r.passed]
    assert not failures, failures[:5]
    closed = oracle.system_capacity
    monkeypatch.setattr(oracle, "system_capacity", lambda c: closed(c) + RAISE)
    planted = VerificationFamily(
        name="planted", configs=configs[:1], claims=("closed-form-vs-search",)
    )
    (report,) = verify_claims(planted)
    assert not report.passed


@pytest.fixture
def fresh_lemma1_verdicts():
    """A planted coefficient must not leave its verdict in the cache."""
    oracle._lemma1_counterexample.cache_clear()
    yield
    oracle._lemma1_counterexample.cache_clear()


def test_lemma1_flags_planted_violation(monkeypatch, fresh_lemma1_verdicts):
    """An intra coefficient raised by one at rank 1 on position 4 changes
    the multiset of the orders that put a cluster's first node there; the
    report names the first of them in scan order against the first
    order's multiset."""
    real = oracle._coefficient

    def planted(i, h, is_separate, d_intra, d_cross):
        a, b, separate = real(i, h, is_separate, d_intra, d_cross)
        return (a + 1 if (i, h, separate) == (4, 1, False) else a), b, separate

    monkeypatch.setattr(oracle, "_coefficient", planted)
    report = _only_report("lemma1-multiset")
    assert not report.passed
    assert report.counterexample == (
        "s=(0; 2, 2, 1) order=(1, 1, 2, 3, 2) intra multiset (0, 0, 1, 1, 2) != (0, 0, 1, 1, 1)"
    )


@pytest.fixture
def fresh_constructed_verdicts():
    """A planted coefficient or verdict must not leave its text in the
    Lemma 2 and Theorem 4 caches."""
    for cached in (oracle._lemma2_counterexample, oracle._thm4_counterexample):
        cached.cache_clear()
    yield
    for cached in (oracle._lemma2_counterexample, oracle._thm4_counterexample):
        cached.cache_clear()


def _alpha_variants(config, alphas):
    nd, rp = config.nodes, config.repair
    return tuple(
        cfg(nd.n, nd.k, nd.L, nd.R, nd.E, rp.d_cross, rp.beta_intra, rp.beta_cross, a)
        for a in alphas
    )


def test_lemma2_flags_planted_violation(monkeypatch, fresh_constructed_verdicts):
    """A changed coefficient at position 2 of the constructed sequence is
    reported, and the cached verdict serves every alpha of the layout."""
    calls = []
    real = oracle.incoming_coefficients

    def planted(d_intra, d_cross, order):
        calls.append(order)
        (a1, b1, s1), (a2, b2, s2), *rest = real(d_intra, d_cross, order)
        return ((a1, b1, s1), (a2 + 1, b2, s2), *rest)

    _, order = capacity_achiever(PLANTED)
    (a, b, _) = real(1, 4, order)[1]
    assert a + b == 4
    monkeypatch.setattr(oracle, "incoming_coefficients", planted)
    configs = _alpha_variants(PLANTED, (Fraction(5, 2), 3, 100))
    family = VerificationFamily(name="planted", configs=configs, claims=("lemma2-sum",))
    reports = verify_claims(family)
    assert calls == [order]
    assert [r.passed for r in reports] == [False] * 3
    assert {r.counterexample for r in reports} == {f"position 2 of {order}: {a + 1}+{b} != 4"}


def test_thm4_flags_planted_violation(monkeypatch, fresh_constructed_verdicts):
    """A flipped comparison verdict is reported, and the cached verdict
    serves every alpha of the layout and bandwidths."""
    calls = []
    real = oracle.compare_separate

    def flipped(nodes, repair):
        calls.append(repair)
        verdict = real(nodes, repair)
        outcome = (
            oracle.Outcome.REDUCED
            if verdict.outcome is oracle.Outcome.EQUAL
            else oracle.Outcome.EQUAL
        )
        return type(verdict)(outcome, verdict.capacity_without, verdict.capacity_with)

    monkeypatch.setattr(oracle, "compare_separate", flipped)
    base = cfg(6, 5, 3, 2, 0, 4, Fraction(3, 2), Fraction(1, 3), Fraction(5, 2))
    configs = _alpha_variants(base, (Fraction(5, 2), 1, 100))
    family = VerificationFamily(name="planted", configs=configs, claims=("thm4-dichotomy",))
    reports = verify_claims(family)
    (uncapped,) = calls
    weights = oracle.cluster_weight_values(5, 2, 4, Fraction(3, 2), Fraction(1, 3))
    assert uncapped.alpha == sum(weights) + 1
    verdict = real(base.nodes, uncapped)
    assert [r.passed for r in reports] == [False] * 3
    assert {r.counterexample for r in reports} == {
        f"expected Reduced (k=5, R=2), got Equal: without={verdict.capacity_without} "
        f"with={verdict.capacity_with}"
    }


def _families_for_context_check():
    tiny = oracle.FAMILIES["tiny"]().configs
    return {
        "tiny": tiny,
        "tiny-2/7": tuple(_scaled_config(c, Fraction(2, 7)) for c in tiny),
        "tiny-E23": tuple(dict.fromkeys(_with_separate(c, E) for E in (2, 3) for c in tiny)),
    }


@pytest.mark.parametrize("name", ["tiny", "tiny-2/7", "tiny-E23"])
def test_shared_context_matches_each_checker_alone(name):
    """verify_claims shares one evaluation context among the claims of a
    config; each checker run alone on a fresh context reports the same."""
    configs = _families_for_context_check()[name]
    family = VerificationFamily(name=name, configs=configs, claims=oracle.ALL_CLAIMS)
    alone = [
        oracle.VerificationReport(
            c.describe(), claim, *oracle._CHECKERS[claim](oracle._EvaluationContext(c))
        )
        for c in configs
        for claim in oracle.ALL_CLAIMS
    ]
    assert verify_claims(family) == alone


@pytest.mark.parametrize("name", ["tiny", "tiny-2/7", "tiny-E23"])
def test_reports_do_not_depend_on_cache_state(name, structural_caches):
    """The structure cached across configs is keyed by everything it
    depends on: clearing every cache before each config gives the reports
    of a run on caches that the whole family has warmed."""
    configs = _families_for_context_check()[name]
    family = VerificationFamily(name=name, configs=configs, claims=oracle.ALL_CLAIMS)
    verify_claims(family)
    warm = verify_claims(family)
    cold = []
    for config in configs:
        for cached in structural_caches.values():
            cached.cache_clear()
        one = VerificationFamily(name=name, configs=(config,), claims=oracle.ALL_CLAIMS)
        cold += verify_claims(one)
    assert cold == warm


def test_verify_claims_unknown_family():
    with pytest.raises(ValueError):
        verify_claims("nope")


def test_verify_reports_are_deterministic():
    first = verify_claims("tiny")
    second = verify_claims("tiny")
    assert first == second


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_sampled_triples_are_reproducible(seed):
    a = sample_sweep_triples(3, seed=seed)
    b = sample_sweep_triples(3, seed=seed)
    assert [(c.describe(), d, o) for c, d, o in a] == [
        (c.describe(), d, o) for c, d, o in b
    ]


def test_criterion_2_triples_are_pinned():
    """Acceptance criterion 2 reads these 1000 triples; their digest was
    recorded before the sweep grid moved into module constants."""
    triples = repr(sample_sweep_triples(1000, seed=0)).encode()
    assert hashlib.sha256(triples).hexdigest() == (
        "1936d3357570ddfe1483bfb956e978ebbdbea7030c1df4169dd9a6318c16c20f"
    )


def _reference_alpha_values(k, R, E, d_cross, beta_intra, beta_cross):
    """The alpha grid on Fraction weights, as the sweep built it before
    its grid moved to integers."""
    values = weight_values.__wrapped__(k, E, R, d_cross, beta_intra, beta_cross)
    grid = {Fraction(0), sum(values, start=Fraction(0))}
    grid.update(values)
    return sorted(grid)


def _reference_sweep(L_values, R_values, E_values, k_max, beta_pairs):
    """(key, configs) per grid key, each config built by `validate_config`
    at Fraction bandwidths over `_reference_alpha_values`."""
    for L in L_values:
        for R in R_values:
            for E in E_values:
                n = L * R + E
                for k in range(2, min(k_max, n - 1) + 1):
                    for d_cross in range(max(0, k - R + 1), n - R + 1):
                        for bi, bc in beta_pairs:
                            key = (k, R, E, d_cross, Fraction(bi), Fraction(bc))
                            yield key, [
                                validate_config(n=n, k=k, L=L, R=R, E=E, d_cross=d_cross,
                                                beta_intra=key[4], beta_cross=key[5], alpha=alpha)
                                for alpha in _reference_alpha_values(*key)
                            ]


SWEEP_GRIDS = {
    "default": {},
    "tiny": dict(L_values=(2,), R_values=(2, 3), k_max=4, beta_pairs=((1, 1), (2, 1))),
    "E0-3-fractional": dict(
        L_values=(2,), R_values=(2, 3), E_values=(0, 1, 2, 3), k_max=6,
        beta_pairs=((Fraction(3, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(5, 2)),
                    (Fraction(4, 3), Fraction(1, 2))),
    ),
}


@pytest.mark.parametrize("grid", SWEEP_GRIDS)
def test_sweep_family_equals_the_fraction_reference(grid):
    """Config by config, the integer-built family equals the one built
    through `validate_config` on Fraction weights, field types included
    (the reprs), and describes itself the same; `sweep_alpha_values`
    returns the reference list on every key, at Fraction bandwidths and
    at the grid's own ones."""
    kwargs = {"L_values": oracle.SWEEP_L_VALUES, "R_values": oracle.SWEEP_R_VALUES,
              "E_values": oracle.SWEEP_E_VALUES, "k_max": oracle.SWEEP_K_MAX,
              "beta_pairs": oracle.SWEEP_BETA_PAIRS, **SWEEP_GRIDS[grid]}
    built = oracle.FAMILIES["tiny"]().configs if grid == "tiny" else sweep_configs(**kwargs)
    keys = list(_reference_sweep(**kwargs))
    reference = [config for _, configs in keys for config in configs]
    assert len(built) == len(reference)
    for got, want in zip(built, reference):
        assert repr(got) == repr(want) and got.describe() == want.describe()
    for (k, R, E, d_cross, bi, bc), _ in keys:
        want = [(type(a), a) for a in _reference_alpha_values(k, R, E, d_cross, bi, bc)]
        pairs = [(bi, bc)]
        if bi.denominator == bc.denominator == 1:
            pairs.append((int(bi), int(bc)))
        for pair in pairs:
            got = oracle.sweep_alpha_values(k, R, E, d_cross, *pair)
            assert [(type(a), a) for a in got] == want, (k, R, E, d_cross, pair)


def test_sweep_family_is_built_on_integers(monkeypatch):
    """Building the default family makes no Fraction comparison, addition
    or multiplication, and its 6,896 configs share one `NodeParams` per
    layout, 67 in all."""
    counts = {}
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__",
                 "__add__", "__radd__", "__mul__", "__rmul__"):

        def counted(a, b, real=getattr(Fraction, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    _reference_alpha_values(4, 2, 1, 3, Fraction(3), Fraction(2))
    assert counts, "the counters see the Fraction reference's operators"
    counts.clear()
    configs = sweep_configs()
    assert counts == {}
    assert len(configs) == 6896
    assert len({id(config.nodes) for config in configs}) == len({c.nodes for c in configs}) == 67


def _count_passes(monkeypatch):
    """Count the distribution enumerations and value passes the oracle
    makes from here on."""
    counts = {"enumerate": 0, "pass": 0}
    enumerate_, forward = oracle.enumerate_distributions, oracle._forward_values

    def counted_enumerate(nodes):
        counts["enumerate"] += 1
        return enumerate_(nodes)

    def counted_pass(*args):
        counts["pass"] += 1
        return forward(*args)

    monkeypatch.setattr(oracle, "enumerate_distributions", counted_enumerate)
    monkeypatch.setattr(oracle, "_forward_values", counted_pass)
    return counts


def test_claims_of_a_config_share_one_search(monkeypatch):
    """verify_claims enumerates a config's distributions once and runs one
    value pass over its lattice, which serves the search, prop1 and
    thm1's pinned-location check alike."""
    configs = oracle.FAMILIES["tiny"]().configs[::9] + (PLANTED,)
    assert {c.nodes.E for c in configs} == {0, 1}
    counts = _count_passes(monkeypatch)
    for config in configs:
        counts.update({"enumerate": 0, "pass": 0})
        family = VerificationFamily(name="one", configs=(config,), claims=oracle.ALL_CLAIMS)
        assert all(r.passed for r in verify_claims(family))
        assert counts == {"enumerate": 1, "pass": 1}


def _sweep_op(config):
    """One oracle-sweep op: the nine claims of a config, its
    capacity-achieving order and the max-flow of that order's graph."""
    family = VerificationFamily(name="op", configs=(config,), claims=oracle.ALL_CLAIMS)
    reports = verify_claims(family)
    _, order = capacity_achiever(config)
    return reports, ifg_mincut(config, order)


def test_warm_sweep_op_hashes_no_record(monkeypatch):
    """On warm caches an oracle-sweep op hashes no record at E = 0, 1 and
    2, also on a config equal to the one that warmed them but not the
    same object: every cache it reads is keyed by plain ints.  The one
    record comparison left is prop2's lookup of the horizontal selection
    among the all-cluster distributions."""
    for E in (0, 1, 2):
        _sweep_op(_with_separate(PLANTED, E))
    counts = {"hash": 0, "eq": 0}
    real_hash, real_eq = model.Record.__hash__, model.Record.__eq__

    def counted_hash(record):
        counts["hash"] += 1
        return real_hash(record)

    def counted_eq(record, other):
        counts["eq"] += 1
        return real_eq(record, other)

    monkeypatch.setattr(model.Record, "__hash__", counted_hash)
    monkeypatch.setattr(model.Record, "__eq__", counted_eq)
    for E in (0, 1, 2):
        config = _with_separate(PLANTED, E)
        counts["eq"] = 0
        reports, flow = _sweep_op(config)
        assert all(r.passed for r in reports)
        assert flow == system_capacity(config)
        assert counts == {"hash": 0, "eq": 1}, E


def test_budget_is_checked_before_any_scan(monkeypatch):
    counts = _count_passes(monkeypatch)
    size = enumeration_size(PLANTED.nodes)
    with pytest.raises(BudgetExceeded) as err:
        brute_force_capacity(PLANTED, budget=size - 1)
    assert (err.value.size, err.value.budget, counts["pass"]) == (size, size - 1, 0)
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", size - 1)
    family = VerificationFamily(name="planted", configs=(PLANTED,), claims=oracle.ALL_CLAIMS)
    with pytest.raises(BudgetExceeded) as err:
        verify_claims(family)
    assert (err.value.size, err.value.budget, counts["pass"]) == (size, size - 1, 0)


def test_budget_is_checked_before_any_lattice_is_built():
    """An over-budget layout (about 1.3e42 orders) is refused on its order
    count alone: its lattice edges are neither built nor cached."""
    config = cfg(70, 45, 10, 6, 10, 40, 2, 1, 100)
    oracle._lattice_edges.cache_clear()
    with pytest.raises(BudgetExceeded) as err:
        brute_force_capacity(config)
    assert err.value.size == enumeration_size(config.nodes) > 10**42
    family = VerificationFamily(name="huge", configs=(config,), claims=oracle.ALL_CLAIMS)
    with pytest.raises(BudgetExceeded):
        verify_claims(family)
    assert oracle._lattice_edges.cache_info().misses == 0


def test_repeated_refusal_reads_the_cached_order_total(monkeypatch):
    """A layout's order total is summed once: of two refusals of an
    over-budget layout (2,170 distributions), the second evaluates no
    `order_count`, wherever the search and the total look it up."""
    config = cfg(70, 45, 10, 6, 10, 40, 2, 1, 100)
    count, counted = model.order_count, []

    def counted_order_count(dist):
        counted.append(dist)
        return count(dist)

    for module in (model, oracle):
        monkeypatch.setattr(module, "order_count", counted_order_count, raising=False)
    model._enumeration_size.cache_clear()
    refusals = []
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            brute_force_capacity(config)
        refusals.append(len(counted))
        counted.clear()
    assert refusals == [2170, 0]


def test_brute_force_results_are_pinned():
    """(value, distribution, order) of every 7th sweep config, as the
    nested per-distribution minimum gave them before the search moved
    into the evaluation context."""
    digest = hashlib.sha256()
    for config in sweep_configs()[::7]:
        result = brute_force_capacity(config)
        digest.update(repr((result.value, result.distribution, result.order)).encode())
    assert digest.hexdigest() == (
        "7e4ffe348833c9af766e7788cd336e9f55582f46d5ff1734767e5a1691437a29"
    )
