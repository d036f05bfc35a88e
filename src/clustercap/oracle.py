"""Independent verification paths: exhaustive search over all selections
and repair sequences, a dynamic program over the selection lattice for
instances beyond the search, explicit flow-graph construction solved by
exact integral max-flow, and checkers for every structural claim the
closed forms rely on.

Everything here is deliberately redundant with the closed-form modules:
agreement between the routes (closed form, exhaustive part-cut scan,
lattice DP, max-flow on the explicit graph) is the correctness argument.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil
from operator import itemgetter

from . import _kernel_py
from .capacity import (
    Outcome,
    _layout_achiever,
    cluster_weight_values,
    compare_separate,
    mincut_by_location,
    system_capacity,
    weight_values,
)
from .mincut import _check_labels, _coefficient, incoming_coefficients, mincut
from .model import (
    BudgetExceeded,
    ClusterOrder,
    NodeParams,
    Record,
    RepairParams,
    SelectedNodeDistribution,
    SystemConfig,
    _packed,
    _scaled_bandwidths,
    enumerate_distributions,
    order_count,
    validate_config,
)
from .sequencing import horizontal_selection, vertical_order


DEFAULT_BUDGET = 10_000_000
DEFAULT_STATE_BUDGET = 1_000_000  # lattice states per forward pass


class BruteForceResult(Record):
    __slots__ = ("value", "distribution", "order")

    def __init__(
        self, value: Fraction, distribution: SelectedNodeDistribution, order: ClusterOrder
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "distribution", distribution)
        object.__setattr__(self, "order", order)


def enumeration_size(nodes: NodeParams) -> int:
    """Total number of repair sequences over all distributions."""
    return sum(order_count(d) for d in enumerate_distributions(nodes))


def brute_force_capacity(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> BruteForceResult:
    """Minimum min-cut over every selection and repair sequence.

    Works for any separate-node count E.  The reported argmin is the first
    minimizer when distributions are scanned in enumeration order and
    sequences in lexicographic order with the separate label sorting last.
    """
    return _EvaluationContext(cfg, budget).search()


def _moves(state: tuple[int, ...], caps: tuple[int, ...]):
    """(h, successor) for each way to add one node to a lattice state; h is
    the node's within-cluster rank, 0 for a separate node.

    state[0] counts the separate nodes and state[1:] the clusters, each at
    most its entry of caps.  Clusters with equal caps are interchangeable,
    so within a run of equal caps the counts stay non-increasing and only
    the first of equal counts grows.
    """
    if state[0] < caps[0]:
        yield 0, (state[0] + 1,) + state[1:]
    for j in range(1, len(state)):
        c = state[j]
        if c < caps[j] and not (j > 1 and caps[j - 1] == caps[j] and state[j - 1] == c):
            yield c + 1, state[:j] + (c + 1,) + state[j + 1 :]


def lattice_capacity(cfg: SystemConfig, budget: int = DEFAULT_STATE_BUDGET) -> Fraction:
    """Exact capacity for any E by dynamic programming over the selection
    lattice, for instances beyond the exhaustive search.

    w_i depends only on the position i, on whether the node is separate
    and on its within-cluster rank, so the min-cut is a shortest path
    through the per-cluster selection counts: layer i maps each state of
    i selected nodes to the least cut over the paths reaching it, and the
    capacity is the least value of layer k.  Raises BudgetExceeded once
    more than `budget` states have been created.
    """
    nd, rp = cfg.nodes, cfg.repair
    scale, alpha, beta_intra, beta_cross = _scaled_bandwidths(cfg)
    caps = (nd.E,) + (nd.R,) * nd.L
    layer = {(0,) * len(caps): 0}
    created = 1
    for i in range(1, nd.k + 1):
        # cut[h]: the cut at position i for within-cluster rank h, 0 for a
        # separate node
        cut = []
        for h in range(nd.R + 1):
            a, b, _ = _coefficient(i, h, h == 0, rp.d_intra, rp.d_cross)
            cut.append(min(alpha, a * beta_intra + b * beta_cross))
        nxt: dict[tuple[int, ...], int] = {}
        for state, value in layer.items():
            for h, succ in _moves(state, caps):
                v = value + cut[h]
                old = nxt.get(succ)
                if old is None:
                    created += 1
                    if created > budget:
                        raise BudgetExceeded(created, budget, "lattice states")
                    nxt[succ] = v
                elif v < old:
                    nxt[succ] = v
        layer = nxt
    return Fraction(min(layer.values()), scale)


# ---------------------------------------------------------------------------
# Explicit information-flow graph + exact max-flow
# ---------------------------------------------------------------------------


class FlowGraph(Record):
    """Directed graph with integer capacities (rationals cleared by
    `scale`); `infinite` exceeds the sum of all finite capacities."""

    __slots__ = ("vertex_count", "edges", "source", "sink", "scale", "infinite")

    def __init__(
        self,
        vertex_count: int,
        edges: tuple[tuple[int, int, int], ...],
        source: int,
        sink: int,
        scale: int,
        infinite: int,
    ) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "infinite", infinite)


# the capacity each edge of a cached wiring takes, as an index into
# (alpha, beta_intra, beta_cross, infinite)
_ALPHA, _BETA_INTRA, _BETA_CROSS, _INFINITE = range(4)


@lru_cache(maxsize=4096)
def _ifg_wiring(
    labels: tuple[int, ...], k: int, L: int, R: int, E: int, d_intra: int, d_cross: int
) -> tuple[bytes | tuple[int, ...], bytes | tuple[int, ...], bytes]:
    """(tails, heads, kinds) of the edges of the flow graph of a repair
    sequence, in `build_ifg`'s edge order, packed; kinds holds one byte
    per edge.

    Vertices: 0 is the source; original slot m has input 1 + 2m and output
    2 + 2m; newcomer step i has input 1 + 2n + 2i and output 2 + 2n + 2i;
    2n + 2k + 1 is the collector.  Slots: cluster c (1..L) position r
    (1..R) -> (c-1)*R + (r-1); separate e (1..E) -> L*R + (e-1).  A
    rejected sequence caches nothing, so it is rejected on every call.
    """
    _check_labels(labels, k, L, R, E)
    n = L * R + E
    new = 1 + 2 * n
    tails: list[int] = []
    heads: list[int] = []
    kinds = bytearray()

    def edge(u: int, v: int, kind: int) -> None:
        tails.append(u)
        heads.append(v)
        kinds.append(kind)

    for slot in range(n):
        edge(1 + 2 * slot, 2 + 2 * slot, _ALPHA)
    occupant: dict[int, int] = {}  # replaced slot -> newcomer step index
    step_cluster: list[int] = []  # cluster label per newcomer step
    seen: dict[int, int] = {}
    for i, label in enumerate(labels):
        h = seen[label] = seen.get(label, 0) + 1
        if label == 0:
            slot = L * R + (h - 1)
            want = d_intra + d_cross
        else:
            slot = (label - 1) * R + (h - 1)
            # intra edges: every other current member of the cluster
            for other in range((label - 1) * R, label * R):
                if other != slot:
                    step = occupant.get(other)
                    edge(2 + 2 * other if step is None else new + 1 + 2 * step, new + 2 * i,
                         _BETA_INTRA)
            want = d_cross
        # cross (or, for a separate node, all) helpers: previous newcomers
        # outside the own cluster first, most recent first, then
        # unreplaced originals in ascending slot order
        helpers: list[int] = []
        for j in range(i - 1, -1, -1):
            if len(helpers) == want:
                break
            if label == 0 or step_cluster[j] != label:
                helpers.append(new + 1 + 2 * j)
        for other in range(n):
            if len(helpers) == want:
                break
            if other == slot or other in occupant:
                continue
            if label != 0 and other < L * R and other // R + 1 == label:
                continue
            helpers.append(2 + 2 * other)
        if len(helpers) != want:
            raise ValueError(f"cannot find {want} helpers at repair step {i + 1}")
        for src in helpers:
            edge(src, new + 2 * i, _BETA_CROSS)
        edge(new + 2 * i, new + 1 + 2 * i, _ALPHA)
        occupant[slot] = i
        step_cluster.append(label)
    for slot in range(n):
        edge(0, 1 + 2 * slot, _INFINITE)
    for i in range(k):
        edge(new + 1 + 2 * i, 2 * n + 2 * k + 1, _INFINITE)
    return _packed(tails), _packed(heads), bytes(kinds)


def build_ifg(cfg: SystemConfig, order: ClusterOrder) -> FlowGraph:
    """Flow graph of the repair sequence under worst-case wiring.

    Each storage node is an input/output vertex pair joined by an edge of
    capacity alpha.  The source feeds all n initial nodes; each newcomer
    connects to all previous newcomers first (cross-cluster slots), then
    to still-active original nodes; the collector reads the k newcomers.
    The wiring is cached per layout, helper counts and sequence
    (`_ifg_wiring`); this call fills in the scaled capacities.
    """
    nd, rp = cfg.nodes, cfg.repair
    tails, heads, kinds = _ifg_wiring(
        order.labels, nd.k, nd.L, nd.R, nd.E, rp.d_intra, rp.d_cross
    )
    scale, alpha, beta_i, beta_c = _scaled_bandwidths(cfg)
    infinite = (
        kinds.count(_ALPHA) * alpha
        + kinds.count(_BETA_INTRA) * beta_i
        + kinds.count(_BETA_CROSS) * beta_c
        + 1
    )
    capacity = (alpha, beta_i, beta_c, infinite)
    return FlowGraph(
        vertex_count=2 * nd.n + 2 * nd.k + 2,
        edges=tuple(zip(tails, heads, map(capacity.__getitem__, kinds))),
        source=0,
        sink=2 * nd.n + 2 * nd.k + 1,
        scale=scale,
        infinite=infinite,
    )


def max_flow(graph: FlowGraph) -> int:
    """Exact integral max-flow (Dinic) on the scaled graph.

    Raises ValueError when the source equals the sink, or an edge has a
    negative capacity or an endpoint outside 0..vertex_count-1.
    """
    n, s, t = graph.vertex_count, graph.source, graph.sink
    if s == t or not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source {s} and sink {t} must be distinct vertices below {n}")
    # arc e runs from to[e ^ 1] to to[e] with residual capacity cap[e];
    # edge j gives arc 2j and its reverse 2j + 1
    adj: list[list[int]] = [[] for _ in range(n)]
    to = [0] * (2 * len(graph.edges))
    cap = to[:]
    e = 0
    try:
        for u, v, c in graph.edges:
            if c < 0 or u < 0 or v < 0:
                raise ValueError(f"edge ({u}, {v}, {c}) has a negative endpoint or capacity")
            adj[u].append(e)
            adj[v].append(e + 1)
            to[e] = v
            to[e + 1] = u
            cap[e] = c
            e += 2
    except IndexError:
        raise ValueError(f"edge ({u}, {v}, {c}) has an endpoint not below {n}") from None
    flow = 0
    while True:
        # level[v]: residual distance from v to the sink, labelled
        # breadth-first backwards from the sink until the source is reached
        level = [-1] * n
        level[t] = 0
        queue = [t]
        for v in queue:
            below = level[v] + 1
            for e in adj[v]:
                w = to[e]
                if level[w] < 0 and cap[e ^ 1] > 0:
                    level[w] = below
                    queue.append(w)
            if level[s] >= 0:
                break
        else:
            return flow
        # blocking flow: a depth-first walk from the source along arcs with
        # residual capacity that step one level down, each vertex resuming
        # at its current arc ptr[u]
        ptr = [0] * n
        path: list[int] = []  # the arcs from s to u
        u = s
        while True:
            if u == t:
                got = min(map(cap.__getitem__, path))
                for e in path:
                    cap[e] -= got
                    cap[e ^ 1] += got
                flow += got
                # resume at the tail of the first saturated arc
                for i, e in enumerate(path):
                    if not cap[e]:
                        del path[i:]
                        break
                u = to[path[-1]] if path else s
                continue
            arcs, p, down = adj[u], ptr[u], level[u] - 1
            end = len(arcs)
            while p < end:
                e = arcs[p]
                if cap[e] > 0 and level[to[e]] == down:
                    break
                p += 1
            ptr[u] = p
            if p < end:
                path.append(e)
                u = to[e]
            elif path:  # dead end: retreat and skip the arc that led here
                u = to[path.pop() ^ 1]
                ptr[u] += 1
            else:
                break


def ifg_mincut(cfg: SystemConfig, order: ClusterOrder) -> Fraction:
    """Source-collector max-flow of the explicit graph, as an exact
    rational.  It never exceeds the part-cut value `mincut(cfg, order)`,
    and the two are equal at the capacity-achieving order; on other
    orders it can be smaller."""
    graph = build_ifg(cfg, order)
    return Fraction(max_flow(graph), graph.scale)


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------


class VerificationReport(Record):
    __slots__ = ("instance", "claim", "passed", "counterexample")

    def __init__(
        self, instance: str, claim: str, passed: bool, counterexample: str | None = None
    ) -> None:
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "counterexample", counterexample)


class VerificationFamily(Record):
    __slots__ = ("name", "configs", "claims")

    def __init__(
        self, name: str, configs: tuple[SystemConfig, ...], claims: tuple[str, ...]
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "claims", claims)


# the standard verification grid, read by `sweep_configs`' defaults and
# drawn from by `sample_sweep_triples`
SWEEP_L_VALUES = (2, 3)
SWEEP_R_VALUES = (2, 3, 4)
SWEEP_E_VALUES = (0, 1)
SWEEP_K_MAX = 9
SWEEP_BETA_PAIRS = ((1, 1), (2, 1), (3, 1), (3, 2))


def sweep_alpha_values(
    k: int, R: int, E: int, d_cross: int, beta_intra: Fraction, beta_cross: Fraction
) -> list[Fraction]:
    """Zero, every sorted-weight boundary, and the saturation point."""
    # past the weights' cache: the default sweep_configs() grid would put
    # 796 Fraction-keyed entries there, about 480 KB (tracemalloc), which
    # no checker reads again, since the checkers pass integer bandwidths
    values = weight_values.__wrapped__(k, E, R, d_cross, beta_intra, beta_cross)
    grid = {Fraction(0), sum(values, start=Fraction(0))}
    grid.update(values)
    return sorted(grid)


def sweep_configs(
    L_values=SWEEP_L_VALUES,
    R_values=SWEEP_R_VALUES,
    E_values=SWEEP_E_VALUES,
    k_max: int = SWEEP_K_MAX,
    beta_pairs=SWEEP_BETA_PAIRS,
) -> list[SystemConfig]:
    """The standard verification grid: every valid d_cross for each node
    layout, the listed bandwidth pairs, and per-config alpha boundaries."""
    out = []
    for L in L_values:
        for R in R_values:
            for E in E_values:
                n = L * R + E
                for k in range(2, min(k_max, n - 1) + 1):
                    for d_cross in range(max(0, k - R + 1), n - R + 1):
                        for bi, bc in beta_pairs:
                            bi_f, bc_f = Fraction(bi), Fraction(bc)
                            for alpha in sweep_alpha_values(k, R, E, d_cross, bi_f, bc_f):
                                out.append(
                                    validate_config(
                                        n=n, k=k, L=L, R=R, E=E,
                                        d_cross=d_cross,
                                        beta_intra=bi_f, beta_cross=bc_f,
                                        alpha=alpha,
                                    )
                                )
    return out


class _EvaluationContext:
    """What the claim checkers of one config share, each computed at most
    once, when a checker first reads it, and the one place the exhaustive
    search meets a config (under `budget` repair orders, DEFAULT_BUDGET
    when None).

    A context serves one config only: `verify_claims` makes a fresh one per
    config, and nothing keyed by alpha outlives it.  It weights structure
    that its owners cache across configs and calls under keys without
    alpha: the distributions per node layout (`model`), the coefficient
    profiles and Lemma 1's verdict per (separate count, cluster counts,
    d_intra, d_cross) and the weighted profiles per that key and the
    scaled bandwidths, in whose entry each alpha interval's cut classes
    are filled on first use (`_kernel_py`), the horizontal selection, the
    vertical order and the pinned-separate order per layout, distribution
    or position (`sequencing`), the checked coefficient pairs of an order
    per (labels, layout, d_intra, d_cross) (`mincut`), the sorted weights
    per their arguments (`capacity.weight_values`), and, in this module,
    the flow-graph wiring per (labels, layout, d_intra, d_cross), Lemma
    2's verdict per (layout, d_intra, d_cross) and Theorem 4's per
    (layout, d_cross, beta_intra, beta_cross).  `mincut`,
    `mincut_by_location` and `system_capacity` are looked up in this module
    when first read, so a substitute put there is what the checkers see.
    """

    def __init__(self, cfg: SystemConfig, budget: int | None = None) -> None:
        self.cfg = cfg
        self.budget = DEFAULT_BUDGET if budget is None else budget

    @cached_property
    def instance(self) -> str:
        return self.cfg.describe()

    @cached_property
    def scaled(self) -> tuple[int, int, int, int]:
        """_scaled_bandwidths(cfg): (scale, alpha, beta_intra, beta_cross)."""
        return _scaled_bandwidths(self.cfg)

    @cached_property
    def distributions(self) -> tuple[SelectedNodeDistribution, ...]:
        """Every distribution, in enumeration order, once their repair
        orders are known to fit the budget."""
        dists = enumerate_distributions(self.cfg.nodes)
        size = sum(order_count(d) for d in dists)
        if size > self.budget:
            raise BudgetExceeded(size, self.budget)
        return dists

    @cached_property
    def all_cluster(self) -> list[SelectedNodeDistribution]:
        """The distributions that select no separate node."""
        return [dist for dist in self.distributions if dist.separate == 0]

    @cached_property
    def one_separate(self) -> list[SelectedNodeDistribution]:
        """The distributions that select exactly one separate node."""
        return [dist for dist in self.distributions if dist.separate == 1]

    def cuts(self, dist: SelectedNodeDistribution):
        """(scaled cut, representative order) of each cut class of `dist`
        at this alpha, in scan order (`_kernel_py.profile_cuts`)."""
        rp = self.cfg.repair
        _, alpha, beta_i, beta_c = self.scaled
        return _kernel_py.profile_cuts(
            dist.separate, dist.clusters, rp.d_intra, rp.d_cross, alpha, beta_i, beta_c
        )

    @cached_property
    def minima(self) -> dict[SelectedNodeDistribution, tuple[int, tuple[int, ...]]]:
        """Each distribution's first least (scaled cut, order), in
        enumeration order."""
        # min keeps the first of equal keys: the first minimizer in scan order
        return {dist: min(self.cuts(dist), key=itemgetter(0)) for dist in self.distributions}

    def search(self) -> BruteForceResult:
        """The first least cut over every distribution and order."""
        dist, (value, order) = min(self.minima.items(), key=lambda item: item[1][0])
        return BruteForceResult(Fraction(value, self.scaled[0]), dist, ClusterOrder(order))

    @cached_property
    def vertical_cuts(self) -> dict[SelectedNodeDistribution, Fraction]:
        """Min-cut of the vertical order of each all-cluster distribution."""
        return {dist: mincut(self.cfg, vertical_order(dist)).value for dist in self.all_cluster}

    @cached_property
    def by_location(self) -> list[Fraction]:
        """mincut_by_location(cfg, j) for j = 1..k; empty when no
        one-separate selection exists."""
        if not self.one_separate:
            return []
        return [mincut_by_location(self.cfg, j) for j in range(1, self.cfg.nodes.k + 1)]

    @cached_property
    def capacity(self) -> Fraction:
        return system_capacity(self.cfg)


def _check_lemma1(ctx: _EvaluationContext):
    """The multiset of intra coefficients is the same for every repair
    sequence of a fixed all-cluster distribution."""
    rp = ctx.cfg.repair
    for dist in ctx.all_cluster:
        mismatch = _kernel_py.intra_multiset_mismatch(
            dist.separate, dist.clusters, rp.d_intra, rp.d_cross
        )
        if mismatch is not None:
            labels, bag, reference = mismatch
            return False, f"s={dist} order={labels} intra multiset {bag} != {reference}"
    return True, None


@lru_cache(maxsize=4096)
def _lemma2_counterexample(nodes: NodeParams, d_intra: int, d_cross: int) -> str | None:
    """Lemma 2's verdict on the constructed optimal sequence of a layout:
    None, or the first position whose coefficient pair does not sum to
    d + 1 - i."""
    _, order = _layout_achiever(nodes)
    d = d_intra + d_cross
    coeffs = incoming_coefficients(d_intra, d_cross, order)
    for i, (a, b, _) in enumerate(coeffs, start=1):
        if a + b != d + 1 - i:
            return f"position {i} of {order}: {a}+{b} != {d + 1 - i}"
    return None


def _check_lemma2(ctx: _EvaluationContext):
    """Along the constructed optimal sequence the coefficient pairs sum to
    d + 1 - i at every position."""
    rp = ctx.cfg.repair
    counter = _lemma2_counterexample(ctx.cfg.nodes, rp.d_intra, rp.d_cross)
    return counter is None, counter


def _check_prop1(ctx: _EvaluationContext):
    """The vertical order minimizes the min-cut within each all-cluster
    distribution."""
    scale = ctx.scaled[0]
    minima = ctx.minima
    for dist, constructed in ctx.vertical_cuts.items():
        value, labels = minima[dist]
        if value < constructed * scale:
            return False, (
                f"s={dist}: order {labels} gives {Fraction(value, scale)} < {constructed}"
            )
    return True, None


def _check_prop2(ctx: _EvaluationContext):
    """The horizontal selection minimizes over all-cluster distributions
    once each uses its vertical order."""
    nd = ctx.cfg.nodes
    if nd.k > nd.L * nd.R:
        return True, None  # no all-cluster selection exists
    star = horizontal_selection(nd, 0)
    cuts = ctx.vertical_cuts
    best = cuts[star]
    for dist, value in cuts.items():
        if value < best:
            return False, f"s={dist} gives {value} < {best} at s*={star}"
    return True, None


def _check_thm1(ctx: _EvaluationContext):
    """With the separate node pinned at location j, the constructed
    sequence minimizes over all one-separate selections and orders."""
    scale = ctx.scaled[0]
    by_location = ctx.by_location
    # an integer cut is below a bound iff it is below the bound's ceiling
    scaled = [ceil(bound * scale) for bound in by_location]
    for dist in ctx.one_separate:
        for value, labels in ctx.cuts(dist):
            j = labels.index(0)
            if value < scaled[j]:
                return False, (
                    f"s={dist} order={labels} separate at {j + 1}: "
                    f"{Fraction(value, scale)} < constructed {by_location[j]}"
                )
    return True, None


def _check_thm2(ctx: _EvaluationContext):
    """Min-cut of the constructed sequence is non-increasing in the
    separate node's location."""
    values = ctx.by_location
    for j, (x, y) in enumerate(zip(values, values[1:]), start=1):
        if x < y:
            return False, f"MC at j={j} is {x} < MC at j={j + 1} = {y}"
    return True, None


def _check_thm3(ctx: _EvaluationContext):
    """Separate node last equals the closed-form capacity (E=1)."""
    if ctx.cfg.nodes.E != 1 or not ctx.by_location:
        return True, None
    last = ctx.by_location[-1]
    closed = ctx.capacity
    if last != closed:
        return False, f"MC at j=k is {last} but closed form gives {closed}"
    return True, None


@lru_cache(maxsize=4096)
def _thm4_counterexample(
    nodes: NodeParams, d_cross: int, beta_intra: Fraction, beta_cross: Fraction
) -> str | None:
    """Theorem 4's verdict on a layout without separate nodes: None, or
    how adding one separate node at uncapped alpha departs from the
    dichotomy.  Uncapped alpha, one more than the saturated capacity,
    depends on the bandwidths alone, and d_intra is R - 1 in every
    config."""
    values = cluster_weight_values(nodes.k, nodes.R, d_cross, beta_intra, beta_cross)
    uncapped = RepairParams(
        alpha=sum(values, start=Fraction(0)) + 1,
        d_intra=nodes.R - 1,
        beta_intra=beta_intra,
        d_cross=d_cross,
        beta_cross=beta_cross,
    )
    verdict = compare_separate(nodes, uncapped)
    keep = nodes.k % nodes.R == 0 or beta_intra == beta_cross
    expected = Outcome.EQUAL if keep else Outcome.REDUCED
    if verdict.outcome is not expected:
        return (
            f"expected {expected.value} (k={nodes.k}, R={nodes.R}), got "
            f"{verdict.outcome.value}: without={verdict.capacity_without} "
            f"with={verdict.capacity_with}"
        )
    return None


def _check_thm4(ctx: _EvaluationContext):
    """Adding one separate node at uncapped alpha keeps capacity iff R
    divides k (strict reduction needs beta_intra > beta_cross)."""
    nd, rp = ctx.cfg.nodes, ctx.cfg.repair
    if nd.E != 0:
        return True, None
    counter = _thm4_counterexample(nd, rp.d_cross, rp.beta_intra, rp.beta_cross)
    return counter is None, counter


def _check_closed_vs_search(ctx: _EvaluationContext):
    """Closed-form capacity equals the exhaustive minimum."""
    closed = ctx.capacity
    found = ctx.search()
    if closed != found.value:
        return False, (
            f"closed form {closed} != search {found.value} at "
            f"s={found.distribution} order={found.order}"
        )
    return True, None


_CHECKERS = {
    "lemma1-multiset": _check_lemma1,
    "lemma2-sum": _check_lemma2,
    "prop1-vertical": _check_prop1,
    "prop2-horizontal": _check_prop2,
    "thm1-fixed-separate": _check_thm1,
    "thm2-monotone": _check_thm2,
    "thm3-capacity": _check_thm3,
    "thm4-dichotomy": _check_thm4,
    "closed-form-vs-search": _check_closed_vs_search,
}

ALL_CLAIMS = tuple(_CHECKERS)


def _family_tiny() -> VerificationFamily:
    return VerificationFamily(
        name="tiny",
        configs=tuple(
            sweep_configs(L_values=(2,), R_values=(2, 3), k_max=4,
                          beta_pairs=((1, 1), (2, 1)))
        ),
        claims=ALL_CLAIMS,
    )


def _family_small_sweep() -> VerificationFamily:
    return VerificationFamily(
        name="small-sweep",
        configs=tuple(sweep_configs()),
        claims=ALL_CLAIMS,
    )


FAMILIES = {
    "tiny": _family_tiny,
    "small-sweep": _family_small_sweep,
}


def verify_claims(family: str | VerificationFamily) -> list[VerificationReport]:
    """One report per (claim, config); failures carry a reproducible
    counterexample instead of raising."""
    if isinstance(family, str):
        try:
            family = FAMILIES[family]()
        except KeyError:
            raise ValueError(
                f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
            ) from None
    reports = []
    for cfg in family.configs:
        ctx = _EvaluationContext(cfg)
        for claim in family.claims:
            passed, counter = _CHECKERS[claim](ctx)
            reports.append(
                VerificationReport(
                    instance=ctx.instance,
                    claim=claim,
                    passed=passed,
                    counterexample=counter,
                )
            )
    return reports


def sample_sweep_triples(count: int, seed: int = 0):
    """Seeded random (config, distribution, order) triples drawn from the
    standard sweep family, for formula-vs-graph spot checks."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        L = rng.choice(SWEEP_L_VALUES)
        R = rng.choice(SWEEP_R_VALUES)
        E = rng.choice(SWEEP_E_VALUES)
        n = L * R + E
        k = rng.randint(2, min(SWEEP_K_MAX, n - 1))
        d_cross = rng.randint(max(0, k - R + 1), n - R)
        bi, bc = rng.choice(SWEEP_BETA_PAIRS)
        alpha = rng.choice(
            sweep_alpha_values(k, R, E, d_cross, Fraction(bi), Fraction(bc))
        )
        cfg = validate_config(
            n=n, k=k, L=L, R=R, E=E, d_cross=d_cross,
            beta_intra=bi, beta_cross=bc, alpha=alpha,
        )
        dist = rng.choice(enumerate_distributions(cfg.nodes))
        items = [0] * dist.separate
        for cluster, c in enumerate(dist.clusters, start=1):
            items.extend([cluster] * c)
        rng.shuffle(items)
        out.append((cfg, dist, ClusterOrder(labels=tuple(items))))
    return out
