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
from collections import deque
from fractions import Fraction
from functools import cached_property
from math import ceil
from operator import itemgetter

from . import _kernel_py
from .capacity import (
    Outcome,
    capacity_achiever,
    cluster_weight_values,
    compare_separate,
    mincut_by_location,
    system_capacity,
    weight_values,
)
from .mincut import _check_order, _coefficient, incoming_coefficients, mincut
from .model import (
    BudgetExceeded,
    ClusterOrder,
    NodeParams,
    Record,
    RepairParams,
    SelectedNodeDistribution,
    SystemConfig,
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


def build_ifg(cfg: SystemConfig, order: ClusterOrder) -> FlowGraph:
    """Flow graph of the repair sequence under worst-case wiring.

    Each storage node is an input/output vertex pair joined by an edge of
    capacity alpha.  The source feeds all n initial nodes; each newcomer
    connects to all previous newcomers first (cross-cluster slots), then
    to still-active original nodes; the collector reads the k newcomers.
    """
    _check_order(cfg, order)
    nd, rp = cfg.nodes, cfg.repair
    scale, alpha, beta_i, beta_c = _scaled_bandwidths(cfg)
    n, k = nd.n, nd.k

    def orig_in(slot: int) -> int:
        return 1 + 2 * slot

    def orig_out(slot: int) -> int:
        return 2 + 2 * slot

    def new_in(i: int) -> int:
        return 1 + 2 * n + 2 * i

    def new_out(i: int) -> int:
        return 2 + 2 * n + 2 * i

    source = 0
    sink = 2 * n + 2 * k + 1

    # slots: cluster c (1..L) position r (1..R) -> (c-1)*R + (r-1);
    # separate e (1..E) -> L*R + (e-1)
    def cluster_of(slot: int) -> int:
        return slot // nd.R + 1 if slot < nd.L * nd.R else 0

    finite: list[tuple[int, int, int]] = []
    for slot in range(n):
        finite.append((orig_in(slot), orig_out(slot), alpha))

    occupant: dict[int, int] = {}  # replaced slot -> newcomer step index
    step_cluster: list[int] = []  # cluster label per newcomer step
    seen: dict[int, int] = {}
    for i, label in enumerate(order.labels):
        seen[label] = seen.get(label, 0) + 1
        h = seen[label]
        if label == 0:
            slot = nd.L * nd.R + (h - 1)
            want = rp.d
        else:
            slot = (label - 1) * nd.R + (h - 1)
            # intra edges: every other current member of the cluster
            for r in range(nd.R):
                other = (label - 1) * nd.R + r
                if other == slot:
                    continue
                step = occupant.get(other)
                src = orig_out(other) if step is None else new_out(step)
                finite.append((src, new_in(i), beta_i))
            want = rp.d_cross
        # cross (or, for a separate node, all) helpers: previous newcomers
        # outside the own cluster first, most recent first, then
        # unreplaced originals in ascending slot order
        helpers: list[int] = []
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
        if len(helpers) != want:
            raise ValueError(f"cannot find {want} helpers at repair step {i + 1}")
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
    return FlowGraph(
        vertex_count=2 * n + 2 * k + 2,
        edges=tuple(edges),
        source=source,
        sink=sink,
        scale=scale,
        infinite=infinite,
    )


def max_flow(graph: FlowGraph) -> int:
    """Exact integral max-flow (Dinic) on the scaled graph."""
    n = graph.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in graph.edges:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    s, t = graph.source, graph.sink
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[t] < 0:
            return flow
        # blocking flow: a depth-first walk along level-increasing arcs with
        # residual capacity, each vertex resuming at its current arc ptr[u]
        ptr = [0] * n
        path: list[int] = []  # the arcs from s to u
        u = s
        while True:
            if u == t:
                got = min(cap[e] for e in path)
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
            arcs, p, up = adj[u], ptr[u], level[u] + 1
            while p < len(arcs) and not (cap[arcs[p]] > 0 and level[to[arcs[p]]] == up):
                p += 1
            ptr[u] = p
            if p < len(arcs):
                path.append(arcs[p])
                u = to[arcs[p]]
            elif path:  # dead end: retreat and skip the arc that led here
                u = to[path.pop() ^ 1]
                ptr[u] += 1
            else:
                break


def ifg_mincut(cfg: SystemConfig, order: ClusterOrder) -> Fraction:
    """Source-collector max-flow of the explicit graph, as an exact
    rational; equals the part-cut formula by max-flow/min-cut duality."""
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


SWEEP_BETA_PAIRS = ((1, 1), (2, 1), (3, 1), (3, 2))


def sweep_alpha_values(
    k: int, R: int, E: int, d_cross: int, beta_intra: Fraction, beta_cross: Fraction
) -> list[Fraction]:
    """Zero, every sorted-weight boundary, and the saturation point."""
    values = weight_values(k, E, R, d_cross, beta_intra, beta_cross)
    grid = {Fraction(0), sum(values, start=Fraction(0))}
    grid.update(values)
    return sorted(grid)


def sweep_configs(
    L_values=(2, 3),
    R_values=(2, 3, 4),
    E_values=(0, 1),
    k_max: int = 9,
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
    config, and nothing that depends on alpha or the bandwidths outlives
    it.  It weights structure that its owners cache across configs and
    calls under alpha-free keys: the distributions per node layout
    (`model`), the coefficient profiles and Lemma 1's verdict per
    (separate count, cluster counts, d_intra, d_cross) (`_kernel_py`), and
    the horizontal selection, the vertical order and the pinned-separate
    order per layout, distribution or position (`sequencing`).  `mincut`,
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


def _check_lemma2(ctx: _EvaluationContext):
    """Along the constructed optimal sequence the coefficient pairs sum to
    d + 1 - i at every position."""
    rp = ctx.cfg.repair
    _, order = capacity_achiever(ctx.cfg)
    coeffs = incoming_coefficients(rp.d_intra, rp.d_cross, order)
    for i, (a, b, _) in enumerate(coeffs, start=1):
        if a + b != rp.d + 1 - i:
            return False, f"position {i} of {order}: {a}+{b} != {rp.d + 1 - i}"
    return True, None


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


def _check_thm4(ctx: _EvaluationContext):
    """Adding one separate node at uncapped alpha keeps capacity iff R
    divides k (strict reduction needs beta_intra > beta_cross)."""
    nd, rp = ctx.cfg.nodes, ctx.cfg.repair
    if nd.E != 0:
        return True, None
    scale, _, beta_i, beta_c = ctx.scaled
    values = cluster_weight_values(nd.k, nd.R, rp.d_cross, beta_i, beta_c)
    uncapped = RepairParams(
        alpha=Fraction(sum(values), scale) + 1,
        d_intra=rp.d_intra,
        beta_intra=rp.beta_intra,
        d_cross=rp.d_cross,
        beta_cross=rp.beta_cross,
    )
    verdict = compare_separate(nd, uncapped)
    keep = nd.k % nd.R == 0 or rp.beta_intra == rp.beta_cross
    expected = Outcome.EQUAL if keep else Outcome.REDUCED
    if verdict.outcome is not expected:
        return False, (
            f"expected {expected.value} (k={nd.k}, R={nd.R}), got "
            f"{verdict.outcome.value}: without={verdict.capacity_without} "
            f"with={verdict.capacity_with}"
        )
    return True, None


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
        L = rng.choice((2, 3))
        R = rng.choice((2, 3, 4))
        E = rng.choice((0, 1))
        n = L * R + E
        k = rng.randint(2, min(9, n - 1))
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
