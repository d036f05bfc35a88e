"""Independent verification paths: exhaustive search over all selections
and repair sequences, run as one shortest-path pass over the canonical
selection lattice per config; the same pass under a state budget for
instances beyond the search (`lattice_capacity`); explicit flow-graph
construction solved by exact integral max-flow; and checkers for every
structural claim the closed forms rely on.

Everything here is deliberately redundant with the closed-form modules:
agreement between the routes (closed form, exhaustive lattice search,
max-flow on the explicit graph) is the correctness argument.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod
from operator import add, itemgetter, le

from .capacity import (
    Outcome,
    _layout_achiever,
    cluster_weight_values,
    compare_separate,
    system_capacity,
    weight_values,
)
from .mincut import _check_labels, _coefficient, _locations, incoming_coefficients
from .model import (
    BudgetExceeded,
    ClusterOrder,
    NodeParams,
    Record,
    RepairParams,
    SelectedNodeDistribution,
    SystemConfig,
    _enumerate_distributions,
    _fraction,
    _multiset_permutations,
    _scaled_bandwidths,
    enumerate_distributions,
    enumeration_size,
    validate_config,
)
from .sequencing import horizontal_selection, optimal_order_with_separate_at, vertical_order

# bound apart from `_coefficient`, which Lemma 1 reads, so that a substitute
# put there never reaches a cached cut table
from .mincut import _coefficient as _cut_coefficient


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


def brute_force_capacity(cfg: SystemConfig, budget: int = DEFAULT_BUDGET) -> BruteForceResult:
    """Minimum min-cut over every selection and repair sequence.

    Works for any separate-node count E.  The reported argmin is the first
    minimizer when distributions are scanned in enumeration order and
    sequences in lexicographic order with the separate label sorting last.
    """
    return _Search(cfg, budget).result()


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


@lru_cache(maxsize=1024)
def _cut_coefficients(
    k: int, R: int, d_intra: int, d_cross: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(pairs, ends): pairs holds the `_coefficient` pair (a, b) of the
    node at position i = 1..k whose within-cluster rank is h = 0..min(i,
    R), h = 0 for a separate node, row by row; row i holds the pairs
    ends[i - 1] to ends[i] - 1, and ends[0] = 0."""
    pairs, ends = [], [0]
    for i in range(1, k + 1):
        for h in range(min(i, R) + 1):
            pairs += _cut_coefficient(i, h, h == 0, d_intra, d_cross)[:2]
        ends.append(len(pairs) // 2)
    return tuple(pairs), tuple(ends)


def _cut_table(cfg: SystemConfig, alpha: int, beta_i: int, beta_c: int) -> list[list[int]]:
    """cuts[i][h]: min(alpha, w) of the node at position i = 1..k whose
    within-cluster rank is h <= min(i, R), h = 0 for a separate node, on
    scaled integers; cuts[0] is empty.  w_i depends only on these, so
    every cut is a sum of entries of this table."""
    nd, rp = cfg.nodes, cfg.repair
    pairs, ends = _cut_coefficients(nd.k, nd.R, rp.d_intra, rp.d_cross)
    it = iter(pairs)
    row = [alpha if alpha < (w := a * beta_i + b * beta_c) else w for a, b in zip(it, it)]
    return [[]] + [row[lo:hi] for lo, hi in zip(ends, ends[1:])]


def lattice_capacity(cfg: SystemConfig, budget: int = DEFAULT_STATE_BUDGET) -> Fraction:
    """Exact capacity for any E by dynamic programming over the selection
    lattice, for instances beyond the exhaustive search.

    The min-cut is a shortest path through the per-cluster selection
    counts (`_cut_table`): layer i maps each state of i selected nodes to
    the least cut over the paths reaching it, and the capacity is the
    least value of layer k.  Raises BudgetExceeded once more than
    `budget` states have been created.
    """
    nd = cfg.nodes
    scale, *bandwidths = _scaled_bandwidths(cfg)
    cuts = _cut_table(cfg, *bandwidths)
    caps = (nd.E,) + (nd.R,) * nd.L
    layer = {(0,) * len(caps): 0}
    created = 1
    for i in range(1, nd.k + 1):
        cut = cuts[i]
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
    return _fraction(min(layer.values()), scale)


@lru_cache(maxsize=128)
def _lattice_edges(E: int, L: int, R: int, k: int):
    """(forward, backward, blocks): the canonical selection lattice of a
    layout (the states of `_moves`) as alpha-free edge lists.

    Layer i holds the states of i selected nodes in descending order, so
    layer k is `enumerate_distributions`' order and the blocks[i] states
    without a separate node close layer i.  forward[i - 1] holds the moves
    into layer i as (tail, head, rank) sorted by head; backward[i] the
    cluster moves from layer i's block to layer i + 1's, sorted by tail,
    when a selection with one separate node exists.
    """
    caps = (E,) + (R,) * L
    layer, blocks = [(0,) * (L + 1)], [1]
    forward, backward = [], []
    for _ in range(k):
        moves = [(t, h, succ) for t, state in enumerate(layer)
                 for h, succ in _moves(state, caps)]
        nxt = sorted({succ for _, _, succ in moves}, reverse=True)
        where = {state: p for p, state in enumerate(nxt)}
        blocks.append(sum(state[0] == 0 for state in nxt))
        edges = [(t, where[succ], h) for t, h, succ in moves]
        forward.append(tuple(sorted(edges, key=itemgetter(1))))
        if E and k - 1 <= L * R:
            t0, s0 = len(layer) - blocks[-2], len(nxt) - blocks[-1]
            backward.append(tuple((t - t0, s - s0, h) for t, s, h in edges if t >= t0 and h))
        layer = nxt
    return tuple(forward), tuple(backward), tuple(blocks)


def _forward_values(forward, cuts: list[list[int]]) -> list[list[int]]:
    """The value pass: per layer of the canonical lattice, each state's
    least scaled cut over the orders reaching it, from the `_lattice_edges`
    forward edges and a `_cut_table`."""
    values = [[0]]
    for edges, row in zip(forward, cuts[1:]):
        prev, nxt = values[-1], []
        for t, s, h in edges:
            v = prev[t] + row[h]
            if s == len(nxt):  # the first edge into s
                nxt.append(v)
            elif v < nxt[s]:
                nxt[s] = v
        values.append(nxt)
    return values


def _separate_minima(forward, backward, blocks, cuts: list[list[int]]) -> list[int]:
    """least[j - 1]: the least scaled cut of the orders of the one-separate
    distributions that put the separate node at j, from the value pass
    (`_forward_values`), the `_lattice_edges` backward edges and blocks,
    and a `_cut_table`.

    togo[x] is the least cut of positions j + 1..k by cluster moves from
    (1, x), x in layer j - 1's block without a separate node, which joins
    there its forward value and the separate node's cut."""
    k = len(cuts) - 1
    togo = [0] * blocks[k - 1]
    least = [0] * k
    for j in range(k, 0, -1):
        if j < k:
            row, after, togo = cuts[j + 1], togo, []
            for t, s, h in backward[j - 1]:
                v = row[h] + after[s]
                if t == len(togo):  # the first move out of t
                    togo.append(v)
                elif v < togo[t]:
                    togo[t] = v
        reached = forward[j - 1][-blocks[j - 1] :]
        least[j - 1] = cuts[j][0] + min(map(add, reached, togo))
    return least


def _scan_orders(dist: SelectedNodeDistribution):
    """(labels, ranks) of each repair order of `dist` in scan order:
    lexicographic with the separate label after every cluster label;
    ranks[i - 1] is the within-cluster rank at position i, 0 for a
    separate node."""
    sep = len(dist.clusters) + 1
    items = [c for c, count in enumerate(dist.clusters, start=1) for _ in range(count)]
    for mapped in _multiset_permutations(items + [sep] * dist.separate):
        labels = tuple(0 if x == sep else x for x in mapped)
        yield labels, [h if x else 0 for x, h in zip(labels, _locations(labels))]


@lru_cache(maxsize=4096)
def _order_ranks(labels: tuple[int, ...], k: int, L: int, R: int, E: int) -> tuple[int, ...]:
    """The `_cut_table` index of each position of a repair order, its
    within-cluster rank h or 0 for a separate node, once its labels are
    checked against the layout (`_check_labels`).  Keyed by the labels,
    so every order the checkers build gets its own entry; a rejected
    order caches nothing, so it is rejected on every call."""
    locations = _check_labels(labels, k, L, R, E)
    return tuple([h if label else 0 for label, h in zip(labels, locations)])


class _Search:
    """The exhaustive search of one config, under `budget` repair orders
    (DEFAULT_BUDGET when None), computed in one pass: the budget on the
    layout's cached order total (`enumeration_size`), before any lattice
    is built; the layout's `_lattice_edges`; the `_cut_table` at the
    scaled bandwidths; and one value pass, whose last layer holds each
    distribution's least cut (minima[p] of distributions[p], in
    enumeration order)."""

    def __init__(self, cfg: SystemConfig, budget: int | None = None) -> None:
        nd = cfg.nodes
        self.cfg = cfg
        self.distributions = enumerate_distributions(nd)
        budget = DEFAULT_BUDGET if budget is None else budget
        if (size := enumeration_size(nd)) > budget:
            raise BudgetExceeded(size, budget)
        self.lattice = _lattice_edges(nd.E, nd.L, nd.R, nd.k)
        self.scale, *bandwidths = _scaled_bandwidths(cfg)
        self.cut_table = _cut_table(cfg, *bandwidths)
        self.forward = _forward_values(self.lattice[0], self.cut_table)
        self.minima = self.forward[-1]

    def first_order(self, dist: SelectedNodeDistribution) -> tuple[int, ...]:
        """The first order of `dist` in scan order whose cut is its least.

        togo[u] is the least cut of the positions left after the label
        counts u (clusters 1..L, then the separate label), a mixed-radix
        index; the walk takes at each position the first label in scan
        order that keeps the least cut reachable."""
        cuts = self.cut_table
        sizes = dist.clusters + (dist.separate,)
        sep, labels = len(dist.clusters), range(len(sizes))
        strides = [prod(size + 1 for size in sizes[c + 1 :]) for c in labels]
        togo = [0] * prod(size + 1 for size in sizes)
        states = product(*(range(size, -1, -1) for size in sizes))
        next(states)  # every label used up: nothing is left
        index = len(togo) - 1
        for used in states:
            index -= 1
            row, least = cuts[sum(used) + 1], None
            for c in labels:
                if used[c] < sizes[c]:
                    v = row[0 if c == sep else used[c] + 1] + togo[index + strides[c]]
                    if least is None or v < least:
                        least = v
            togo[index] = least
        used, index, order = [0] * len(sizes), 0, []
        for row in cuts[1:]:
            for c in labels:
                if used[c] < sizes[c]:
                    step = index + strides[c]
                    if row[0 if c == sep else used[c] + 1] + togo[step] == togo[index]:
                        break
            used[c] += 1
            index = step
            order.append(0 if c == sep else c + 1)
        return tuple(order)

    def order_cut(self, order: ClusterOrder) -> int:
        """The scaled cut of a repair order: the sum of the `cut_table`
        entries at its checked ranks (`_order_ranks`, which raises
        ValueError on a bad order, on every call)."""
        nd = self.cfg.nodes
        ranks = _order_ranks(order.labels, nd.k, nd.L, nd.R, nd.E)
        return sum(map(list.__getitem__, self.cut_table[1:], ranks))

    def fraction(self, value: int) -> Fraction:
        """A scaled cut as the Fraction it stands for."""
        return _fraction(value, self.scale)

    def result(self) -> BruteForceResult:
        """The first least cut over every distribution and order."""
        value = min(self.minima)
        # index gives the first of equal values: the first distribution enumerated
        dist = self.distributions[self.minima.index(value)]
        order = ClusterOrder(self.first_order(dist))
        return BruteForceResult(self.fraction(value), dist, order)


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


# the capacity each arc of a cached wiring takes, as an index into
# (alpha, beta_intra, beta_cross, infinite, 0); reverse arcs take _ZERO
_ALPHA, _BETA_INTRA, _BETA_CROSS, _INFINITE, _ZERO = range(5)


def _residual_arcs(
    vertex_count: int, tails, heads
) -> tuple[list[int], list[int], list[int], list[int]]:
    """(starts, to, rev, where): the residual arcs of a graph's edges,
    grouped by tail.  Edge j gives a forward arc tails[j] -> heads[j] at
    position where[j] and a reverse arc at rev[where[j]]; arc p runs from
    to[rev[p]] to to[p].  The arcs out of u sit at positions starts[u] to
    starts[u + 1] - 1, forward arcs first, toward higher-numbered heads."""
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(vertex_count)]
    for j, (u, v) in enumerate(zip(tails, heads)):
        out[u].append((0, -v, 2 * j))
        out[v].append((1, -u, 2 * j + 1))
    starts, position, p = [], [0] * (2 * len(tails)), 0
    for arcs in out:
        starts.append(p)
        arcs.sort()
        for _, _, arc in arcs:
            position[arc] = p
            p += 1
    starts.append(p)
    to, rev = [0] * len(position), [0] * len(position)
    for j, (u, v) in enumerate(zip(tails, heads)):
        f, r = position[2 * j], position[2 * j + 1]
        to[f], to[r], rev[f], rev[r] = v, u, r, f
    return starts, to, rev, position[::2]


@lru_cache(maxsize=4096)
def _ifg_wiring(
    labels: tuple[int, ...], k: int, L: int, R: int, E: int, d_intra: int, d_cross: int
):
    """(starts, to, rev, kinds, where, pick, counts, levels, helped): the
    residual arcs of the flow graph of a repair sequence
    (`_residual_arcs`), with the kind of each arc; where[j] is the
    forward arc of edge j in `build_ifg`'s edge order.  pick maps the
    capacity of each kind, indexed by kind, to the capacity of each arc,
    in one C-level call; counts holds how many edges are of kind
    `_ALPHA`, `_BETA_INTRA` and `_BETA_CROSS`.  levels is the first Dinic
    phase's `_levels` whenever every kind's capacity is positive: they
    follow the forward arcs.  helped holds, newcomer by newcomer, how
    many of its intra and of its cross edges come from an original's
    output (`ifg_mincut`'s bound).

    Vertices: 0 is the source; original slot m has input 1 + 2m and output
    2 + 2m; newcomer step i has input 1 + 2n + 2i and output 2 + 2n + 2i;
    2n + 2k + 1 is the collector.  Slots: cluster c (1..L) position r
    (1..R) -> (c-1)*R + (r-1); separate e (1..E) -> L*R + (e-1).  A
    rejected sequence caches nothing, so it is rejected on every call.
    """
    locations = _check_labels(labels, k, L, R, E)
    n = L * R + E
    new = 1 + 2 * n
    tails: list[int] = []
    heads: list[int] = []
    kinds: list[int] = []

    def edge(u: int, v: int, kind: int) -> None:
        tails.append(u)
        heads.append(v)
        kinds.append(kind)

    for slot in range(n):
        edge(1 + 2 * slot, 2 + 2 * slot, _ALPHA)
    occupant: dict[int, int] = {}  # replaced slot -> newcomer step index
    step_cluster: list[int] = []  # cluster label per newcomer step
    helped: list[int] = []  # per newcomer: intra, then cross edges from originals
    for i, (label, h) in enumerate(zip(labels, locations)):
        if label == 0:
            slot = L * R + (h - 1)
            want = d_intra + d_cross
            helped.append(0)
        else:
            slot = (label - 1) * R + (h - 1)
            # intra edges: every other current member of the cluster
            for other in range((label - 1) * R, label * R):
                if other != slot:
                    step = occupant.get(other)
                    edge(2 + 2 * other if step is None else new + 1 + 2 * step, new + 2 * i,
                         _BETA_INTRA)
            helped.append(R - h)  # the h - 1 replaced members feed from newcomers
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
        helped.append(sum(src <= 2 * n for src in helpers))  # originals' outputs: 2..2n
        for src in helpers:
            edge(src, new + 2 * i, _BETA_CROSS)
        edge(new + 2 * i, new + 1 + 2 * i, _ALPHA)
        occupant[slot] = i
        step_cluster.append(label)
    for slot in range(n):
        edge(0, 1 + 2 * slot, _INFINITE)
    for i in range(k):
        edge(new + 1 + 2 * i, 2 * n + 2 * k + 1, _INFINITE)
    starts, to, rev, where = _residual_arcs(2 * n + 2 * k + 2, tails, heads)
    arc_kinds = [_ZERO] * len(to)
    for p, kind in zip(where, kinds):
        arc_kinds[p] = kind
    arc_kinds = tuple(arc_kinds)
    counts = kinds.count(_ALPHA), kinds.count(_BETA_INTRA), kinds.count(_BETA_CROSS)
    # the picker holds the kinds tuple itself, not a copy; the graph has at
    # least two arcs, so it returns a tuple
    pick = itemgetter(*arc_kinds)
    # every newcomer has a helper, so the forward arcs join source and collector
    levels = tuple(_levels(starts, to, rev, pick((1, 1, 1, 1, 0)), 0, 2 * n + 2 * k + 1))
    return (tuple(starts), tuple(to), tuple(rev), arc_kinds, tuple(where), pick, counts,
            levels, tuple(helped))


def _ifg_capacities(cfg: SystemConfig, order: ClusterOrder):
    """(wiring, scale, capacity): the `_ifg_wiring` of a repair sequence
    under `cfg`, the scale of its bandwidths and the scaled capacity of
    each arc kind, `_ALPHA` ... `_ZERO`; infinite exceeds the sum of all
    finite edges."""
    nd, rp = cfg.nodes, cfg.repair
    wiring = _ifg_wiring(order.labels, nd.k, nd.L, nd.R, nd.E, rp.d_intra, rp.d_cross)
    scale, alpha, beta_i, beta_c = _scaled_bandwidths(cfg)
    alphas, intra, cross = wiring[6]
    infinite = alphas * alpha + intra * beta_i + cross * beta_c + 1
    return wiring, scale, (alpha, beta_i, beta_c, infinite, 0)


def build_ifg(cfg: SystemConfig, order: ClusterOrder) -> FlowGraph:
    """Flow graph of the repair sequence under worst-case wiring.

    Each storage node is an input/output vertex pair joined by an edge of
    capacity alpha.  The source feeds all n initial nodes; each newcomer
    connects to all previous newcomers first (cross-cluster slots), then
    to still-active original nodes; the collector reads the k newcomers.
    The wiring is cached per layout, helper counts and sequence
    (`_ifg_wiring`); this call fills in the scaled capacities.
    """
    nd = cfg.nodes
    (_, to, rev, kinds, where, *_), scale, capacity = _ifg_capacities(cfg, order)
    return FlowGraph(
        vertex_count=2 * nd.n + 2 * nd.k + 2,
        edges=tuple((to[rev[p]], to[p], capacity[kinds[p]]) for p in where),
        source=0,
        sink=2 * nd.n + 2 * nd.k + 1,
        scale=scale,
        infinite=capacity[_INFINITE],
    )


def _levels(starts, to, rev, cap, s: int, t: int) -> list[int] | None:
    """level[v]: the residual distance from v to t over the arcs p with
    cap[p] > 0, labelled breadth-first backwards from t until s is
    reached; None when s cannot reach t."""
    level = [-1] * (len(starts) - 1)
    level[t] = 0
    queue = [t]
    for v in queue:
        below = level[v] + 1
        for p in range(starts[v], starts[v + 1]):
            w = to[p]
            if level[w] < 0 and cap[rev[p]] > 0:
                level[w] = below
                queue.append(w)
        if level[s] >= 0:
            return level
    return None


def _dinic(starts, to, rev, cap: list[int], s: int, t: int, level=None, bound=None) -> int:
    """Exact integral max-flow from s to t over the residual arcs of
    `_residual_arcs`, where cap[p] is the residual capacity of arc p;
    cap is consumed.  Each phase takes the `_levels` of cap (the first
    takes `level` when it is given, which must equal them) and pushes a
    blocking flow by multi-push, without recursion: each vertex keeps
    pushing what it still holds along its admissible arcs, resuming at
    its current arc ptr[u], and what an arc carries is settled once, when
    the walk comes back over it.  `bound` must be a cut value of this
    graph, or above one (by default the capacity out of s): a flow that
    reaches it is maximum by weak duality, so Dinic returns there,
    without the level pass that would find no path."""
    if bound is None:
        bound = sum(cap[starts[s] : starts[s + 1]])
    flow = 0
    while flow < bound and (level := level or _levels(starts, to, rev, cap, s, t)):
        ptr = list(starts)
        # per depth d of the walk: the arc into its vertex, what that arc
        # offered it and what it has still to push
        via, offer, room = [0] * level[s], [0] * level[s], [0] * level[s]
        room[0] = bound - flow
        d, u = 0, s
        while True:
            if r := room[d]:
                p, end, down = ptr[u], starts[u + 1], level[u] - 1
                while p < end and not (cap[p] and level[to[p]] == down):
                    p += 1
                ptr[u] = p
                if p < end:
                    v, c = to[p], cap[p]
                    x = c if c < r else r
                    if v == t:  # the sink takes all it is offered
                        cap[p] = c - x
                        cap[rev[p]] += x
                        room[d] = r - x
                        if x == c:
                            ptr[u] = p + 1
                    else:
                        d += 1
                        via[d] = p
                        offer[d] = room[d] = x
                        u = v
                    continue
            if not d:
                break
            # u is done: settle what it pushed on the arc into it, and
            # leave that arc once it is full or u is blocked
            p, left = via[d], room[d]
            x = offer[d] - left
            d -= 1
            if x:
                cap[p] -= x
                cap[rev[p]] += x
                room[d] -= x
            u = to[rev[p]]
            if left or not cap[p]:
                ptr[u] += 1
        flow = bound - room[0]
        level = None
    return flow


def max_flow(graph: FlowGraph) -> int:
    """Exact integral max-flow on the scaled graph, by the multi-push
    Dinic core `_dinic`, which needs no recursion: a graph of any depth
    is solved.

    Raises ValueError when the source equals the sink, or an edge has a
    negative capacity or an endpoint outside 0..vertex_count-1.
    """
    n, s, t = graph.vertex_count, graph.source, graph.sink
    if s == t or not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source {s} and sink {t} must be distinct vertices below {n}")
    for u, v, c in graph.edges:
        if c < 0 or u < 0 or v < 0:
            raise ValueError(f"edge ({u}, {v}, {c}) has a negative endpoint or capacity")
        if u >= n or v >= n:
            raise ValueError(f"edge ({u}, {v}, {c}) has an endpoint not below {n}")
    starts, to, rev, where = _residual_arcs(
        n, [u for u, _, _ in graph.edges], [v for _, v, _ in graph.edges]
    )
    cap = [0] * len(to)
    for p, (_, _, c) in zip(where, graph.edges):
        cap[p] = c
    return _dinic(starts, to, rev, cap, s, t)


def ifg_mincut(cfg: SystemConfig, order: ClusterOrder) -> Fraction:
    """Source-collector max-flow of the explicit graph, as an exact
    rational.  It never exceeds the part-cut value `mincut(cfg, order)`,
    and the two are equal at the capacity-achieving order; on other
    orders it can be smaller.

    It runs `_dinic`, the multi-push core of `max_flow`, on the residual
    arcs cached with the wiring (`_ifg_wiring`), filling in only their
    scaled capacities with the wiring's picker, from its cached levels
    when alpha and both bandwidths are positive.  Its `bound` is the
    graph's own part-cut, from the wiring's helper counts alone:
    sum(min(alpha, a_i * beta_I + b_i * beta_C)), the cut whose source
    side holds the source, every original and the input of each newcomer
    whose in-weight exceeds alpha.  Where the flow reaches it, as at
    every capacity-achieving order, Dinic skips the level pass that
    would find no path."""
    wiring, scale, capacity = _ifg_capacities(cfg, order)
    starts, to, rev, _, _, pick, _, levels, helped = wiring
    alpha, beta_i, beta_c, _, _ = capacity
    it = iter(helped)
    bound = sum([alpha if alpha < (w := a * beta_i + b * beta_c) else w for a, b in zip(it, it)])
    first = levels if alpha and beta_i and beta_c else None
    # the collector is the last vertex
    flow = _dinic(starts, to, rev, list(pick(capacity)), 0, len(starts) - 2, first, bound)
    return _fraction(flow, scale)


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
    # on the bandwidths cleared to integers by their common denominator,
    # past the weights' cache, which the checkers alone fill: the default
    # sweep_configs() grid would put 796 entries there
    intra, intra_den = beta_intra.as_integer_ratio()
    cross, cross_den = beta_cross.as_integer_ratio()
    den = lcm(intra_den, cross_den)
    values = weight_values.__wrapped__(
        k, E, R, d_cross, intra * (den // intra_den), cross * (den // cross_den)
    )
    return [_fraction(x, den) for x in sorted({0, sum(values), *values})]


def sweep_configs(
    L_values=SWEEP_L_VALUES,
    R_values=SWEEP_R_VALUES,
    E_values=SWEEP_E_VALUES,
    k_max: int = SWEEP_K_MAX,
    beta_pairs=SWEEP_BETA_PAIRS,
) -> list[SystemConfig]:
    """The standard verification grid: every valid d_cross for each node
    layout, the listed bandwidth pairs, and per-config alpha boundaries.

    The configs of one layout share its one `NodeParams`; each is built
    from it as `SystemConfig(nodes, RepairParams(...))`, so every record
    check still runs.  The alpha grid is computed on integers
    (`sweep_alpha_values`) and each alpha made a Fraction once."""
    betas = [(Fraction(bi), Fraction(bc)) for bi, bc in beta_pairs]
    out = []
    for L in L_values:
        for R in R_values:
            for E in E_values:
                n = L * R + E
                for k in range(2, min(k_max, n - 1) + 1):
                    nodes = NodeParams(n, k, L, R, E)
                    for d_cross in range(max(0, k - R + 1), n - R + 1):
                        for bi, bc in betas:
                            for alpha in sweep_alpha_values(k, R, E, d_cross, bi, bc):
                                out.append(
                                    SystemConfig(nodes, RepairParams(alpha, R - 1, bi, d_cross, bc))
                                )
    return out


class _EvaluationContext(_Search):
    """What the claim checkers of one config share, computed once, in
    dependency order: the search (`_Search`); the constructed cuts, that
    is the scaled cut (`order_cut`) of each all-cluster distribution's
    vertical order and of the constructed order with the separate node at
    each position j = 1..k; the least cut at each j (`_separate_minima`);
    and the closed form (`system_capacity`).  The seams `vertical_order`,
    `horizontal_selection`, `optimal_order_with_separate_at` and
    `system_capacity` are looked up in this module when they are used, so
    a substitute put there is what the checkers see.

    A context serves one config only: `verify_claims` makes a fresh one per
    config, and nothing keyed by alpha outlives it.  What it weights is
    cached by its owners across configs under keys without alpha: the
    distributions (`model`), the selections and orders (`sequencing`), the
    sorted weights (`capacity`), and, in this module, the lattice edges,
    the cut table's coefficient pairs and the verdicts of Lemmas 1-2 and
    Theorem 4.  Every one of those caches is keyed by plain ints and int
    tuples, never by a record, whose `__hash__` runs in Python: the
    verdicts take the layout's fields and the bandwidths' numerators and
    denominators, and the record-taking functions of `model` and
    `sequencing` pass their records' fields on to private caches.  The
    checkers compare scaled integers, read each
    distribution's least cut by its enumeration position, and turn a cut
    into its Fraction (`fraction`) only to report it.
    """

    def __init__(self, cfg: SystemConfig, budget: int | None = None) -> None:
        super().__init__(cfg, budget)
        dists, (_, backward, blocks) = self.distributions, self.lattice
        self.instance = cfg.describe()
        # the last distributions enumerated, the block without a separate node
        self.all_cluster = dists[len(dists) - blocks[-1] :]
        self.one_separate = [dist for dist in dists if dist.separate == 1]
        self.vertical_cuts = [self.order_cut(vertical_order(d)) for d in self.all_cluster]
        self.by_location, self.separate_minima = [], []
        if self.one_separate:
            self.by_location = [self.order_cut(optimal_order_with_separate_at(cfg.nodes, j))
                                for j in range(1, cfg.nodes.k + 1)]
            self.separate_minima = _separate_minima(
                self.forward, backward, blocks, self.cut_table
            )
        self.capacity = system_capacity(cfg)


@lru_cache(maxsize=4096)
def _lemma1_counterexample(k: int, L: int, R: int, E: int, d_intra: int) -> str | None:
    """Lemma 1's verdict on the all-cluster distributions of the layout
    with these fields: None, or the first order in scan order of the first
    failing distribution whose sorted intra coefficients differ from those
    of its first order.

    An order gives each cluster's selected nodes the ranks 1, 2, ... once
    each, so the claim holds when each rank's intra coefficient is the
    same at every position; only otherwise are the orders walked.  An
    intra coefficient depends on neither d_cross nor the bandwidths."""
    if all(
        len({_coefficient(i, h, False, d_intra, 0)[0] for i in range(h, k + 1)}) == 1
        for h in range(1, min(k, R) + 1)
    ):
        return None
    for dist in _enumerate_distributions(k, L, R, E):
        if dist.separate:
            continue
        bags = (
            (labels, tuple(sorted(_coefficient(i, h, False, d_intra, 0)[0]
                                  for i, h in enumerate(ranks, start=1))))
            for labels, ranks in _scan_orders(dist)
        )
        _, reference = next(bags)
        for labels, bag in bags:
            if bag != reference:
                return f"s={dist} order={labels} intra multiset {bag} != {reference}"
    return None


def _check_lemma1(ctx: _EvaluationContext):
    """The multiset of intra coefficients is the same for every repair
    sequence of a fixed all-cluster distribution."""
    nd = ctx.cfg.nodes
    if not ctx.all_cluster:
        return True, None
    counter = _lemma1_counterexample(nd.k, nd.L, nd.R, nd.E, ctx.cfg.repair.d_intra)
    return counter is None, counter


@lru_cache(maxsize=4096)
def _lemma2_counterexample(
    k: int, L: int, R: int, E: int, d_intra: int, d_cross: int
) -> str | None:
    """Lemma 2's verdict on the constructed optimal sequence of the layout
    with these fields: None, or the first position whose coefficient pair
    does not sum to d + 1 - i."""
    _, order = _layout_achiever(k, L, R, E)
    d = d_intra + d_cross
    coeffs = incoming_coefficients(d_intra, d_cross, order)
    for i, (a, b, _) in enumerate(coeffs, start=1):
        if a + b != d + 1 - i:
            return f"position {i} of {order}: {a}+{b} != {d + 1 - i}"
    return None


def _check_lemma2(ctx: _EvaluationContext):
    """Along the constructed optimal sequence the coefficient pairs sum to
    d + 1 - i at every position."""
    nd, rp = ctx.cfg.nodes, ctx.cfg.repair
    counter = _lemma2_counterexample(nd.k, nd.L, nd.R, nd.E, rp.d_intra, rp.d_cross)
    return counter is None, counter


def _check_prop1(ctx: _EvaluationContext):
    """The vertical order minimizes the min-cut within each all-cluster
    distribution."""
    dists = ctx.all_cluster
    minima = ctx.minima[len(ctx.minima) - len(dists) :]
    for dist, value, constructed in zip(dists, minima, ctx.vertical_cuts):
        if value < constructed:
            return False, (
                f"s={dist}: order {ctx.first_order(dist)} gives {ctx.fraction(value)} "
                f"< {ctx.fraction(constructed)}"
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
    best = cuts[ctx.all_cluster.index(star)]
    for dist, value in zip(ctx.all_cluster, cuts):
        if value < best:
            return False, (
                f"s={dist} gives {ctx.fraction(value)} < {ctx.fraction(best)} at s*={star}"
            )
    return True, None


def _check_thm1(ctx: _EvaluationContext):
    """With the separate node pinned at location j, the constructed
    sequence minimizes over all one-separate selections and orders."""
    if not ctx.one_separate:
        return True, None
    by_location = ctx.by_location
    if all(map(le, by_location, ctx.separate_minima)):
        return True, None
    for dist in ctx.one_separate:
        for labels, ranks in _scan_orders(dist):
            value = sum(map(list.__getitem__, ctx.cut_table[1:], ranks))
            j = labels.index(0)
            if value < by_location[j]:
                return False, (
                    f"s={dist} order={labels} separate at {j + 1}: "
                    f"{ctx.fraction(value)} < constructed {ctx.fraction(by_location[j])}"
                )
    raise AssertionError("the value pass found a cut below a bound that no order has")


def _check_thm2(ctx: _EvaluationContext):
    """Min-cut of the constructed sequence is non-increasing in the
    separate node's location."""
    values = ctx.by_location
    for j, (x, y) in enumerate(zip(values, values[1:]), start=1):
        if x < y:
            return False, (
                f"MC at j={j} is {ctx.fraction(x)} < MC at j={j + 1} = {ctx.fraction(y)}"
            )
    return True, None


def _check_thm3(ctx: _EvaluationContext):
    """Separate node last equals the closed-form capacity (E=1)."""
    if ctx.cfg.nodes.E != 1 or not ctx.by_location:
        return True, None
    last = ctx.by_location[-1]
    closed = ctx.capacity
    # last / scale != closed, on integers
    if last * closed.denominator != closed.numerator * ctx.scale:
        return False, f"MC at j=k is {ctx.fraction(last)} but closed form gives {closed}"
    return True, None


@lru_cache(maxsize=4096)
def _thm4_counterexample(
    k: int, L: int, R: int, d_cross: int, bi_num: int, bi_den: int, bc_num: int, bc_den: int
) -> str | None:
    """Theorem 4's verdict on the layout of k, L and R without separate
    nodes at beta_intra = bi_num / bi_den and beta_cross = bc_num / bc_den,
    each in lowest terms: None, or how adding one separate node at
    uncapped alpha departs from the dichotomy.  Uncapped alpha, one more
    than the saturated capacity, depends on the bandwidths alone, and
    d_intra is R - 1 in every config."""
    nodes = NodeParams(n=L * R, k=k, L=L, R=R, E=0)
    beta_intra, beta_cross = Fraction(bi_num, bi_den), Fraction(bc_num, bc_den)
    values = cluster_weight_values(k, R, d_cross, beta_intra, beta_cross)
    uncapped = RepairParams(
        alpha=sum(values, start=Fraction(0)) + 1,
        d_intra=R - 1,
        beta_intra=beta_intra,
        d_cross=d_cross,
        beta_cross=beta_cross,
    )
    verdict = compare_separate(nodes, uncapped)
    keep = k % R == 0 or beta_intra == beta_cross
    expected = Outcome.EQUAL if keep else Outcome.REDUCED
    if verdict.outcome is not expected:
        return (
            f"expected {expected.value} (k={k}, R={R}), got "
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
    counter = _thm4_counterexample(
        nd.k, nd.L, nd.R, rp.d_cross,
        *rp.beta_intra.as_integer_ratio(), *rp.beta_cross.as_integer_ratio(),
    )
    return counter is None, counter


def _check_closed_vs_search(ctx: _EvaluationContext):
    """Closed-form capacity equals the exhaustive minimum.

    Passes on the whole `sweep_alpha_values` grid of a layout, d_cross
    and bandwidths prove the claim at every alpha >= 0 there.  The
    exhaustive minimum is concave, non-decreasing and never above the
    closed form; the closed form is linear between consecutive weights
    and flat past the largest; and the grid holds 0 and every weight.
    So the two sides, equal at both ends of each segment, are equal on
    it, and past the largest weight as well."""
    closed = ctx.capacity
    # closed != least / scale, on integers
    if closed.numerator * ctx.scale != min(ctx.minima) * closed.denominator:
        found = ctx.result()
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
            # positional arguments: keywords cost a third of the report
            reports.append(VerificationReport(ctx.instance, claim, *_CHECKERS[claim](ctx)))
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
        alpha = rng.choice(sweep_alpha_values(k, R, E, d_cross, bi, bc))
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
