"""Parameters, exact rationals, and combinatorial enumeration.

A system consists of L clusters of R nodes each plus E separate nodes
(n = L*R + E total).  A data collector reads k nodes; repairing a cluster
node downloads beta_intra from each of d_intra intra-cluster helpers and
beta_cross from each of d_cross cross-cluster helpers, while a separate
node downloads beta_cross from d = d_intra + d_cross helpers.

All bandwidth and capacity values are exact rationals (fractions.Fraction);
no floating point is used anywhere in the computations.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import attrgetter

Rational = Fraction

RationalLike = int | str | Fraction


class ConfigError(ValueError):
    """A supplied parameter set violates a model constraint."""


class NodeCount(ConfigError):
    """n does not equal L*R + E."""


class KRange(ConfigError):
    """k outside [1, n-1] (or a basic count is non-positive)."""


class DInvalid(ConfigError):
    """d_intra differs from R-1; all intra-cluster nodes must help."""


class BandwidthOrder(ConfigError):
    """beta_intra < beta_cross (intra links must be at least as wide)."""


class DCRange(ConfigError):
    """d_cross outside [max(0, k - R + 1), n - R]."""


class Infeasible(ConfigError):
    """Fewer than k nodes available to select."""


class BudgetExceeded(RuntimeError):
    """A search needs more work units (`unit`: repair orders for the
    exhaustive scan, lattice states for the DP) than the allowed budget;
    `size` is the count reached when the search stopped."""

    def __init__(self, size: int, budget: int, unit: str = "orders"):
        super().__init__(f"{size} {unit} exceed the budget of {budget} {unit}")
        self.size = size
        self.budget = budget
        self.unit = unit


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ConfigError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' (lossless, canonical)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in `__slots__` and sets them in its own
    `__init__` with `object.__setattr__`, then validates them.  Equality
    (same type only), hashing and repr follow the field values in slot
    order.  Defining a subclass generates no code, and importing this
    module imports nothing beyond the standard library's start-up set.

    `__hash__` and `__eq__` run in Python, so records are not the keys of
    the package's caches: each public function cached per record is a
    thin wrapper over a private cache keyed by the record's fields as
    plain ints and int tuples, whose hashing and comparison run in C.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which re-validates
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class NodeParams(Record):
    """Node-level layout: n total nodes, k to reconstruct, L clusters of
    R nodes, E separate nodes."""

    __slots__ = ("n", "k", "L", "R", "E")

    def __init__(self, n: int, k: int, L: int, R: int, E: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "E", E)
        if self.L < 1 or self.R < 1 or self.E < 0:
            raise KRange(f"need L >= 1, R >= 1, E >= 0; got L={self.L} R={self.R} E={self.E}")
        if self.n != self.L * self.R + self.E:
            raise NodeCount(f"n={self.n} but L*R+E={self.L * self.R + self.E}")
        if not 1 <= self.k <= self.n - 1:
            raise KRange(f"k={self.k} outside [1, n-1]=[1, {self.n - 1}]")


class RepairParams(Record):
    """Storage and repair-bandwidth parameters.

    alpha is the per-node storage; helper counts and per-helper downloads
    are split into intra-cluster and cross-cluster classes.
    """

    __slots__ = ("alpha", "d_intra", "beta_intra", "d_cross", "beta_cross")

    def __init__(
        self,
        alpha: Fraction,
        d_intra: int,
        beta_intra: Fraction,
        d_cross: int,
        beta_cross: Fraction,
    ) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "d_intra", d_intra)
        object.__setattr__(self, "beta_intra", beta_intra)
        object.__setattr__(self, "d_cross", d_cross)
        object.__setattr__(self, "beta_cross", beta_cross)
        if self.alpha < 0:
            raise ConfigError(f"alpha={self.alpha} must be >= 0")
        if self.beta_cross < 0:
            raise BandwidthOrder(f"beta_cross={self.beta_cross} must be >= 0")
        if self.beta_intra < self.beta_cross:
            raise BandwidthOrder(
                f"beta_intra={self.beta_intra} < beta_cross={self.beta_cross}"
            )

    @property
    def d(self) -> int:
        """Total helper count for one repair."""
        return self.d_intra + self.d_cross

    @property
    def gamma_intra(self) -> Fraction:
        """Intra-cluster part of a cluster node's repair bandwidth: d_intra * beta_intra."""
        return self.d_intra * self.beta_intra

    @property
    def gamma_cross(self) -> Fraction:
        """Cross-cluster part of a cluster node's repair bandwidth: d_cross * beta_cross."""
        return self.d_cross * self.beta_cross

    @property
    def gamma_separate(self) -> Fraction:
        """Total bandwidth to repair a separate node: d * beta_cross."""
        return self.d * self.beta_cross


def _check_d_cross(nodes: NodeParams, d_cross: int) -> None:
    """Raise DCRange unless max(0, k-R+1) <= d_cross <= n-R."""
    lo, hi = max(0, nodes.k - nodes.R + 1), nodes.n - nodes.R
    if not lo <= d_cross <= hi:
        raise DCRange(f"d_cross={d_cross} outside [{lo}, {hi}]")


class SystemConfig(Record):
    """A fully validated system: node layout plus repair parameters."""

    __slots__ = ("nodes", "repair")

    def __init__(self, nodes: NodeParams, repair: RepairParams) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "repair", repair)
        nd, rp = nodes, repair
        if rp.d_intra != nd.R - 1:
            raise DInvalid(f"d_intra={rp.d_intra} but must equal R-1={nd.R - 1}")
        _check_d_cross(nd, rp.d_cross)

    @property
    def k(self) -> int:
        return self.nodes.k

    def describe(self) -> str:
        nd, rp = self.nodes, self.repair
        return (
            f"n={nd.n} k={nd.k} L={nd.L} R={nd.R} E={nd.E} "
            f"dI={rp.d_intra} dC={rp.d_cross} "
            f"bI={format_rational(rp.beta_intra)} bC={format_rational(rp.beta_cross)} "
            f"alpha={format_rational(rp.alpha)}"
        )


def validate_config(
    *,
    n: int,
    k: int,
    L: int,
    R: int,
    E: int,
    d_cross: int,
    beta_intra: RationalLike,
    beta_cross: RationalLike,
    alpha: RationalLike,
    d_intra: int | None = None,
) -> SystemConfig:
    """Build a SystemConfig, raising a named ConfigError on any violation.

    d_intra defaults to R-1 (every other node in the failed node's cluster
    helps); passing anything else raises DInvalid.
    """
    nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
    repair = RepairParams(
        alpha=parse_rational(alpha),
        d_intra=R - 1 if d_intra is None else d_intra,
        beta_intra=parse_rational(beta_intra),
        d_cross=d_cross,
        beta_cross=parse_rational(beta_cross),
    )
    return SystemConfig(nodes=nodes, repair=repair)


def _scaled_bandwidths(cfg: SystemConfig) -> tuple[int, int, int, int]:
    """(scale, alpha, beta_intra, beta_cross) with rationals cleared to
    integers by the common denominator."""
    rp = cfg.repair
    alpha, a = rp.alpha.as_integer_ratio()
    beta_intra, bi = rp.beta_intra.as_integer_ratio()
    beta_cross, bc = rp.beta_cross.as_integer_ratio()
    if a == bi == bc == 1:  # integer bandwidths: nothing to clear
        return 1, alpha, beta_intra, beta_cross
    scale = lcm(a, bi, bc)
    return scale, alpha * (scale // a), beta_intra * (scale // bi), beta_cross * (scale // bc)


def _fraction(value: int, scale: int) -> Fraction:
    """value / scale as a Fraction; at scale 1, Fraction(value) skips the
    gcd that Fraction(value, 1) computes."""
    return Fraction(value) if scale == 1 else Fraction(value, scale)


class SelectedNodeDistribution(Record):
    """How the k collector nodes spread over clusters: `separate` of them
    are separate nodes, clusters[i] sit in cluster i+1 (counts
    non-increasing; clusters are relabeled by selection count)."""

    __slots__ = ("separate", "clusters")

    def __init__(self, separate: int, clusters: tuple[int, ...]) -> None:
        object.__setattr__(self, "separate", separate)
        object.__setattr__(self, "clusters", clusters)
        if self.separate < 0 or any(c < 0 for c in self.clusters):
            raise ConfigError(f"negative count in {self}")
        if any(a < b for a, b in zip(self.clusters, self.clusters[1:])):
            raise ConfigError(f"cluster counts not non-increasing: {self.clusters}")

    @property
    def k(self) -> int:
        return self.separate + sum(self.clusters)

    def is_member(self, nodes: NodeParams) -> bool:
        """True when this distribution is selectable under `nodes`."""
        return (
            len(self.clusters) == nodes.L
            and self.separate <= nodes.E
            and all(c <= nodes.R for c in self.clusters)
            and self.k == nodes.k
        )

    def __str__(self) -> str:
        return f"({self.separate}; {', '.join(str(c) for c in self.clusters)})"


class ClusterOrder(Record):
    """A repair sequence recorded as cluster indices, one entry per
    selected node; 0 marks a separate node."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[int, ...]) -> None:
        object.__setattr__(self, "labels", labels)
        if any(x < 0 for x in self.labels):
            raise ConfigError(f"negative cluster label in {self.labels}")

    @property
    def k(self) -> int:
        return len(self.labels)

    def distribution(self, L: int) -> SelectedNodeDistribution:
        """Counts per cluster label (canonical labels assumed)."""
        counts = [0] * L
        separate = 0
        for x in self.labels:
            if x == 0:
                separate += 1
            elif x <= L:
                counts[x - 1] += 1
            else:
                raise ConfigError(f"label {x} exceeds L={L}")
        return SelectedNodeDistribution(separate=separate, clusters=tuple(counts))

    def matches(self, dist: SelectedNodeDistribution) -> bool:
        """Membership test: label counts equal the distribution's counts."""
        try:
            return self.distribution(len(dist.clusters)) == dist
        except ConfigError:
            return False

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.labels) + ")"


def enumerate_distributions(nodes: NodeParams) -> tuple[SelectedNodeDistribution, ...]:
    """All selected-node distributions, separate count descending, then
    cluster counts in descending lexicographic order.

    Cached per node layout (`_enumerate_distributions`); the tuple is
    shared by every caller."""
    return _enumerate_distributions(nodes.k, nodes.L, nodes.R, nodes.E)


@lru_cache(maxsize=128)
def _enumerate_distributions(
    k: int, L: int, R: int, E: int
) -> tuple[SelectedNodeDistribution, ...]:
    """`enumerate_distributions` of the layout with these fields, keyed by
    plain ints: a record's `__hash__` runs in Python."""
    if k > E + L * R:
        raise Infeasible(f"k={k} exceeds selectable nodes {E + L * R}")
    out: list[SelectedNodeDistribution] = []

    def fill(remaining: int, slots: int, bound: int, acc: list[int]) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(SelectedNodeDistribution(separate=s0, clusters=tuple(acc)))
            return
        top = min(bound, remaining)
        for value in range(top, -1, -1):
            # prune: the rest must fit under the non-increasing bound
            if remaining - value <= (slots - 1) * value:
                acc.append(value)
                fill(remaining - value, slots - 1, value, acc)
                acc.pop()

    for s0 in range(min(E, k), -1, -1):
        if k - s0 <= L * R:
            fill(k - s0, L, R, [])
    return tuple(out)


def _multiset_permutations(items: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations in lexicographic order (next-permutation walk)."""
    seq = sorted(items)
    n = len(seq)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(seq)
        # find rightmost ascent
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def order_count(dist: SelectedNodeDistribution) -> int:
    """|Pi(s)| = k! / (s0! * prod(s_i!))."""
    total = factorial(dist.k) // factorial(dist.separate)
    for c in dist.clusters:
        total //= factorial(c)
    return total


def enumeration_size(nodes: NodeParams) -> int:
    """Total number of repair sequences over all distributions, cached per
    node layout like `enumerate_distributions` (`_enumeration_size`)."""
    return _enumeration_size(nodes.k, nodes.L, nodes.R, nodes.E)


@lru_cache(maxsize=128)
def _enumeration_size(k: int, L: int, R: int, E: int) -> int:
    """`enumeration_size` of the layout with these fields, keyed by plain ints."""
    return sum(map(order_count, _enumerate_distributions(k, L, R, E)))


def iter_orders(dist: SelectedNodeDistribution) -> Iterator[ClusterOrder]:
    """All distinct repair sequences for a distribution, lazily, in
    lexicographic order (separate label 0 sorts first)."""
    items = [0] * dist.separate
    for cluster, count in enumerate(dist.clusters, start=1):
        items.extend([cluster] * count)
    for p in _multiset_permutations(items):
        yield ClusterOrder(labels=p)


def enumerate_orders(dist: SelectedNodeDistribution) -> list[ClusterOrder]:
    """The sequences of iter_orders as a list."""
    return list(iter_orders(dist))
