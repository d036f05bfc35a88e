"""Minimum-storage regenerating code for the 5-node instance (two
2-node clusters plus one separate node, k = 3, alpha = 2, file size 6).

Two systematic (5,3) MDS codes over a prime field encode the x-half and
y-half of the file; node i stores (x_i, y_i).  Repair downloads stay on
the minimum-storage bandwidth contract:

* separate node 3: one stored linear combination from each of the four
  other nodes (4 symbols total);
* cluster node: the partner's full contents plus one combination from
  each of the three remaining nodes (5 symbols total).

The download combinations are chosen so that the unwanted unknowns align
and cancel (rank-1 interference conditions plus a rank-2 solve), and each
repair plan carries an exact decode matrix.  ``search_construction`` finds
a fully verified instance deterministically from a seed.

``INSTANCE`` states these parameters as a ``SystemConfig`` (d_C = 3,
beta_I = 2, beta_C = 1).  Its capacity is 6, the file size, and 2 is the
least alpha that stores 6 on its weights, so the code sits on the
tradeoff: at tau = beta_I / beta_C = 2 the capacity falls to 29/5 once
beta_C drops to 9/10, the minimum-storage corner of that curve.  At
tau = 1 (beta_I = 1) the capacity is still 6, so the tradeoff would
allow a cluster repair of 4 symbols, not 5.
"""

from __future__ import annotations

import random
from itertools import combinations

from .model import Record, validate_config

Matrix = tuple[tuple[int, ...], ...]

INSTANCE = validate_config(
    n=5, k=3, L=2, R=2, E=1, d_cross=3, beta_intra=2, beta_cross=1, alpha=2
)
CLUSTERS = ((1, 2), (4, 5))
SEPARATE_NODE = 3
ALL_NODES = (1, 2, 3, 4, 5)


class SingularSystem(ValueError):
    """Collection subset is not decodable (the instance is not MDS)."""


class AlignmentFailure(ValueError):
    """Repair coefficients do not permit eliminating the interference."""


class SearchExhausted(RuntimeError):
    def __init__(self, attempts: int):
        super().__init__(f"no valid instance within {attempts} attempts")
        self.attempts = attempts


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


class PrimeField:
    """Arithmetic mod a prime q; elements are ints in [0, q)."""

    def __init__(self, q: int):
        if not _is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.q = q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.q - 2, self.q)

    def _eliminate(self, rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
        """Gauss-Jordan reduction mod q on the first `cols` columns:
        (reduced rows, pivot column of each leading row)."""
        q = self.q
        m = [[x % q for x in row] for row in rows]
        pivots: list[int] = []
        for col in range(cols):
            row = len(pivots)
            if row == len(m):
                break
            pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            inv = self.inv(m[row][col])
            m[row] = [x * inv % q for x in m[row]]
            for r in range(len(m)):
                if r != row and m[r][col]:
                    f = m[r][col]
                    m[r] = [(a - f * b) % q for a, b in zip(m[r], m[row])]
            pivots.append(col)
        return m, pivots

    def rank(self, rows: list[list[int]]) -> int:
        return len(self._eliminate(rows, len(rows[0]) if rows else 0)[1])

    def solve_right(self, a_rows: list[list[int]], b_rows: list[list[int]]):
        """One X with A @ X = B (mod q), or None if inconsistent.

        A is m x n, B is m x p, X is n x p; free variables are set to 0.
        """
        n = len(a_rows[0]) if a_rows else 0
        p = len(b_rows[0]) if b_rows else 0
        aug, pivots = self._eliminate([[*a, *b] for a, b in zip(a_rows, b_rows)], n)
        if any(any(row[n:]) for row in aug[len(pivots):]):
            return None
        x = [[0] * p for _ in range(n)]
        for row, col in zip(aug, pivots):
            x[col] = row[n:]
        return x

    def mat_vec(self, rows: Matrix | list[list[int]], vec: list[int]) -> list[int]:
        return [sum(c * v for c, v in zip(row, vec)) % self.q for row in rows]


class NodeContents(Record):
    """One storage node's two symbols (alpha = 2)."""

    __slots__ = ("node", "x", "y")

    def __init__(self, node: int, x: int, y: int) -> None:
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class RepairPlan(Record):
    """Downloads and decode map for one failure pattern.

    `coefficients[h] = (c1, c2)` means helper h sends c1*x_h + c2*y_h.
    A cluster node's partner sends both stored symbols instead.  The
    decode matrix maps the download vector (partner symbols first, then
    helper combinations in `helpers` order) to the lost (x, y).
    """

    __slots__ = ("failed", "partner", "helpers", "coefficients", "decode")

    def __init__(
        self,
        failed: int,
        partner: int | None,
        helpers: tuple[int, ...],
        coefficients: dict[int, tuple[int, int]],
        decode: Matrix,
    ) -> None:
        object.__setattr__(self, "failed", failed)
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "helpers", helpers)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "decode", decode)

    @property
    def download_count(self) -> int:
        return (2 if self.partner is not None else 0) + len(self.helpers)


class CodeInstance(Record):
    """Encoding matrices plus verified repair plans over GF(q)."""

    __slots__ = ("q", "a", "b", "plans")

    def __init__(
        self,
        q: int,
        a: Matrix,  # 3x2, x-code parity columns
        b: Matrix,  # 3x2, y-code parity columns
        plans: dict[int, RepairPlan],
    ) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "plans", plans)

    def field(self) -> PrimeField:
        return PrimeField(self.q)

    def x_column(self, node: int) -> list[int]:
        """Coefficients of (x1, x2, x3) stored as node's x symbol."""
        if node <= 3:
            return [1 if i == node - 1 else 0 for i in range(3)]
        return [self.a[i][node - 4] for i in range(3)]

    def y_column(self, node: int) -> list[int]:
        if node <= 3:
            return [1 if i == node - 1 else 0 for i in range(3)]
        return [self.b[i][node - 4] for i in range(3)]

    def to_text(self) -> str:
        lines = [f"q {self.q}"]
        lines.append("A " + " ".join(str(v) for row in self.a for v in row))
        lines.append("B " + " ".join(str(v) for row in self.b for v in row))
        for failed in sorted(self.plans):
            plan = self.plans[failed]
            partner = "-" if plan.partner is None else str(plan.partner)
            lines.append(f"plan {failed} partner {partner}")
            for h in plan.helpers:
                c1, c2 = plan.coefficients[h]
                lines.append(f"coeff {h} {c1} {c2}")
            lines.append("decode " + " ".join(str(v) for row in plan.decode for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CodeInstance":
        """Parse `to_text` output; raises ValueError on any malformed text."""
        lines = [ln.split() for ln in text.strip().splitlines()]
        i = 0

        def take(label: str, count: int) -> list[str]:
            """The `count` entries of line i, which must start with `label`."""
            nonlocal i
            if i == len(lines):
                raise ValueError(f"text ends before the {label!r} line")
            if lines[i][:1] != [label]:
                raise ValueError(f"expected {label!r}, got {lines[i]}")
            entries = lines[i][1:]
            if len(entries) != count:
                raise ValueError(f"{label!r} line needs {count} entries, got {lines[i]}")
            i += 1
            return entries

        if not lines or lines[0][:1] != ["q"]:
            raise ValueError("expected 'q' header")
        q = int(take("q", 1)[0])
        a_vals = [int(v) for v in take("A", 6)]
        b_vals = [int(v) for v in take("B", 6)]
        a = tuple(tuple(a_vals[r * 2 : r * 2 + 2]) for r in range(3))
        b = tuple(tuple(b_vals[r * 2 : r * 2 + 2]) for r in range(3))
        plans = {}
        while i < len(lines):
            failed_text, keyword, partner_text = take("plan", 3)
            if keyword != "partner":
                raise ValueError(f"expected 'partner' in plan line, got {keyword!r}")
            failed = int(failed_text)
            partner = None if partner_text == "-" else int(partner_text)
            helpers = []
            coefficients = {}
            while i < len(lines) and lines[i][:1] == ["coeff"]:
                h, c1, c2 = (int(v) for v in take("coeff", 3))
                helpers.append(h)
                coefficients[h] = (c1, c2)
            width = (2 if partner is not None else 0) + len(helpers)
            vals = [int(v) for v in take("decode", 2 * width)]
            decode = tuple(tuple(vals[r * width : (r + 1) * width]) for r in range(2))
            plans[failed] = RepairPlan(
                failed=failed,
                partner=partner,
                helpers=tuple(helpers),
                coefficients=coefficients,
                decode=decode,
            )
        return cls(q=q, a=a, b=b, plans=plans)


def encode(message: list[int], inst: CodeInstance) -> list[NodeContents]:
    """Systematic encode: nodes 1..3 store the message halves verbatim,
    nodes 4..5 store the parity columns."""
    if len(message) != 6:
        raise ValueError("message must have 6 symbols")
    q = inst.q
    x = [v % q for v in message[:3]]
    y = [v % q for v in message[3:]]
    out = []
    for node in ALL_NODES:
        xv = sum(c * v for c, v in zip(inst.x_column(node), x)) % q
        yv = sum(c * v for c, v in zip(inst.y_column(node), y)) % q
        out.append(NodeContents(node=node, x=xv, y=yv))
    return out


def data_collect(contents: list[NodeContents], inst: CodeInstance) -> list[int]:
    """Reconstruct the 6-symbol message from any 3 distinct nodes."""
    if len(contents) != 3 or len({c.node for c in contents}) != 3:
        raise ValueError("need exactly 3 distinct nodes")
    field = inst.field()
    xs = field.solve_right(
        [inst.x_column(c.node) for c in contents], [[c.x] for c in contents]
    )
    ys = field.solve_right(
        [inst.y_column(c.node) for c in contents], [[c.y] for c in contents]
    )
    nodes = sorted(c.node for c in contents)
    # solvable with a unique solution only if the 3x3 blocks are invertible
    if (
        xs is None
        or ys is None
        or field.rank([inst.x_column(n) for n in nodes]) < 3
        or field.rank([inst.y_column(n) for n in nodes]) < 3
    ):
        raise SingularSystem(f"nodes {nodes} cannot decode (non-MDS instance)")
    return [column[0] for column in xs] + [column[0] for column in ys]


def _functional(inst: CodeInstance, node: int, c1: int, c2: int) -> list[int]:
    """Row functional of c1*x_node + c2*y_node over (x1,x2,x3,y1,y2,y3)."""
    xcol = inst.x_column(node)
    ycol = inst.y_column(node)
    return [c1 * v % inst.q for v in xcol] + [c2 * v % inst.q for v in ycol]


def _plan_matrices(
    inst: CodeInstance, failed: int, partner: int | None, helpers: tuple[int, ...],
    coefficients: dict[int, tuple[int, int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """(download functionals, target functionals) of a repair: the
    partner's two symbols, then one row per helper in `helpers` order."""
    rows: list[list[int]] = []
    if partner is not None:
        rows.append(_functional(inst, partner, 1, 0))
        rows.append(_functional(inst, partner, 0, 1))
    for h in helpers:
        c1, c2 = coefficients[h]
        rows.append(_functional(inst, h, c1, c2))
    targets = [
        _functional(inst, failed, 1, 0),
        _functional(inst, failed, 0, 1),
    ]
    return rows, targets


def repair(failed: int, inst: CodeInstance, surviving: list[NodeContents]) -> NodeContents:
    """Exact repair of one node from the permitted downloads only.

    Verifies symbolically that the stored decode map reproduces the lost
    functionals before applying it, so a corrupted instance raises
    AlignmentFailure rather than returning wrong data.
    """
    plan = inst.plans.get(failed)
    if plan is None:
        raise ValueError(f"no repair plan for node {failed}")
    field = inst.field()
    q = inst.q
    rows, targets = _plan_matrices(inst, plan.failed, plan.partner, plan.helpers, plan.coefficients)
    for t_row, d_row in zip(targets, plan.decode):
        got = [sum(d * rows[j][col] for j, d in enumerate(d_row)) % q for col in range(6)]
        if got != t_row:
            raise AlignmentFailure(
                f"decode map for node {failed} does not eliminate interference"
            )
    by_node = {c.node: c for c in surviving}
    downloads: list[int] = []
    if plan.partner is not None:
        partner = by_node[plan.partner]
        downloads.extend([partner.x, partner.y])
    for h in plan.helpers:
        c1, c2 = plan.coefficients[h]
        helper = by_node[h]
        downloads.append((c1 * helper.x + c2 * helper.y) % q)
    lost = field.mat_vec(plan.decode, downloads)
    return NodeContents(node=failed, x=lost[0], y=lost[1])


def repair_bandwidth(inst: CodeInstance, failed: int) -> int:
    """Symbols read over the network for one repair."""
    return inst.plans[failed].download_count


def check_rank_conditions(inst: CodeInstance) -> bool:
    """Interference-alignment conditions for the separate node's repair:
    the (x1,y1) and (x2,y2) coefficient stacks are rank 1 and the
    remaining 2x2 system in (x3,y3) is invertible."""
    plan = inst.plans.get(SEPARATE_NODE)
    if plan is None or plan.partner is not None:
        raise ValueError("instance has no separate-node repair plan")
    field = inst.field()
    (a11, a12), (a21, a22), (a31, a32) = inst.a
    (b11, b12), (b21, b22), (b31, b32) = inst.b
    c11, c12 = plan.coefficients[1]
    c21, c22 = plan.coefficients[2]
    c41, c42 = plan.coefficients[4]
    c51, c52 = plan.coefficients[5]
    m1 = [[c11, c12], [c41 * a11, c42 * b11], [c51 * a12, c52 * b12]]
    m2 = [[c21, c22], [c41 * a21, c42 * b21], [c51 * a22, c52 * b22]]
    m3 = [[c41 * a31, c42 * b31], [c51 * a32, c52 * b32]]
    return field.rank(m1) == 1 and field.rank(m2) == 1 and field.rank(m3) == 2


def _mds_ok(inst: CodeInstance) -> bool:
    field = inst.field()
    for subset in combinations(ALL_NODES, 3):
        if field.rank([inst.x_column(n) for n in subset]) < 3:
            return False
        if field.rank([inst.y_column(n) for n in subset]) < 3:
            return False
    return True


def _solve_decode(
    inst: CodeInstance, failed: int, partner: int | None, helpers: tuple[int, ...],
    coefficients: dict[int, tuple[int, int]],
) -> Matrix | None:
    """Decode matrix D with D @ downloads = targets, or None."""
    field = inst.field()
    rows, targets = _plan_matrices(inst, failed, partner, helpers, coefficients)
    # transpose: rows^T (6 x r) @ D^T = targets^T (6 x 2)
    rows_t = [[rows[r][c] for r in range(len(rows))] for c in range(6)]
    targets_t = [[targets[r][c] for r in range(2)] for c in range(6)]
    x = field.solve_right(rows_t, targets_t)
    if x is None:
        return None
    return tuple(tuple(x[r][c] for r in range(len(rows))) for c in range(2))


def _interference(
    inst: CodeInstance, failed: int, partner: int, helpers: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """(bx_h, by_h) per helper of a cluster repair: the x and y columns of
    h read by the functionals phi_x = X_p x X_f and phi_y = Y_p x Y_f,
    which vanish on the partner's and the failed node's own columns."""
    q = inst.q

    def cross(u: list[int], v: list[int]) -> tuple[int, int, int]:
        return (
            (u[1] * v[2] - u[2] * v[1]) % q,
            (u[2] * v[0] - u[0] * v[2]) % q,
            (u[0] * v[1] - u[1] * v[0]) % q,
        )

    phi_x = cross(inst.x_column(partner), inst.x_column(failed))
    phi_y = cross(inst.y_column(partner), inst.y_column(failed))
    return tuple(
        (
            sum(f * v for f, v in zip(phi_x, inst.x_column(h))) % q,
            sum(f * v for f, v in zip(phi_y, inst.y_column(h))) % q,
        )
        for h in helpers
    )


def _may_align(
    interference: tuple[tuple[int, int], ...],
    coefficients: tuple[tuple[int, int], ...],
    q: int,
) -> bool:
    """Necessary condition for a cluster repair to decode (MDS instance):
    the vectors w_h = (c1_h * bx_h, c2_h * by_h) have rank at most 1, i.e.
    all three 2x2 minors vanish mod q.

    Modulo the partner's two downloads the targets span a plane T, and
    (bx, by) is the coordinate of a helper's functional modulo T, so the
    helpers' span G meets T in rank(G) - rank(w) dimensions; T lies in G
    only if that is 2, which needs rank(w) = rank(G) - 2 <= 1.
    """
    (b1x, b1y), (b2x, b2y), (b3x, b3y) = interference
    (c11, c12), (c21, c22), (c31, c32) = coefficients
    u1, v1 = c11 * b1x, c12 * b1y
    u2, v2 = c21 * b2x, c22 * b2y
    u3, v3 = c31 * b3x, c32 * b3y
    return (
        (u1 * v2 - v1 * u2) % q == 0
        and (u1 * v3 - v1 * u3) % q == 0
        and (u2 * v3 - v2 * u3) % q == 0
    )


def _cluster_info(failed: int) -> tuple[int, tuple[int, ...]]:
    """(partner, cross helpers) for a cluster-node failure."""
    for cluster in CLUSTERS:
        if failed in cluster:
            partner = cluster[0] if cluster[1] == failed else cluster[1]
            helpers = tuple(n for n in ALL_NODES if n != failed and n != partner)
            return partner, helpers
    raise ValueError(f"node {failed} is not a cluster node")


def verify_instance(inst: CodeInstance) -> None:
    """Full acceptance check of an instance; raises on any defect.

    Collection is checked on all 10 subsets and repair on the 6 unit
    messages (linearity extends both to all messages).  The last two
    raises cannot fire once `_mds_ok` and `repair`'s own decode check have
    passed, because the code is linear; they stay as a guard.
    """
    if not _mds_ok(inst):
        raise SingularSystem("a 3-subset of columns is singular")
    if not check_rank_conditions(inst):
        raise AlignmentFailure("separate-node rank conditions violated")
    rp = INSTANCE.repair
    separate, cluster = rp.gamma_separate, rp.gamma_intra + rp.gamma_cross
    if repair_bandwidth(inst, SEPARATE_NODE) != separate:
        raise AlignmentFailure(f"separate repair must read exactly {separate} symbols")
    for node in ALL_NODES:
        if node != SEPARATE_NODE and repair_bandwidth(inst, node) != cluster:
            raise AlignmentFailure(f"cluster repair must read exactly {cluster} symbols")
    basis = [[1 if i == j else 0 for i in range(6)] for j in range(6)]
    for message in basis:
        contents = encode(message, inst)
        for subset in combinations(range(5), 3):
            collected = data_collect([contents[i] for i in subset], inst)
            if collected != message:
                raise SingularSystem(f"collection from {subset} failed")
        for failed in ALL_NODES:
            survivors = [c for c in contents if c.node != failed]
            rebuilt = repair(failed, inst, survivors)
            if rebuilt != contents[failed - 1]:
                raise AlignmentFailure(f"repair of node {failed} is not exact")


def search_construction(q: int, seed: int = 0, budget: int = 100_000) -> CodeInstance:
    """Deterministic randomized search for a fully verified instance.

    Each attempt draws fresh encoding matrices, derives the aligned
    separate-node coefficients in closed form (pure rejection sampling on
    the alignment equalities has vanishing success probability), then
    searches random download coefficients for the four cluster repairs.
    Attempt j uses its own rng seeded from (seed, j), so the accepted
    instance is independent of evaluation order.
    """
    if not _is_prime(q) or q < 7:
        raise ValueError(f"q={q}: need a prime >= 7 for two aligned (5,3) MDS codes")
    if budget < 0:
        raise ValueError(f"budget={budget}: need a non-negative attempt count")
    for attempt in range(1, budget + 1):
        rng = random.Random(f"{seed}:{attempt}")
        inst = _attempt(q, rng)
        if inst is None:
            continue
        try:
            verify_instance(inst)
        except (SingularSystem, AlignmentFailure):
            continue
        return inst
    raise SearchExhausted(budget)


def _attempt(q: int, rng: random.Random) -> CodeInstance | None:
    field = PrimeField(q)

    def nz() -> int:
        return rng.randrange(1, q)

    a = tuple(tuple(nz() for _ in range(2)) for _ in range(3))
    b = tuple(tuple(nz() for _ in range(2)) for _ in range(3))
    (a11, a12), (a21, a22), (a31, a32) = a
    (b11, b12), (b21, b22), (b31, b32) = b
    # alignment compatibility of the two parity columns for both
    # interference pairs, and invertibility of the residual (x3,y3) system
    if (a12 * a21 * b11 * b22 - a11 * a22 * b12 * b21) % q != 0:
        return None
    if (a12 * a31 * b11 * b32 - a11 * a32 * b12 * b31) % q == 0:
        return None

    inst = CodeInstance(q=q, a=a, b=b, plans={})
    if not _mds_ok(inst):
        return None

    plans: dict[int, RepairPlan] = {}

    # separate node: align (x1,y1) and (x2,y2) across the three equations
    # that carry them, leaving a full-rank system in (x3,y3)
    c41, c42, lam, rho, sigma = nz(), nz(), nz(), nz(), nz()
    c51 = lam * c41 * a11 * field.inv(a12) % q
    c52 = lam * c42 * b11 * field.inv(b12) % q
    helpers = (1, 2, 4, 5)
    coefficients = {
        1: (rho * c41 * a11 % q, rho * c42 * b11 % q),
        2: (sigma * c41 * a21 % q, sigma * c42 * b21 % q),
        4: (c41, c42),
        5: (c51, c52),
    }
    decode = _solve_decode(inst, SEPARATE_NODE, None, helpers, coefficients)
    if decode is None:
        return None
    plans[SEPARATE_NODE] = RepairPlan(SEPARATE_NODE, None, helpers, coefficients, decode)

    for failed in (1, 2, 4, 5):
        partner, helpers = _cluster_info(failed)
        interference = _interference(inst, failed, partner, helpers)
        for _ in range(400):
            drawn = tuple((rng.randrange(q), rng.randrange(q)) for _h in helpers)
            drawn = tuple((1, 0) if pair == (0, 0) else pair for pair in drawn)
            # every draw is made before the filter, so the rng stream and
            # hence the accepted instance do not depend on it
            if not _may_align(interference, drawn, q):
                continue
            coefficients = dict(zip(helpers, drawn))
            decode = _solve_decode(inst, failed, partner, helpers, coefficients)
            if decode is not None:
                plans[failed] = RepairPlan(failed, partner, helpers, coefficients, decode)
                break
        else:
            return None

    return CodeInstance(q=q, a=a, b=b, plans=plans)
