"""The clustercap side of the benchmark: seeded inputs, output checks, the
in-process oracle-sweep worker and the scan-kernel samples.

``run.py`` runs each subcommand in a child process.  Only public names of
clustercap are used, apart from clearing the profile caches and reading
the backend, both skipped when those names are gone.

    python3 perfbench/ops.py inputs WORKLOAD SEED OUT
    python3 perfbench/ops.py check INPUTS MANIFEST OUT [--plant]
    python3 perfbench/ops.py sweep INPUTS OUT SECONDS PLANT(0|1)
    python3 perfbench/ops.py serve INPUTS SPANS|- PLANT(0|1)   (stdin: one op count per line)
    python3 perfbench/ops.py kernel OUT
"""

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from math import log
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
IMPORT_START = time.perf_counter()
import clustercap  # noqa: E402
from clustercap import codes, oracle  # noqa: E402
from clustercap.capacity import (  # noqa: E402
    capacity_achiever,
    compare_separate,
    system_capacity,
    tradeoff_curve,
)
from clustercap.mincut import mincut  # noqa: E402
from clustercap.model import (  # noqa: E402
    ClusterOrder,
    NodeParams,
    RepairParams,
    SelectedNodeDistribution,
    format_rational,
    validate_config,
)
from clustercap.oracle import (  # noqa: E402
    ALL_CLAIMS,
    FAMILIES,
    VerificationFamily,
    brute_force_capacity,
    enumeration_size,
    sweep_configs,
)

IMPORT_END = time.perf_counter()

import tracer  # noqa: E402

# cli-mix: the largest E <= 1 capacity query, in repair orders (its check
# runs the exhaustive search), and the size of the E >= 2 queries: for each
# E, the layout nearest MIX_SEARCH_ORDERS, so every seed searches alike.
MIX_MAX_ORDERS = 20_000
MIX_SEARCH_ORDERS = 10_000
MIX_CYCLES = 3  # distinct cycles of 15 commands; the run repeats them
TRADEOFF_POINTS = 1000
TRADEOFF_K = 8
# (L, R, E) with at least three valid d_cross values at k = TRADEOFF_K
TRADEOFF_LAYOUTS = ((3, 4, 0), (4, 3, 0), (4, 4, 0), (3, 4, 1), (4, 3, 1), (4, 4, 1))
# search-cold: for each E, the COLD_PER_E layouts whose order counts are
# nearest COLD_TARGET.  Every seed does the same search work; the seed draws
# the repair parameters and the visiting order.  Ops of one size keep the
# median and the tail from resting on a few ops, and the peak RSS, a maximum
# over several alike queries, from resting on one.
COLD_E = (2, 3, 4)
COLD_PER_E = 4
COLD_TARGET = 50_000
# oracle-sweep cycles through one config from each stratum of SWEEP_STRATUM
# configs (ranked by order count): a sample that spans the whole cost range of
# the family, small enough that every run completes whole cycles and ends
# with the same caches filled
SWEEP_STRATUM = 16
BETA_CROSS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
TAU = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
# the three instances of benchmarks/bench_kernel.py: cold and warm samples
# of the exhaustive search, which that script timed per backend
KERNEL_CASES = (
    dict(n=13, k=9, L=3, R=4, E=1, d_cross=9, beta_intra=2, beta_cross=1, alpha=25),
    dict(n=13, k=8, L=3, R=4, E=1, d_cross=8, beta_intra=3, beta_cross=2, alpha=30),
    dict(n=10, k=9, L=3, R=3, E=1, d_cross=7, beta_intra=2, beta_cross=1, alpha=20),
)
KERNEL_WARM_REPEATS = 20


def _rat(value) -> str:
    return format_rational(Fraction(value))


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _repair(rng: random.Random, n: int, k: int, R: int) -> dict:
    beta_cross = rng.choice(BETA_CROSS)
    return dict(
        d_cross=rng.randint(max(0, k - R + 1), n - R),
        beta_intra=_rat(beta_cross * rng.choice(TAU)),
        beta_cross=_rat(beta_cross),
        alpha=_rat(Fraction(rng.randint(1, 24), rng.choice((1, 2, 3)))),
    )


def _capacity_op(nodes: NodeParams, repair: dict) -> dict:
    cfg = dict(n=nodes.n, k=nodes.k, L=nodes.L, R=nodes.R, E=nodes.E, **repair)
    argv = ["capacity", "--n", str(nodes.n), "--k", str(nodes.k), "--L", str(nodes.L),
            "--R", str(nodes.R), "--E", str(nodes.E), "--dC", str(repair["d_cross"]),
            "--betaI", repair["beta_intra"], "--betaC", repair["beta_cross"],
            "--alpha", repair["alpha"], "--format", "json"]
    return {"kind": "capacity", "argv": argv, "params": cfg}


def _small_nodes(rng: random.Random, E: int) -> NodeParams:
    """Random layout with at most MIX_MAX_ORDERS repair orders."""
    while True:
        L, R = rng.randint(2, 4), rng.randint(2, 4)
        n = L * R + E
        nodes = NodeParams(n=n, k=rng.randint(2, n - 1), L=L, R=R, E=E)
        if enumeration_size(nodes) <= MIX_MAX_ORDERS:
            return nodes


def _nearest(target: int, E: int, side: int) -> list[NodeParams]:
    """Layouts with E separate nodes and L, R in 2..side, nearest first by
    order count (ratio to `target`); ties keep enumeration order."""
    sized = []
    for L in range(2, side + 1):
        for R in range(2, side + 1):
            n = L * R + E
            for k in range(2, n):
                nodes = NodeParams(n=n, k=k, L=L, R=R, E=E)
                sized.append((abs(log(enumeration_size(nodes) / target)), nodes))
    return [nodes for _, nodes in sorted(sized, key=lambda item: item[0])]


def _compare_op(rng: random.Random, fmt: str) -> dict:
    nodes = _small_nodes(rng, 0)
    p = dict(k=nodes.k, L=nodes.L, R=nodes.R, **_repair(rng, nodes.n, nodes.k, nodes.R))
    argv = ["compare", "--k", str(p["k"]), "--L", str(p["L"]), "--R", str(p["R"]),
            "--dC", str(p["d_cross"]), "--betaI", p["beta_intra"],
            "--betaC", p["beta_cross"], "--alpha", p["alpha"]]
    if fmt == "json":
        argv += ["--format", "json"]
    return {"kind": "compare", "argv": argv, "params": dict(p, format=fmt)}


def _tradeoff_op(rng: random.Random, fmt: str) -> dict:
    # the work per grid point grows with k, so k is fixed
    L, R, E = rng.choice(TRADEOFF_LAYOUTS)
    nodes = NodeParams(n=L * R + E, k=TRADEOFF_K, L=L, R=R, E=E)
    d_values = sorted(rng.sample(range(max(0, nodes.k - nodes.R + 1), nodes.n - nodes.R + 1), 3))
    step = Fraction(rng.choice((1, 2, 5)), rng.choice((10, 20, 100)))
    p = dict(n=nodes.n, k=nodes.k, L=nodes.L, R=nodes.R, E=nodes.E, d_values=d_values,
             tau=_rat(rng.choice(TAU)), M=_rat(rng.randint(4, 40)), start=_rat(step),
             stop=_rat(step * TRADEOFF_POINTS), step=_rat(step), format=fmt)
    argv = ["tradeoff", "--n", str(p["n"]), "--k", str(p["k"]), "--L", str(p["L"]),
            "--R", str(p["R"]), "--E", str(p["E"])]
    for d in d_values:
        argv += ["--dC", str(d)]
    argv += ["--tau", p["tau"], "--M", p["M"], "--grid-start", p["start"],
             "--grid-stop", p["stop"], "--grid-step", p["step"], "--format", fmt]
    return {"kind": "tradeoff", "argv": argv, "params": p}


def _mix_cycle(rng: random.Random, search_nodes: list[NodeParams]) -> list[dict]:
    """One cycle of cli-mix: 15 cheap commands in seeded order."""
    ops = []
    for E in (0, 0, 1, 1):
        nodes = _small_nodes(rng, E)
        ops.append(_capacity_op(nodes, _repair(rng, nodes.n, nodes.k, nodes.R)))
    for nodes in search_nodes:
        ops.append(_capacity_op(nodes, _repair(rng, nodes.n, nodes.k, nodes.R)))
    ops += [_compare_op(rng, fmt) for fmt in ("text", "json", "text")]
    ops += [_tradeoff_op(rng, fmt) for fmt in ("csv", "json")]
    for _ in range(2):
        seed = rng.randrange(10**6)
        ops.append({"kind": "construct", "argv": ["construct", "--q", "13", "--seed", str(seed)],
                    "params": {"q": 13, "seed": seed}})
    ops.append({"kind": "verify", "argv": ["verify", "--family", "tiny"],
                "params": {"family": "tiny"}})
    rng.shuffle(ops)
    return ops


def _stratified_sample(configs: list, rng: random.Random) -> list[int]:
    """Seeded sample of config indices: rank by order count, cut the
    ranking into strata, take one config from each, in seeded order."""
    sizes: dict = {}
    for cfg in configs:
        if cfg.nodes not in sizes:
            sizes[cfg.nodes] = enumeration_size(cfg.nodes)
    ranked = sorted(range(len(configs)), key=lambda i: (sizes[configs[i].nodes], i))
    sample = [rng.choice(ranked[j : j + SWEEP_STRATUM])
              for j in range(0, len(ranked), SWEEP_STRATUM)]
    rng.shuffle(sample)
    return sample


def make_inputs(workload: str, seed: int) -> dict:
    """The ops of one workload; the same seed gives the same ops.  The
    CLI workloads repeat their ops in cycles of `cycle` entries."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-mix":
        search_nodes = [_nearest(MIX_SEARCH_ORDERS, E, 4)[0] for E in COLD_E]
        cycles = [_mix_cycle(rng, search_nodes) for _ in range(MIX_CYCLES)]
        ops = [op for cycle in cycles for op in cycle]
        cycle = len(cycles[0])
    elif workload == "search-cold":
        panel = [nodes for E in COLD_E for nodes in _nearest(COLD_TARGET, E, 5)[:COLD_PER_E]]
        ops = [_capacity_op(nodes, _repair(rng, nodes.n, nodes.k, nodes.R)) for nodes in panel]
        rng.shuffle(ops)
        cycle = len(ops)
    elif workload == "oracle-sweep":
        ops = _stratified_sample(sweep_configs(), rng)
        cycle = len(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the compiled kernel, and this function with it, is due to be removed
    backend = clustercap.active_backend() if hasattr(clustercap, "active_backend") else "pure"
    return {"workload": workload, "seed": seed, "backend": backend,
            "cycle": cycle, "ops": ops}


# ---------------------------------------------------------------------------
# Output checks: each returns (actual, expected); the op passed iff equal
# ---------------------------------------------------------------------------


def _check_capacity(p: dict, out: str):
    cfg = validate_config(**p)
    got = json.loads(out)
    value = Fraction(got["capacity"])
    dist = SelectedNodeDistribution(
        separate=got["distribution"]["separate"], clusters=tuple(got["distribution"]["clusters"])
    )
    order = ClusterOrder(labels=tuple(got["order"]))
    valid = dist.is_member(cfg.nodes) and order.matches(dist)
    cut = mincut(cfg, order).value if valid else None
    best = brute_force_capacity(cfg).value
    return (value, valid, cut), (best, True, best)


def _check_compare(p: dict, out: str):
    if p["format"] == "json":
        got = json.loads(out)
        actual = (got["outcome"], Fraction(got["capacity_without"]), Fraction(got["capacity_with"]))
    else:
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        actual = (
            fields["verdict"],
            Fraction(fields["capacity without separate node"].split()[0]),
            Fraction(fields["capacity with separate node"].split()[0]),
        )
    nodes = NodeParams(n=p["L"] * p["R"], k=p["k"], L=p["L"], R=p["R"], E=0)
    repair = RepairParams(alpha=Fraction(p["alpha"]), d_intra=p["R"] - 1,
                          beta_intra=Fraction(p["beta_intra"]), d_cross=p["d_cross"],
                          beta_cross=Fraction(p["beta_cross"]))
    verdict = compare_separate(nodes, repair)
    return actual, (verdict.outcome.value, verdict.capacity_without, verdict.capacity_with)


def _check_tradeoff(p: dict, out: str):
    nodes = NodeParams(n=p["n"], k=p["k"], L=p["L"], R=p["R"], E=p["E"])
    step = Fraction(p["step"])
    grid = [Fraction(p["start"]) + i * step for i in range(TRADEOFF_POINTS)]
    curves = [tradeoff_curve(nodes, d, p["tau"], p["M"], grid) for d in p["d_values"]]
    if p["format"] == "json":
        actual = [
            (c["d_C"], c["variant"],
             [(Fraction(x["beta_C"]), Fraction(x["alpha"])) for x in c["points"]],
             [Fraction(b) for b in c["unstorable"]])
            for c in json.loads(out)
        ]
        expected = [
            (c.d_cross, c.variant.value, [(x.beta_cross, x.alpha_star) for x in c.points],
             list(c.unstorable))
            for c in curves
        ]
        return actual, expected
    header, *rows = out.splitlines()
    actual = (header, [tuple(row.split(",")) for row in rows])
    expected = [
        (str(x.beta_cross.numerator), str(x.beta_cross.denominator), str(x.alpha_star.numerator),
         str(x.alpha_star.denominator), str(c.d_cross), c.variant.value)
        for c in curves for x in c.points
    ]
    return actual, ("beta_C_num,beta_C_den,alpha_num,alpha_den,d_C,variant", expected)


def _check_construct(p: dict, out: str):
    inst = codes.CodeInstance.from_text(out)
    try:
        codes.verify_instance(inst)
        verdict = "verified"
    except (codes.SingularSystem, codes.AlignmentFailure) as exc:
        verdict = f"defect: {exc}"
    return (inst.q, verdict), (p["q"], "verified")


def _check_verify(p: dict, out: str):
    got = json.loads(out)
    actual = (got["family"], got["total"], got["failed"], len(got["reports"]),
              all(r["passed"] for r in got["reports"]))
    total = len(FAMILIES[p["family"]]().configs) * len(ALL_CLAIMS)
    return actual, (p["family"], total, 0, total, True)


CHECKS = {
    "capacity": _check_capacity,
    "compare": _check_compare,
    "tradeoff": _check_tradeoff,
    "construct": _check_construct,
    "verify": _check_verify,
}


def check(inputs: dict, manifest: list, plant: bool) -> list[dict]:
    """Check each distinct (op, output file) pair of the manifest; with
    `plant`, the first entry is checked against a wrong expected value."""
    failures = []
    for entry, (index, path) in enumerate(manifest):
        op = inputs["ops"][index]
        try:
            out = Path(path).read_text(encoding="utf-8")
            actual, expected = CHECKS[op["kind"]](op["params"], out)
            if plant and entry == 0:
                expected = ("planted wrong value", expected)
            detail = None if actual == expected else f"got {actual!r}, expected {expected!r}"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            detail = f"unreadable output: {exc!r}"
        if detail is not None:
            failures.append({"entry": entry, "argv": op["argv"], "detail": detail[:400]})
    return failures


# ---------------------------------------------------------------------------
# oracle-sweep worker and scan-kernel samples
# ---------------------------------------------------------------------------


def sweep(inputs: dict, requests, seconds: float, spans_path: str | None, plant: bool):
    """Closed loop over sweep configs, in-process: each op runs all nine
    claim checkers plus the flow-graph max-flow on the capacity-achieving
    order.  For each request `count`, runs the next `count` ops, or whole
    cycles of the sample until `seconds` have passed when count is 0, and
    yields their latencies, failures and wall time."""
    configs = sweep_configs()
    trace = None
    if spans_path:
        trace = tracer.Tracer(op=-1)
        trace.record(tracer.IMPORT_SPAN, IMPORT_START, IMPORT_END)
        trace.install()
    indices = inputs["ops"]
    i = 0
    for count in requests:
        latencies, failures = [], []
        start = time.perf_counter()
        stop = i + count
        while (i < stop) if count else (i % len(indices) or time.perf_counter() - start < seconds):
            cfg = configs[indices[i % len(indices)]]
            if trace:
                trace.op = i
            t0 = time.perf_counter()
            # through the module, where the tracer's wrappers sit
            reports = oracle.verify_claims(
                VerificationFamily(name="sweep", configs=(cfg,), claims=ALL_CLAIMS)
            )
            _, order = capacity_achiever(cfg)
            flow = oracle.ifg_mincut(cfg, order)
            latencies.append(time.perf_counter() - t0)
            if trace:
                trace.enabled = False
            expected = system_capacity(cfg) + (1 if plant and i == 0 else 0)
            if trace:
                trace.enabled = True
            bad = [r.claim for r in reports if not r.passed]
            if len(reports) != len(ALL_CLAIMS) or bad or flow != expected:
                failures.append({
                    "op": i, "config": cfg.describe(),
                    "detail": f"failed claims {bad}, max-flow {flow}, expected {expected}",
                })
            i += 1
        yield {"latencies": latencies, "failures": failures, "wall": time.perf_counter() - start}
    if trace:
        trace.dump(spans_path)


def _clear_profile_caches() -> None:
    kernel = sys.modules.get("clustercap._kernel_py")
    for name in ("distribution_profiles", "_weighted_profiles"):
        cache_clear = getattr(getattr(kernel, name, None), "cache_clear", None)
        if cache_clear:
            cache_clear()


def kernel_samples() -> dict:
    """Cold and warm `oracle.brute_force_capacity` time on KERNEL_CASES
    (summed over the three), warm as the median of repeated searches."""
    cold = warm = 0.0
    for case in KERNEL_CASES:
        cfg = validate_config(**case)
        _clear_profile_caches()
        times, values = [], set()
        for _ in range(1 + KERNEL_WARM_REPEATS):
            t0 = time.perf_counter()
            values.add(brute_force_capacity(cfg).value)
            times.append(time.perf_counter() - t0)
        if len(values) != 1:
            raise AssertionError(f"cold and warm searches disagree on {case}: {values}")
        cold += times[0]
        warm += statistics.median(times[1:])
    return {"cold_s": cold, "warm_s": warm}


def _write(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    cmd, *rest = argv
    if cmd == "inputs":
        workload, seed, out = rest
        _write(out, make_inputs(workload, int(seed)))
    elif cmd == "check":
        inputs, manifest, out, *flags = rest
        _write(out, check(_read(inputs), _read(manifest), flags == ["--plant"]))
    elif cmd == "sweep":
        inputs, out, seconds, plant = rest
        (result,) = sweep(_read(inputs), [0], float(seconds), None, plant == "1")
        _write(out, result)
    elif cmd == "serve":
        inputs, spans, plant = rest
        requests = (int(line) for line in sys.stdin)
        for result in sweep(_read(inputs), requests, 0.0, spans if spans != "-" else None,
                            plant == "1"):
            print(json.dumps(result), flush=True)
    elif cmd == "kernel":
        (out,) = rest
        _write(out, kernel_samples())
    else:
        raise SystemExit(f"unknown subcommand {cmd!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
