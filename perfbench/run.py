#!/usr/bin/env python3
"""The clustercap benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each was chosen):
  cli-mix       a seeded mix of cheap CLI commands, one fresh process per op
  search-cold   seeded E >= 2 capacity queries, one fresh process per op
  oracle-sweep  a seeded sample of the sweep family through all nine claim
                checkers and a max-flow check, one config per op, in one
                worker process

One client sends the next op only when the previous one has finished.  Each
workload cycles through its ops and stops at the first cycle boundary after
S seconds, so every run times whole cycles.  Every output is checked outside
the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op twice,
untraced and traced, interleaved (spans around each clustercap module's
public functions, recorded by perfbench/tracer.py), and prints per-layer
metrics per op, the tracing overhead and the time no span covers.  The last
line of standard output is the JSON result; the lines before it report the
environment, the sample counts and the error rate.

Run it from the root of a checkout; it writes only under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cli-mix", "search-cold", "oracle-sweep")
SETUP_RUNS = 7
INTERP_RUNS = 9
OP_TIMEOUT_S = 120
SWEEP_CHUNK_OPS = 50


class Phase:
    """Samples of one closed-loop pass over the ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.keys: list = []  # per CLI op: (op index, output digest), None on a nonzero exit
        self.failures: list[str] = []  # reasons, one per failed op
        self.wall = 0.0

    def add_sweep(self, result: dict) -> None:
        """Append one reply of the oracle-sweep worker."""
        self.latencies += result["latencies"]
        self.failures += [f"op {f['op']} {f['config']}: {f['detail']}" for f in result["failures"]]
        self.wall += result["wall"]


class Bench:
    def __init__(self, args, spawner: subprocess.Popen):
        self.args = args
        self.spawner = spawner
        self.peak_rss_kb = 0
        self.outputs: dict = {}  # (op index, digest) -> output file, first seen

    def spawn(self, argv: list[str], stdout: Path | None = None, timeout: float = OP_TIMEOUT_S,
              measure: bool = True):
        """Run a child to exit through the spawner: (seconds from spawn to
        exit, exit code).  `measure` counts its RSS in peak_rss_mb."""
        request = [argv, str(stdout) if stdout else None, str(WORK / "stderr.txt"), int(timeout)]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended")
        elapsed, code, rss_kb = json.loads(reply)
        if measure:
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return elapsed, code

    def stderr_tail(self) -> str:
        return (WORK / "stderr.txt").read_text(errors="replace").strip()[-300:]

    def ops_child(self, *args: str, **kwargs):
        elapsed, code = self.spawn([sys.executable, str(HERE / "ops.py"), *args], **kwargs)
        if code != 0:
            raise RuntimeError(f"ops.py {args[0]} exited {code}: {self.stderr_tail()}")
        return elapsed

    # -- the closed loops ----------------------------------------------------

    def cli_phase(self, inputs: dict, seconds: float, spans_dir: Path | None = None) -> list[Phase]:
        """Spawn one launcher per op, for whole cycles until `seconds` have
        passed.  With `spans_dir`, each op runs twice, untraced and traced,
        in alternating order, so that drift in host speed hits both alike;
        the result is then [untraced, traced]."""
        ops, cycle = inputs["ops"], inputs["cycle"]
        dirs = [None] if spans_dir is None else [None, spans_dir]
        phases = [Phase() for _ in dirs]
        start = time.perf_counter()
        i = 0
        while i % cycle or time.perf_counter() - start < seconds:
            index = i % len(ops)
            for m in (range(len(dirs)) if i % 2 == 0 else reversed(range(len(dirs)))):
                spans = str(dirs[m] / f"{i}.json") if dirs[m] else "-"
                out = WORK / f"{m}-{i}.out"
                elapsed, code = self.spawn(
                    [sys.executable, str(HERE / "launch.py"), str(i), spans, "--",
                     *ops[index]["argv"]],
                    stdout=out,
                )
                phase = phases[m]
                phase.latencies.append(elapsed)
                if code != 0:
                    phase.keys.append(None)
                    phase.failures.append(f"op {i} {ops[index]['argv'][0]} exited {code}: "
                                          f"{self.stderr_tail()}")
                else:
                    key = (index, _digest(out))
                    phase.keys.append(key)
                    if key in self.outputs:
                        out.unlink()
                    else:
                        self.outputs[key] = out
            i += 1
        for phase in phases:
            phase.wall = time.perf_counter() - start
        return phases

    def sweep_phase(self, seconds: float, plant: bool) -> Phase:
        out = WORK / "sweep.json"
        self.ops_child("sweep", str(WORK / "inputs.json"), str(out), str(seconds),
                       "1" if plant else "0", timeout=seconds + OP_TIMEOUT_S * 5)
        phase = Phase()
        phase.add_sweep(json.loads(out.read_text()))
        return phase

    def paired_sweep(self, seconds: float, spans: str, plant: bool) -> list[Phase]:
        """Two live workers, untraced and traced, take turns on the same ops
        in chunks of SWEEP_CHUNK_OPS, so that drift in host speed hits both
        alike: [untraced, traced] after `seconds` of untraced ops."""
        argv = [sys.executable, str(HERE / "ops.py"), "serve", str(WORK / "inputs.json")]
        workers = [subprocess.Popen(argv + [s, "1" if plant else "0"], cwd=ROOT, text=True,
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                   for s in ("-", spans)]
        phases = [Phase(), Phase()]
        try:
            while phases[0].wall < seconds:
                for phase, worker in zip(phases, workers):
                    phase.add_sweep(_ask(worker, str(SWEEP_CHUNK_OPS)))
        finally:
            for worker in workers:
                _stop(worker)
        return phases

    def check_cli(self, inputs: dict, phases: list[Phase], plant: bool) -> None:
        """Check each distinct output once, in a child, and mark the ops
        that produced a failing output."""
        manifest = [[key[0], str(path)] for key, path in self.outputs.items()]
        manifest_path, result_path = WORK / "manifest.json", WORK / "checked.json"
        manifest_path.write_text(json.dumps(manifest))
        flags = ["--plant"] if plant else []
        self.ops_child("check", str(WORK / "inputs.json"), str(manifest_path), str(result_path),
                       *flags, measure=False)
        keys = list(self.outputs)
        bad = {keys[f["entry"]]: f for f in json.loads(result_path.read_text())}
        for phase in phases:
            for i, key in enumerate(phase.keys):
                if key in bad:
                    phase.failures.append(f"op {i} {bad[key]['argv'][0]}: {bad[key]['detail']}")


def _stop(proc: subprocess.Popen) -> int:
    """Close the child's stdin, which ends its request loop, and wait."""
    proc.stdin.close()
    try:
        return proc.wait(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def _ask(worker: subprocess.Popen, request: str) -> dict:
    worker.stdin.write(request + "\n")
    worker.stdin.flush()
    reply = worker.stdout.readline()
    if not reply:
        raise RuntimeError(f"the oracle-sweep worker exited {worker.wait()}")
    return json.loads(reply)


def _digest(path: Path) -> str:
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _src_digest() -> str:
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _git_revision() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"maximum; only {n} samples, fewer than the 11 a tail needs"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f}, the 11th largest of {n} samples"


# -- the two kinds of run ------------------------------------------------------


def end_to_end(bench: Bench, inputs: dict, cli: bool) -> tuple[dict, list[Phase]]:
    args = bench.args
    setup = []
    for i in range(SETUP_RUNS):
        path = WORK / f"setup{i}.json"
        setup.append(bench.ops_child("inputs", args.workload, str(args.seed), str(path)))
        if path.read_bytes() != (WORK / "inputs.json").read_bytes():
            raise RuntimeError("the same seed produced different inputs")
    if cli:
        (phase,) = bench.cli_phase(inputs, args.seconds)
        bench.check_cli(inputs, [phase], args.plant_error)
    else:
        phase = bench.sweep_phase(args.seconds, args.plant_error)
    n = len(phase.latencies)
    tail_value, tail_note = tail(phase.latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "throughput_ops_s": (n / phase.wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (bench.peak_rss_kb / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<18} {value:12.4f} {unit}")
    print(f"  latency_tail_ms is the {tail_note}; setup_s is the median of {SETUP_RUNS} runs")
    return metrics, [phase]


def per_layer(bench: Bench, inputs: dict, cli: bool) -> tuple[dict, list[Phase]]:
    args = bench.args
    spans_dir = WORK / "spans"
    spans_dir.mkdir()
    if cli:
        plain, traced = bench.cli_phase(inputs, args.seconds, spans_dir)
        bench.check_cli(inputs, [plain, traced], args.plant_error)
    else:
        plain, traced = bench.paired_sweep(args.seconds / 2, str(spans_dir / "0.json"),
                                           args.plant_error)
    interp = statistics.median(
        bench.spawn([sys.executable, "-c", "pass"], measure=False)[0] for _ in range(INTERP_RUNS)
    )
    kernel_path = WORK / "kernel.json"
    bench.ops_child("kernel", str(kernel_path), measure=False)
    kernel = json.loads(kernel_path.read_text())

    n = len(traced.latencies)
    calls = dict.fromkeys(tracer.SPAN_NAMES, 0)
    busy = dict.fromkeys(tracer.SPAN_NAMES, 0.0)
    counts = dict.fromkeys(tracer.COUNT_NAMES, 0)
    caches = {name: [0, 0] for name in tracer.CACHED}
    imports = []
    for path in sorted(spans_dir.iterdir()):
        dump = json.loads(path.read_text())
        for name, self_s, _ in tracer.self_times(dump["spans"]):
            if name == tracer.IMPORT_SPAN:
                imports.append(self_s)
            else:
                calls[name] += 1
                busy[name] += self_s
        for name, value in dump["counts"].items():
            counts[name] += value
        for name, (hits, misses) in dump["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses

    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / n, "count/op")
        metrics[f"{name}.self_s"] = (busy[name] / n, "s/op")
    for name in tracer.COUNT_NAMES:
        metrics[name] = (counts[name] / n, "count/op")
    orders = counts["model.orders"]
    metrics["kernel.profiles_per_order"] = (
        counts["kernel.profiles"] / orders if orders else 0.0, "ratio")
    for name, (hits, misses) in caches.items():
        metrics[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["oracle.brute_force_capacity.cold_s"] = (kernel["cold_s"], "s")
    metrics["oracle.brute_force_capacity.warm_s"] = (kernel["warm_s"], "s")
    import_s = statistics.mean(imports)
    metrics["process.interp_s"] = (interp, "s")
    metrics["process.import_s"] = (import_s, "s")
    op_s = statistics.mean(traced.latencies)
    plain_s = statistics.mean(plain.latencies)
    spans_s = sum(busy.values()) / n
    # a CLI op is a whole process: interpreter start and import are part of it
    process_s = interp + import_s if cli else 0.0
    metrics["trace.op_s"] = (op_s, "s/op")
    metrics["trace.untraced_op_s"] = (plain_s, "s/op")
    metrics["trace.overhead_s"] = (op_s - plain_s, "s/op")
    metrics["trace.remainder_s"] = (op_s - process_s - spans_s, "s/op")

    plain_p50 = statistics.median(plain.latencies)
    print(f"untraced: {len(plain.latencies)} ops, p50 {plain_p50 * 1e3:.2f} ms, "
          f"mean {plain_s * 1e3:.2f} ms; traced: {n} ops, mean {op_s * 1e3:.2f} ms")
    print(f"tracing overhead {(op_s - plain_s) * 1e3:+.3f} ms/op "
          f"({(op_s / plain_s - 1) * 100:+.1f}%), untraced and traced ops interleaved")
    shown = f"interpreter {interp * 1e3:.2f} + import {import_s * 1e3:.2f} + " if cli else ""
    print(f"traced op {op_s * 1e3:.2f} ms = {shown}span self time {spans_s * 1e3:.2f} "
          f"+ untraced remainder {(op_s - process_s - spans_s) * 1e3:.2f} ms")
    top = sorted(tracer.SPAN_NAMES, key=busy.get, reverse=True)[:8]
    print("largest self times per op: " + ", ".join(
        f"{name} {busy[name] / n * 1e3:.3f} ms" for name in top if busy[name] > 0))
    return metrics, [plain, traced]


def run(args, spawner: subprocess.Popen) -> dict:
    bench = Bench(args, spawner)
    cli = args.workload != "oracle-sweep"
    # untimed warm-up: compiles __pycache__ and writes the inputs
    bench.ops_child("inputs", args.workload, str(args.seed), str(WORK / "inputs.json"),
                    measure=False)
    inputs = json.loads((WORK / "inputs.json").read_text())
    if cli:
        bench.spawn([sys.executable, str(HERE / "launch.py"), "0", "-", "--",
                     *inputs["ops"][0]["argv"]], measure=False)
    print(f"env python={platform.python_version()} git={_git_revision()} src={_src_digest()} "
          f"nproc={os.cpu_count()} backend={inputs['backend']}")
    if inputs["backend"] != "pure":
        print(f"WARNING: the {inputs['backend']} kernel is live; these numbers are not "
              "comparable with pure-backend runs")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          "client=1 closed loop")

    measure = per_layer if args.trace else end_to_end
    metrics, phases = measure(bench, inputs, cli)
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    print(f"error_rate {len(failures) / attempted:.4f} ({len(failures)} of {attempted} ops failed)")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-error", action="store_true",
                        help="check the first output against a wrong expected value "
                             "(tests that the harness counts failures)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clustercap" / "__init__.py").is_file():
        print(f"error: no clustercap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # every measured child is spawned by this small process (see spawn.py)
    spawner = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "spawn.py")], cwd=ROOT,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        result = run(args, spawner)
    finally:
        if _stop(spawner) != 0:
            print(f"warning: the spawner exited {spawner.returncode}", file=sys.stderr)
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
