"""The hesschrom benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program under test is
``src/hesschrom``, run directly (it need not be installed). The workload's
inputs are drawn from ``--seed``. The benchmark does whole rounds of
operations until they have taken ``--seconds`` at the reference CPU speed
(see speed.py), then checks every output against independent brute-force
computations (``checks.py``) and prints, as its last line, one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same workload runs with every request traced and the metrics are
per-layer ones. Traced runs also write their spans to ``perfbench/out/``.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import speed
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 40  # a tail percentile needs at least ten samples beyond it
PROBES = 7  # fresh processes timed for setup_s and cli.startup_ms
REQUEST_TIMEOUT_S = 120


class ProgramMissing(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdin=None):
    """Run one child process to completion; returns (seconds, rc, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=REQUEST_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def probe(argv):
    """Median time of PROBES fresh processes at the reference speed, after
    one untimed run that also writes the bytecode caches."""
    times = []
    before = speed.factor()
    for i in range(PROBES + 1):
        seconds, rc, _, err = spawn(argv)
        if rc != 0:
            raise ProgramMissing(f"{' '.join(argv)} exited {rc}: {err.strip()[-300:]}")
        after = speed.factor()
        if i:
            times.append(seconds * 2 / (before + after))
        before = after
    return statistics.median(times)


def tail(latencies):
    """The highest percentile with at least ten samples beyond it (the
    median when there are fewer than MIN_OPS samples)."""
    ordered = sorted(latencies)
    if len(ordered) < MIN_OPS:
        return statistics.median(ordered)
    return ordered[len(ordered) - 11]


def keep_going(rounds, ops_per_round, elapsed, seconds, min_ops):
    """Whole rounds until ``seconds`` of operation time at the reference
    CPU speed are spent (to within half a round) and at least ``min_ops``
    operations were made. Counting reference time, not wall time, makes
    the number of rounds independent of the machine's slow spells."""
    if rounds * ops_per_round < min_ops:
        return True
    return elapsed + elapsed / rounds / 2 < seconds


# --- cold workloads: one fresh CLI process per request ----------------------

def run_cold(make_round, rng, seconds, traced, min_ops=MIN_OPS):
    prefix = [os.path.join(HERE, "spans.py")] if traced else ["-m", "hesschrom.cli"]
    rounds, latencies, rates, factors, traces = [], [], [], [], []
    elapsed = 0.0
    before = speed.factor()
    while True:
        ops = make_round(rng)
        for op in ops:
            op.seconds, op.rc, op.stdout, op.stderr = spawn(prefix + op.argv)
            after = speed.factor()
            op.factor = (before + after) / 2
            before = after
            op.seconds /= op.factor
            latencies.append(op.seconds * 1000)
            factors.append(op.factor)
        elapsed += sum(op.seconds for op in ops)
        rates.append(len(ops) / sum(op.seconds for op in ops))
        rounds.append(ops)
        if not keep_going(len(rounds), len(ops), elapsed, seconds, min_ops):
            break

    attempted, failed, wrong, errors = 0, 0, 0, []
    for ops in rounds:
        for op in ops:
            attempted += 1
            if traced and op.rc == 0:
                envelope = json.loads(op.stdout)
                op.rc, op.stdout, op.stderr = envelope["rc"], envelope["stdout"], envelope["stderr"]
                traces.append({"argv": op.argv, "factor": op.factor, **envelope})
            if op.rc != 0:
                failed += 1
                errors.append(f"{op.argv}: exit {op.rc}: {op.stderr.strip()[-300:]}")
                continue
            op.doc = json.loads(op.stdout)
            err = op.check(op.doc)
            if err:
                failed += 1
                wrong += 1
                errors.append(f"{op.argv}: {err}")
        for m, basis, err in W.pair_errors(ops):
            # the pair's omega-xg request is the one counted as wrong
            failed += 1
            wrong += 1
            errors.append(f"omega-xg --m {m} --basis {basis}: {err}")
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "latencies": latencies,
        "round_rates": rates,
        "factors": factors,
        "traces": traces,
    }


# --- verify-warm: one process sweeps every Hessenberg function --------------

def run_warm(rng, seconds, traced, min_ops=MIN_OPS, max_n=5):
    worker = os.path.join(HERE, "warm_worker.py")
    rounds, latencies, rates, factors, traces = [], [], [], [], []
    elapsed = 0.0
    while True:
        order = W.warm_round(rng, max_n)
        _, rc, out, err = spawn([worker], json.dumps({"m": order, "trace": bool(traced)}))
        if rc != 0:
            # a crashed sweep gives no times to count: record it and stop
            rounds.append((order, None, err))
            break
        result = json.loads(out)
        rounds.append((order, result, err))
        norm = [op["ms"] / op["factor"] for op in result["ops"]]
        latencies += norm
        factors += [op["factor"] for op in result["ops"]]
        rates.append(len(norm) * 1000 / sum(norm))
        elapsed += sum(norm) / 1000
        if traced:
            sweep_factor = statistics.median(op["factor"] for op in result["ops"])
            traces.append({"argv": ["warm_worker.py"], "factor": sweep_factor, **result})
        if not keep_going(len(rounds), len(order), elapsed, seconds, min_ops):
            break

    attempted, failed, wrong, errors = 0, 0, 0, []
    for order, result, err in rounds:
        attempted += len(order)
        if result is None:
            failed += len(order)
            errors.append(f"warm worker failed: {err.strip()[-300:]}")
            continue
        sweep_err = W.warm_sweep_error(result["ops"], max_n)
        for op in result["ops"]:
            op_err = W.warm_op_error(op) or sweep_err
            if op_err:
                failed += 1
                wrong += 1
                errors.append(f"m={op['m']}: {op_err}")
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "latencies": latencies,
        "round_rates": rates,
        "factors": factors,
        "traces": traces,
    }


# --- metrics ----------------------------------------------------------------

def end_to_end(result, setup_s):
    lat = result["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(result["round_rates"]), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> traced function whose self time it sums
SELF_MS = {
    "chromatic.enumerate_ms": "chromatic.stable_ordered_partitions",
    "chromatic.accumulate_ms": "chromatic.chromatic_qsym",
    "pathqsym.enumerate_ms": "pathqsym.ordered_path_covers",
    "pathqsym.accumulate_ms": "pathqsym.path_qsym",
    "qsym.omega_ms": "qsym.omega",
    "qsym.to_m_basis_ms": "qsym.to_m_basis",
    "qsym.generator_ms": "qsym.generator",
    "qsym.quasi_shuffle_ms": "qsym.quasi_shuffle",
    "qsym.kostka_ms": "qsym.kostka",
    "qsym.solve_ms": "qsym.expand_in_basis",
    "betti.tableaux_ms": "betti.admissible_tableaux",
    "betti.dimension_ms": "betti.betti_vector",
    "character.dot_character_ms": "character.dot_character",
    "character.multiplicities_ms": "character.irreducible_multiplicities",
    "character.frobenius_ms": "character.frobenius_image",
}
# per-layer metric -> traced functions whose result sizes it sums
COUNTS = {
    "chromatic.partitions": ("chromatic.stable_ordered_partitions",),
    "pathqsym.covers": ("pathqsym.ordered_path_covers",),
    "betti.tableaux": ("betti.admissible_tableaux",),
    "qsym.result_terms": ("qsym.omega", "qsym.to_m_basis", "qsym.expand_in_basis"),
}
CACHES = {
    "qsym.generator": "qsym.generator",
    "betti.x_of": "betti.x_of",
    "betti.omega_x_of": "betti.omega_x_of",
}


def per_layer(result, startup_ms):
    """Per-operation means over the run (counts and self times), plus lru
    hit ratios with their call counts as the base."""
    keys, counters, caches, missing = {}, {}, {}, set()
    checks = 0
    for tr in result["traces"]:
        summary = tr["trace"]
        for key, row in summary["keys"].items():
            acc = keys.setdefault(key, {"self_ms": 0.0, "count": 0})
            acc["self_ms"] += row["self_ms"] / tr["factor"]
            acc["count"] += row["count"]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, info in summary["caches"].items():
            acc = caches.setdefault(key, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
        missing.update(summary["missing"])
        for op in tr.get("ops", ()):
            checks += op["sw"][1] + op["schur"][1] + len(op["chars"])
    ops = result["attempted"]
    out = {"cli.startup_ms": (startup_ms, "ms")}
    for metric, key in SELF_MS.items():
        out[metric] = (keys.get(key, {}).get("self_ms", 0.0) / ops, "ms/op")
    for metric, sources in COUNTS.items():
        out[metric] = (sum(keys.get(k, {}).get("count", 0) for k in sources) / ops, "count/op")
    out["betti.permutations_scanned"] = (
        counters.get("betti.permutations_scanned", 0) / ops,
        "count/op",
    )
    for prefix, key in CACHES.items():
        info = caches.get(key, {"hits": 0, "misses": 0})
        calls = info["hits"] + info["misses"]
        out[f"{prefix}_hit_ratio"] = (info["hits"] / calls if calls else 0.0, "ratio")
        out[f"{prefix}_calls"] = (calls / ops, "count/op")
    out["verify.checks"] = (checks / ops, "count/op")
    out["trace.missing_functions"] = (len(missing), "count")
    out["trace.op_p50_ms"] = (statistics.median(result["latencies"]), "ms")
    out["machine.speed_factor"] = (statistics.median(result["factors"]), "ratio")
    return out, sorted(missing)


def write_trace(workload, seed, result):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(
            [
                {"request": i, "argv": tr["argv"], "spans": tr["spans"], "trace": tr["trace"]}
                for i, tr in enumerate(result["traces"])
            ],
            fh,
        )
    return path


WORKLOADS = ("xg-cold", "betti-cold", "xi-cold", "verify-warm")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one CPU for the harness and every child, so that the speed measured
    # before an operation is the speed of the CPU that runs it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join(SRC, "hesschrom", "cli.py")):
        print(f"error: no hesschrom sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            startup_ms = probe(["-m", "hesschrom.cli", "enumerate", "--n", "1"]) * 1000
        else:
            setup_s = probe(["-c", "import hesschrom.cli"])
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    if args.workload == "verify-warm":
        result = run_warm(rng, args.seconds, args.trace)
    else:
        result = run_cold(W.COLD_ROUNDS[args.workload], rng, args.seconds, args.trace)

    for err in result["errors"][:20]:
        print(f"FAILED {err}", file=sys.stderr)
    if not result["latencies"]:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, missing = per_layer(result, startup_ms)
        if missing:
            print(f"trace: functions not found: {', '.join(missing)}", file=sys.stderr)
        print(f"trace: spans written to {write_trace(args.workload, args.seed, result)}", file=sys.stderr)
    else:
        metrics = end_to_end(result, setup_s)
    print(
        json.dumps(
            {
                "correct": result["wrong"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
