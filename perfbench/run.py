"""Benchmark for etaq: end-to-end runs of three workloads, traced per module.

One workload, as BENCHMARK.json declares it (the last stdout line is
the JSON result; the line before it is the full report):

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 35 --trace 0

Every workload, untraced and then traced, with the end-to-end metrics and
the per-layer table printed by name and unit:

    python3 perfbench/run.py --all --seed 1 --seconds 35

Each sample runs in a fresh worker process (perfbench/worker.py), one at
a time, so it starts with the cold caches a CLI user gets.  The loop is
closed: the next sample starts when the previous one has ended, until the
next one would overrun ``--seconds``.  Untraced, every time is
normalized to a reference host speed measured in the worker while it
works (hostclock.py), and each metric is a median over the run.  With
``--trace 1`` every sample is
traced and gives the per-layer metrics, ``trace.overhead_s`` among them
(calibrated in the worker, see tracer.py).  Reports, results and span
files go to ``.perfbench_out/`` in the checkout.
See perfbench/README.md for why these workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
# setup_s is tens of milliseconds, so set-up is sampled throughout a run
# and reported as the median of its samples.  After one discarded warm-up
# import, this many import-only workers start before every sample, and
# every sample worker adds its own import time: a verify_all run has only
# about six samples, too few for a steady median on their own.
SETUP_SPAWNS_PER_ROUND = 3
# A run must exit within 180 s whatever happens to the program.
RUN_BUDGET_S = 150.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


def environment(trace_overhead_s: float | None = None) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "trace_overhead_s": trace_overhead_s,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (None otherwise)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(spec: dict, timeout: float) -> tuple[dict | None, str | None]:
    """Run one worker to completion; (its JSON line, error)."""
    spec = {"root": str(ROOT), **spec}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (json.JSONDecodeError, IndexError):
        return None, f"worker printed no result: {proc.stdout[-500:]!r}"


def tail(latencies: list[float]) -> tuple[str, float]:
    """Highest listed percentile with at least 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported, labelled ``max``.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return f"p{p:g}", xs[rank - 1]
    return "max", xs[-1]


def gate(workload: str, result: dict, requests: list[dict], reference: dict | None) -> dict:
    """Attempted and failed operations of one sample, checked after timing."""
    if workload == "session":
        responses = result["responses"]
        failed = len(requests)
        if len(responses) == len(requests):
            failed = sum(not workloads.session_response_ok(reference, q, r)
                         for q, r in zip(requests, responses))
        return {"attempted": len(requests), "failed": failed}
    ok, counts = workloads.cli_output_ok(workload, result["exit_code"], result["stdout"])
    return {"attempted": 1, "failed": 0 if ok else 1, "rows": counts}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.perf_counter()
    budget_end = began + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    requests = workloads.session_requests(seed) if workload == "session" else []
    reference = workloads.load_reference() if workload == "session" else None
    errors: list[str] = []

    setups: list[dict] = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            result, error = spawn({"setup_only": True}, budget_end - time.perf_counter())
            if error:
                raise SystemExit(f"perfbench: set-up failed: {error}")
            setups.append({k: result[k] for k in ("setup_s", "raw_setup_s")})

    sample_setup(1)
    setups.clear()

    samples = []
    end = time.perf_counter() + seconds
    last = 0.0
    while not samples or time.perf_counter() + last <= min(end, budget_end):
        round_start = time.perf_counter()
        if not trace:
            sample_setup(SETUP_SPAWNS_PER_ROUND)
        spec = {"workload": workload, "seed": seed, "trace": trace}
        if trace:
            spec["spans_path"] = str(OUT / f"spans_{workload}_seed{seed}.tsv")
        result, error = spawn(spec, budget_end - time.perf_counter())
        if error:
            errors.append(error)
            attempted = len(requests) or 1
            samples.append({"traced": trace, "attempted": attempted, "failed": attempted})
            break
        setups.append({k: result[k] for k in ("setup_s", "raw_setup_s")})
        sample = {"traced": trace, "latencies": result["latencies"],
                  "raw_latencies": result["raw_latencies"],
                  "reference_s": result.get("reference_s"),
                  "peak_rss_mb": result["peak_rss_mb"],
                  **gate(workload, result, requests, reference)}
        if trace:
            sample["trace"] = result["trace"]
        samples.append(sample)
        last = time.perf_counter() - round_start
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "setups": setups, "samples": samples, "errors": errors,
            "requests": requests, "measured_s": time.perf_counter() - began}


def end_to_end(run: dict) -> tuple[dict, dict]:
    """End-to-end metrics (medians over the untraced samples) and labels.

    Every time is host-normalized (hostclock.py).  wall_s,
    requests_per_s, latency_tail_ms and peak_rss_mb are medians of the
    per-sample values; latency_p50_ms is the median of all request
    latencies of the run; setup_s is the median of all its imports.  The
    same statistics of the raw times are in the report as ``raw_*``.
    """
    timed = [s for s in run["samples"] if not s["traced"] and "latencies" in s]
    if not timed:
        return {}, {}

    def summary(key: str) -> tuple[dict, list]:
        per = []
        for s in timed:
            lat = s[key]
            label, value = tail(lat)
            per.append({"wall_s": sum(lat), "requests_per_s": len(lat) / sum(lat),
                        "latency_tail_ms": 1000 * value, "label": label, "n": len(lat)})
        metrics = {name: statistics.median(p[name] for p in per)
                   for name in ("wall_s", "requests_per_s", "latency_tail_ms")}
        metrics["latency_p50_ms"] = 1000 * statistics.median(x for s in timed for x in s[key])
        return metrics, per

    metrics, per = summary("latencies")
    metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in timed)
    metrics["setup_s"] = statistics.median(x["setup_s"] for x in run["setups"])
    raw, _ = summary("raw_latencies")
    raw["setup_s"] = statistics.median(x["raw_setup_s"] for x in run["setups"])
    labels = {"latency_tail_percentile": per[0]["label"],
              "requests_per_unit": per[0]["n"],
              "raw": raw,
              "reference_s": [s["reference_s"] for s in timed],
              "per_sample": [{k: v for k, v in p.items() if k not in ("label", "n")}
                             for p in per],
              "setup_s_samples": [x["setup_s"] for x in run["setups"]]}
    return metrics, labels


def per_layer(run: dict) -> dict:
    """Median of every traced metric over the traced samples."""
    traced = [s["trace"] for s in run["samples"] if "trace" in s]
    if not traced:
        return {}
    return {k: statistics.median(t[k] for t in traced) for k in sorted(traced[0])}


def print_layer_table(workload: str, metrics: dict) -> None:
    functions = sorted((k[:-len(".calls")] for k in metrics if k.endswith(".calls")),
                       key=lambda f: -metrics.get(f + ".self_s", 0))
    print(f"\n[{workload}] traced per-layer table (medians over traced samples)")
    print(f"{'function':44} {'calls':>9} {'total_s':>10} {'self_s':>10}  counters")
    for f in functions:
        extra = " ".join(f"{k[len(f) + 1:]}={metrics[k]:g}" for k in metrics
                         if k.startswith(f + ".")
                         and k[len(f) + 1:] not in ("calls", "total_s", "self_s"))
        print(f"{f:44} {metrics[f + '.calls']:>9g} {metrics[f + '.total_s']:>10.4f} "
              f"{metrics[f + '.self_s']:>10.4f}  {extra}")
    modules = sorted(k[:-len(".total_s")] for k in metrics
                     if k.endswith(".total_s") and k.count(".") == 1)
    print("modules: " + "  ".join(f"{m} self={metrics[m + '.self_s']:.4f}s "
                                  f"total={metrics[m + '.total_s']:.4f}s" for m in modules))
    print(f"verdict layer self={metrics['verdict.self_s']:.4f}s  "
          f"trace: spans={metrics['trace.spans']:g} overhead_s={metrics['trace.overhead_s']:.4f}")


def report(run: dict, declared: list[dict]) -> dict:
    """The result object for one run, with every declared metric."""
    samples = run["samples"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if run["trace"]:
        values, labels = per_layer(run), {}
    else:
        values, labels = end_to_end(run)
    if not values:
        raise SystemExit("perfbench: no sample completed: " + "; ".join(run["errors"]))
    # A declared metric the run did not measure (a function the tracer no
    # longer finds, say) is an error, never a 0 that reads as a change.
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit("perfbench: declared metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    inputs = ({"argv": workloads.CLI_ARGV[run["workload"]]} if run["workload"] != "session"
              else {"requests": len(run["requests"]),
                    "stream_digest": workloads.digest(json.dumps(run["requests"])),
                    "shares": workloads.session_shares(run["requests"]),
                    "identity_order": workloads.IDENTITY_ORDER})
    full = {"workload": run["workload"], "seed": run["seed"], "seconds": run["seconds"],
            "trace": run["trace"], "inputs": inputs,
            "environment": environment(values.get("trace.overhead_s")),
            "failed_share": failed / attempted if attempted else 1.0,
            "samples": len(samples),
            "measured_s": run["measured_s"], "errors": run["errors"], **labels,
            "gate": [{k: s[k] for k in ("traced", "attempted", "failed", "rows") if k in s}
                     for s in samples],
            "all_metrics": values}
    result = {"correct": failed == 0 and not run["errors"], "attempted": attempted,
              "failed": failed, "metrics": metrics}
    name = f"result_{run['workload']}_seed{run['seed']}_trace{int(run['trace'])}.json"
    with open(OUT / name, "w") as f:
        json.dump({"report": full, "result": result, "requests": run["requests"]}, f, indent=1)
    return {"report": full, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (ROOT / "src" / "etaq" / "__init__.py").is_file():
        print(f"perfbench: no etaq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)

    if not args.all:
        out = report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)),
                     bench["per_layer" if args.trace else "end_to_end"])
        if args.trace:
            print_layer_table(args.workload, out["report"]["all_metrics"])
        print(json.dumps({"report": out["report"]}))
        print(json.dumps(out["result"]))
        return 0

    print("environment: " + json.dumps(environment()))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            out = report(run_workload(workload, args.seed, args.seconds, trace),
                         bench["per_layer" if trace else "end_to_end"])
            result = out["result"]
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            if trace:
                print_layer_table(workload, out["report"]["all_metrics"])
                continue
            rep = out["report"]
            print(f"\n[{workload}] seed={args.seed} samples={rep['samples']} "
                  f"failed_share={rep['failed_share']:g} "
                  f"tail={rep['latency_tail_percentile']} of {rep['requests_per_unit']} "
                  f"requests per unit")
            for name, metric in result["metrics"].items():
                print(f"  {workload:13} {name:16} {metric['value']:12.4f} {metric['unit']}")
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
