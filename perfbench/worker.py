"""One benchmark sample in a fresh process.

Usage: ``python3 perfbench/worker.py '<json spec>'``; run.py starts it.
The spec names the checkout root, the workload, the seed and whether to
trace.  With ``"setup_only": true`` the worker only imports etaq.  It
prints one JSON line: how long ``import etaq, etaq.cli`` took in this
fresh process, the timed results, and the process's peak resident memory.

Untraced, every time is taken with a ``HostClock`` (hostclock.py) and
reported twice: normalized to the reference host speed (``setup_s``,
``latencies``) and raw (``raw_setup_s``, ``raw_latencies``).  A traced
worker runs no clock, and its latencies are raw.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import json
import resource
import sys
import time
from pathlib import Path

from hostclock import HostClock


def run_cli(workload: str) -> dict:
    import etaq.cli
    import workloads

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = etaq.cli.main(workloads.CLI_ARGV[workload])
        end = time.perf_counter()
    return {"intervals": [(start, end)], "exit_code": code, "stdout": out.getvalue()}


def _call(eta, identities, request: dict):
    if request["kind"] == "identity":
        return identities.verify_identity(request["id"], request["order"])
    series = eta.expand_quotient(eta.parse_quotient(request["quotient"]), request["order"])
    if request["kind"] == "expand":
        return series.dump()
    if request["kind"] == "dissect":
        return series.extract(request["step"], request["residue"]).dump()
    return series[request["index"]]


def run_session(seed: int) -> dict:
    """Serve the seeded request stream in a closed loop, one client.

    Only the etaq call is timed; each response is reduced to a digest
    right after its timer stops, so responses are not held in memory.
    """
    import etaq.eta
    import etaq.identities
    import workloads

    intervals, responses = [], []
    for request in workloads.session_requests(seed):
        start = time.perf_counter()
        try:
            value = _call(etaq.eta, etaq.identities, request)
        except Exception as exc:  # a failing request is counted, not fatal
            intervals.append((start, time.perf_counter()))
            responses.append({"error": repr(exc)})
            continue
        intervals.append((start, time.perf_counter()))
        if request["kind"] == "identity":
            responses.append({"status": value.status, "id": value.identity,
                              "order": value.order})
        else:
            responses.append({"digest": workloads.digest(str(value))})
    return {"intervals": intervals, "responses": responses}


def times(clock: HostClock | None, intervals: list[tuple[float, float]]) -> dict:
    """Latencies of the timed intervals: normalized and raw, or raw only."""
    if clock is None:
        raw = [end - start for start, end in intervals]
        return {"latencies": raw, "raw_latencies": raw}
    pairs = [clock.work(start, end) for start, end in intervals]
    return {"latencies": [n for _, n in pairs], "raw_latencies": [r for r, _ in pairs]}


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    traced = bool(spec.get("trace"))
    with HostClock() as clock:
        start = time.perf_counter()
        import etaq
        import etaq.cli
        end = time.perf_counter()
    raw_setup_s, setup_s = clock.work(start, end)
    if not Path(etaq.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"etaq was imported from {etaq.__file__}, not from {src}")

    result: dict = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if not spec.get("setup_only"):
        tracer = None
        if traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        with contextlib.nullcontext() if traced else HostClock() as clock:
            if spec["workload"] == "session":
                result.update(run_session(spec["seed"]))
            else:
                result.update(run_cli(spec["workload"]))
        result.update(times(clock, result.pop("intervals")))
        if clock is not None:
            result["reference_s"] = statistics.median(clock.reference_times())
        if tracer is not None:
            result["trace"] = tracer.metrics()
            if spec.get("spans_path"):
                tracer.write_spans(spec["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
