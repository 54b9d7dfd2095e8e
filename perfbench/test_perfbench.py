"""Tests of the benchmark itself: negative controls, generator, tracer.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _respond(request):
    """A correct response, computed in process the way worker.py does."""
    from worker import _call
    import etaq.eta
    import etaq.identities

    value = _call(etaq.eta, etaq.identities, request)
    return {"digest": workloads.digest(str(value))}


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    assert workloads.session_requests(3) == workloads.session_requests(3)
    assert workloads.session_requests(3) != workloads.session_requests(4)


def _mix(requests):
    return sorted((r["kind"], r["order"], r.get("cache", "")) for r in requests)


def test_generator_shares_are_exact_and_classes_match_the_cache_keys():
    assert _mix(workloads.session_requests(1)) == _mix(workloads.session_requests(2))
    for seed in (1, 2):
        requests = workloads.session_requests(seed)
        shares = workloads.session_shares(requests)
        assert shares["cache"] == {"fill": 0.125, "exact": 0.8125, "lower": 0.0625}
        assert len(requests) == 527
        seen: dict[str, set[int]] = {}
        for r in requests:
            if r["kind"] == "identity":
                assert r["order"] == workloads.IDENTITY_ORDER
                continue
            orders = seen.setdefault(r["quotient"], set())
            expected = ("exact" if r["order"] in orders else
                        "fill" if not orders or r["order"] > max(orders) else "lower")
            assert r["cache"] == expected
            assert r["order"] != workloads.IDENTITY_ORDER
            orders.add(r["order"])


def test_identity_requests_come_after_every_top_order_fill():
    for seed in (1, 2, 3):
        requests = workloads.session_requests(seed)
        last_top = max(i for i, r in enumerate(requests)
                       if r.get("order") == workloads.TOP_ORDER and r["cache"] == "fill")
        first_identity = min(i for i, r in enumerate(requests) if r["kind"] == "identity")
        assert first_identity > last_top


def test_every_request_has_a_reference_digest(reference):
    for seed in (1, 2, 3):
        for r in workloads.session_requests(seed):
            if r["kind"] != "identity":
                assert workloads.expected_digest(reference, r) is not None, r


@pytest.mark.parametrize("kind,extra", [("expand", {}),
                                        ("dissect", {"step": 4, "residue": 3}),
                                        ("coeff", {"index": 299})])
def test_correct_session_response_passes_and_corrupted_one_fails(reference, kind, extra):
    request = {"kind": kind, "quotient": "f2^5*f5^5*f1^-1*f10^-1", "order": 300,
               "cache": "fill", **extra}
    good = _respond(request)
    assert workloads.session_response_ok(reference, request, good)

    import etaq.eta
    series = etaq.eta.expand_quotient(etaq.eta.parse_quotient(request["quotient"]), 300)
    if kind == "coeff":
        corrupted = str(series[299] + 1)
    else:
        if kind == "dissect":
            series = series.extract(4, 3)
        lines = series.dump().split("\n")
        lines[5] = str(int(lines[5]) + 1)  # one coefficient off by one
        corrupted = "\n".join(lines)
    bad = {"digest": workloads.digest(corrupted)}
    assert not workloads.session_response_ok(reference, request, bad)


def test_session_errors_and_non_pass_identities_fail(reference):
    request = {"kind": "identity", "id": "EQ28", "order": 1000}
    assert workloads.session_response_ok(reference, request,
                                         {"status": "pass", "id": "EQ28", "order": 1000})
    for response in ({"status": "fail", "id": "EQ28", "order": 1000},
                     {"status": "insufficient-precision", "id": "EQ28", "order": 1000},
                     {"status": "pass", "id": "EQ29", "order": 1000},
                     {"error": "ValueError()"}):
        assert not workloads.session_response_ok(reference, request, response)


def _cli_document(passes: int, fails: int = 0) -> str:
    rows = [{"status": "pass"}] * passes + [{"status": "fail"}] * fails
    return json.dumps({"reports": rows})


def test_cli_gate_counts_wrong_exit_code_fail_rows_and_missing_rows_as_failed():
    assert workloads.cli_output_ok("verify_all", 0, _cli_document(92))[0]
    assert not workloads.cli_output_ok("verify_all", 1, _cli_document(92))[0]
    assert not workloads.cli_output_ok("verify_all", 3, _cli_document(92))[0]
    assert not workloads.cli_output_ok("verify_all", 0, _cli_document(92, fails=1))[0]
    assert not workloads.cli_output_ok("verify_all", 0, _cli_document(91))[0]
    assert not workloads.cli_output_ok("verify_all", 0, "not json")[0]
    checks = json.dumps({"checks": [{"status": "pass"}] * 16})
    assert workloads.cli_output_ok("oracle_check", 0, checks)[0]
    assert not workloads.cli_output_ok("oracle_check", 1, checks)[0]


def test_gate_counts_a_failed_cli_sample():
    result = {"exit_code": 1, "stdout": _cli_document(92), "latencies": [1.0]}
    assert run.gate("verify_all", result, [], None) == {
        "attempted": 1, "failed": 1,
        "rows": {"exit_code": 1, "pass": 92, "fail": 0, "rows": 92}}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 528)]) == ("p98", 517.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == ("p99", 990.0)
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_host_clock_excludes_ticks_and_rescales_by_the_bracketing_ticks():
    clock = hostclock.HostClock()
    clock.ticks = [(0.0, 0.02), (0.22, 0.04), (0.46, 0.02)]
    # 0.2 s of work at a bracketing reference mean of 0.03 s, then 0.1 s at 0.03 s.
    raw, normalized = clock.work(0.0, 0.36)
    assert raw == pytest.approx(0.3)
    assert normalized == pytest.approx(0.3 * hostclock.REFERENCE_S / 0.03)
    # An interval inside one stretch counts only its own length.
    assert clock.work(0.05, 0.15) == pytest.approx((0.1, 0.1 * hostclock.REFERENCE_S / 0.03))


def test_host_clock_ticks_during_work_and_stops_after():
    """In a fresh interpreter, since the clock takes over SIGALRM."""
    script = f"""
import json, sys, time
sys.path.insert(0, {str(BENCH)!r})
from hostclock import HostClock
with HostClock(period_s=0.05) as clock:
    start = time.perf_counter()
    while time.perf_counter() - start < 0.6:
        sum(range(1000))
    end = time.perf_counter()
ticks = len(clock.ticks)
time.sleep(0.2)  # a timer left armed would kill the process here
raw, normalized = clock.work(start, end)
paused = sum(d for s, d in clock.ticks if start < s < end)
print(json.dumps({{"ticks": ticks, "after": len(clock.ticks), "raw": raw,
                  "paused": paused, "span": end - start, "normalized": normalized}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60, check=True)
    data = json.loads(out.stdout)
    assert data["ticks"] == data["after"] >= 4
    assert data["raw"] + data["paused"] == pytest.approx(data["span"], abs=1e-6)
    assert data["raw"] < data["span"] and data["normalized"] > 0


def test_tracer_records_spans_and_keeps_results(tmp_path):
    """Run in a fresh interpreter, since install() patches etaq for good."""
    script = f"""
import json, sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]
import etaq, etaq.cli, etaq.identities
plain = etaq.identities.verify_identity("EQ24", 120)
from tracer import Tracer
t = Tracer(); t.install()
traced = etaq.identities.verify_identity("EQ24", 130)
again = etaq.identities.verify_identity("EQ24", 130)
t.write_spans({str(tmp_path / 'spans.tsv')!r})
print(json.dumps({{"same": plain.status == traced.status == again.status == "pass",
                  "m": t.metrics()}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    data = json.loads(out.stdout)
    m = data["m"]
    assert data["same"]
    assert m["identities.verify_identity.calls"] == 2
    assert m["series.mul.calls"] > 0 and m["series.mul.pairs"] >= m["series.mul.coeffs"] > 0
    assert m["series.compare.points"] > 0
    # The second call finds every quotient cached: each of its calls is a hit.
    assert m["eta.expand_quotient.hits"] * 2 >= m["eta.expand_quotient.calls"]
    assert m["eta.expand_quotient.hits"] < m["eta.expand_quotient.calls"]
    for name in ("series.mul", "identities.verify_identity", "eta.expand_k"):
        assert 0 <= m[f"{name}.self_s"] <= m[f"{name}.total_s"] + 1e-9
    # Wrapped but never called: reported as a measured 0, not left out.
    assert m["oracle.direct_eta_product.calls"] == 0
    assert m["oracle.direct_eta_product.factor_passes"] == 0
    assert m["cli.main.calls"] == 0 and m["oracle.total_s"] == 0
    assert m["verdict.self_s"] >= m["identities.self_s"] > 0
    assert 0 < m["trace.overhead_s"] < m["identities.verify_identity.total_s"]
    lines = (tmp_path / "spans.tsv").read_text().splitlines()
    assert len(lines) == m["trace.spans"]


def test_report_refuses_a_declared_metric_the_run_did_not_measure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    trace = {"series.mul.calls": 3, "trace.spans": 9}
    sample = {"traced": True, "attempted": 1, "failed": 0, "latencies": [1.0],
              "peak_rss_mb": 20.0, "trace": trace}
    result = {"workload": "verify_all", "seed": 1, "seconds": 1, "trace": True,
              "setups": [], "samples": [sample], "errors": [], "requests": [], "measured_s": 1.0}
    declared = [{"name": "series.mul.calls", "unit": "count", "better": "lower"}]
    assert run.report(result, declared)["result"]["metrics"] == {
        "series.mul.calls": {"value": 3, "unit": "count"}}
    declared.append({"name": "eta.expand_k.calls", "unit": "count", "better": "lower"})
    with pytest.raises(SystemExit, match="eta.expand_k.calls"):
        run.report(result, declared)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
