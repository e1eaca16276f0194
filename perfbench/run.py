"""The bplinks benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py`` for the four and why each was
chosen) in fresh, single-threaded processes, one at a time.  Set-up (process
start, import, reference building) is repeated ``SETUPS`` times and its
median reported; the last process then measures passes for ``--seconds``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of traced passes, which
alternate with untraced ones so that the tracing overhead is measured in
the same process.  The line before it is a JSON record of the run's
context and of every metric, including those the last line does not carry:
``vectors_per_s`` (a fixed multiple of 1 / ``wall_s``), ``wall_s.tail`` with
its pass count, ``fail_rate`` and, on paper-vectors, ``classify_s.exotic``
and ``classify_s.standard``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import TARGETS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 7
TAU_BUDGET = str(10**8)  # the package default, pinned against the environment
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10

# per-layer metric -> (span name, statistic); statistic is "calls",
# "self_s", "per_vector" (calls per vector of a pass) or "per_tau" (calls
# per tau_kernel call)
PER_LAYER = {
    "lattice.strip_count_2d.calls": ("lattice.strip_count_2d", "calls"),
    "lattice.strip_count_2d.self_s": ("lattice.strip_count_2d", "self_s"),
    "lattice.count_eq_2d.self_s": ("lattice.count_eq_2d", "self_s"),
    "lattice.window_counts.calls": ("lattice.window_counts", "calls"),
    "lattice.window_counts.per_tau": ("lattice.window_counts", "per_tau"),
    "lattice.tau_kernel.calls": ("lattice.tau_kernel", "calls"),
    "lattice.tau_kernel.self_s": ("lattice.tau_kernel", "self_s"),
    "arith.bounded_compositions.calls": ("arith.bounded_compositions", "calls"),
    "arith.bounded_compositions.self_s": ("arith.bounded_compositions", "self_s"),
    "arith.bp_order.calls": ("arith.bp_order", "calls"),
    "topology.exponent_vector.per_vector": ("topology.exponent_vector", "per_vector"),
    "topology.build_gcd_graph.per_vector": ("topology.build_gcd_graph", "per_vector"),
    "topology.build_gcd_graph.self_s": ("topology.build_gcd_graph", "self_s"),
    "topology.classify_sphere.self_s": ("topology.classify_sphere", "self_s"),
    "topology.arf_class.self_s": ("topology.arf_class", "self_s"),
    "topology.diffeo_class_even.self_s": ("topology.diffeo_class_even", "self_s"),
    "stability.k_stability.self_s": ("stability.k_stability", "self_s"),
    "stability.contact_obstruction.self_s": ("stability.contact_obstruction", "self_s"),
    "report.classify_link.calls": ("report.classify_link", "calls"),
    "report.classify_link.self_s": ("report.classify_link", "self_s"),
    "report.report_to_dict.self_s": ("report.report_to_dict", "self_s"),
    "cli.emit.self_s": ("cli.emit", "self_s"),
    "cli.ScanCache.put.calls": ("cli.ScanCache.put", "calls"),
    "cli.ScanCache.put.self_s": ("cli.ScanCache.put", "self_s"),
    "families.gen_exotic.calls": ("families.gen_exotic", "calls"),
    "families.gen_exotic.self_s": ("families.gen_exotic", "self_s"),
    "quasipoly.qp_fit.self_s": ("quasipoly.qp_fit", "self_s"),
    "quasipoly.qp_verify.self_s": ("quasipoly.qp_verify", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "per_vector": "calls/vector", "per_tau": "calls/tau"}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of ``times`` that has at
    least TAIL_BEYOND samples beyond it.  Below 2 * TAIL_BEYOND + 1 samples
    that percentile would fall under the median, so the maximum is given."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(raw: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """(metrics the last output line carries, metrics only the context line
    carries)."""
    untraced = [p for p in raw["passes"] if not p["traced"]]
    walls = [sum(p["steps"].values()) for p in untraced]
    wall = statistics.median(walls)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mib": (raw["peak_rss_mib"], "MiB"),
    }
    extra = {
        "vectors_per_s": (raw["vectors_per_pass"] / wall, "1/s"),
        "wall_s.tail": (tail_s, "s"),
        "wall_s.tail_percentile": (tail_pct, "%"),
        "wall_s.passes": (len(walls), "count"),
    }
    steps = untraced[0]["steps"]
    if set(steps) == {"exotic", "standard"}:
        for step in steps:
            extra[f"classify_s.{step}"] = (
                statistics.median(p["steps"][step] for p in untraced), "s")
    return metrics, extra


def per_layer(raw: dict) -> dict:
    """Per-layer metrics: medians over traced passes, null for a span whose
    function no longer exists in the package."""
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    gone = {span for span, (mod, path) in TARGETS.items() if f"{mod}.{path}" in raw["missing"]}

    def per_pass(span: str, stat: str, p: dict) -> float:
        calls = p["calls"].get(span, 0)
        if stat == "calls":
            return calls
        if stat == "self_s":
            return p["self_s"].get(span, 0.0)
        if stat == "per_vector":
            return calls / raw["vectors_per_pass"]
        taus = p["calls"].get("lattice.tau_kernel", 0)
        return calls / taus if taus else 0.0

    metrics = {}
    for name, (span, stat) in PER_LAYER.items():
        value = None
        if span not in gone:
            value = statistics.median(per_pass(span, stat, p) for p in traced)
        metrics[name] = (value, UNITS[stat])
    traced_wall = statistics.median(sum(p["steps"].values()) for p in traced)
    untraced_wall = statistics.median(sum(p["steps"].values()) for p in untraced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bplinks").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), BPLINKS_TAU_BUDGET=TAU_BUDGET, PYTHONHASHSEED="0")
    return env


def run_workload(args) -> tuple[list[float], dict]:
    """Start SETUPS workload processes one after another, timing each from
    start to ``ready``; the last one measures.  Every process is waited for."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    setup_times = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        argv = cmd if last else cmd + ["--setup-only"]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            setup_times.append(time.perf_counter() - start)
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"workload process ran past {CHILD_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"workload process failed (exit {proc.returncode})")
    return setup_times, json.loads(rest.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not (SRC / "bplinks" / "cli.py").is_file():
        print(f"no bplinks sources under {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    setup_times, raw = run_workload(args)
    attempted = raw["setup_attempted"] + sum(p["attempted"] for p in raw["passes"])
    failed = raw["setup_failed"] + sum(p["failed"] for p in raw["passes"])
    metrics, extra = end_to_end(raw, setup_times)
    extra["fail_rate"] = (failed / attempted, "ratio")
    report = {**metrics, **extra}
    if args.trace:
        metrics = per_layer(raw)
        report.update(metrics)

    context = {
        "workload": args.workload,
        "why": " ".join(WORKLOADS[args.workload].why.split()),
        "seed": args.seed,
        "seed_effect": raw["seed_effect"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "tau_budget": TAU_BUDGET,
        "setup_s_samples": setup_times,
        "pass_seconds": [p["steps"] for p in raw["passes"]],
        "traced_passes": [p["traced"] for p in raw["passes"]],
        "missing_names": raw["missing"],
        "failure_notes": raw["notes"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
