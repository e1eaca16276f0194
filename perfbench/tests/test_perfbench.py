"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.import_package()

from bplinks import cli, lattice, report  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_span_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9];
    # self(a) = 10 - 3 - 4, self(b) = (3 - 1) + 4, self(c) = 1
    clock = FakeClock()
    rec = spans.Recorder(clock)
    for t, event in [(0, "a"), (1, "b"), (2, "c"), (3, None), (4, None),
                     (5, "b"), (9, None), (10, None)]:
        clock.now = t
        rec.enter(event) if event else rec.exit()
    assert rec.calls == {"a": 1, "b": 2, "c": 1}
    assert rec.self_s == {"a": 3.0, "b": 6.0, "c": 1.0}


def test_wrappers_cover_every_binding_and_are_removed():
    original = lattice.tau_kernel
    rec = spans.Recorder()
    with spans.installed(rec) as missing:
        assert missing == []
        assert report.tau_kernel is not original and cli.tau_kernel is report.tau_kernel
        report.classify_link((2, 3, 5, 7, 11))
    assert report.tau_kernel is original and cli.ScanCache.put.__name__ == "put"
    assert rec.calls["lattice.tau_kernel"] == 1
    # the closures in _window_counts reach strip_count_2d through module globals
    assert rec.calls["lattice.strip_count_2d"] > 0
    assert rec.calls["topology.exponent_vector"] == 5


def test_missing_name_is_reported_not_fatal():
    targets = {**spans.TARGETS, "lattice.gone": ("lattice", "_no_such_function")}
    with spans.installed(spans.Recorder(), targets) as missing:
        pass
    assert missing == ["lattice._no_such_function"]
    raw = {
        "vectors_per_pass": 1,
        "missing": ["lattice._count_eq_2d"],
        "passes": [
            {"traced": False, "steps": {"x": 1.0}, "calls": {}, "self_s": {}},
            {"traced": True, "steps": {"x": 1.5}, "calls": {}, "self_s": {}},
        ],
    }
    metrics = run.per_layer(raw)
    assert metrics["lattice.count_eq_2d.self_s"] == (None, "s")
    assert metrics["trace.overhead_s"] == (0.5, "s")


@pytest.fixture
def small_scan():
    w = workloads.ScanN4(amax=5)
    w.setup(seed=0)
    return w


def test_small_scan_is_correct(small_scan, tmp_path):
    tally = workloads.Tally()
    small_scan.check(small_scan.run_pass(tmp_path)[1], tally)
    assert (tally.attempted, tally.failed) == (small_scan.vectors_per_pass, 0)


def test_injected_wrong_tau_gives_failures(small_scan, monkeypatch, tmp_path):
    def wrong(a):
        sig = lattice.tau_kernel(a)
        return lattice.SignatureResult(sig.tau + 8, sig.plus_count + 8, sig.minus_count,
                                       sig.boundary_skipped, sig.method)

    monkeypatch.setattr(report, "tau_kernel", wrong)
    tally = workloads.Tally()
    small_scan.check(small_scan.run_pass(tmp_path)[1], tally)
    assert tally.attempted == small_scan.vectors_per_pass
    assert tally.failed == tally.attempted and tally.failed / tally.attempted > 0


def _paper_outputs(w, tmp, tau_delta=0, elapsed=0.5):
    outputs = {}
    for step, (vector, tau, cls) in w.GOLDEN.items():
        rec = {"vector": list(vector), "input_vector": w.orders[step],
               "homotopy_sphere": True, "tau": tau + tau_delta, "class": cls,
               "elapsed_s": elapsed}
        out = tmp / f"{step}.out"
        out.write_text(json.dumps(rec) + "\n")
        outputs[step] = (0, out)
    return outputs


def test_paper_vectors_compare_math_fields_only(tmp_path):
    w = workloads.PaperVectors()
    w.setup(seed=7)
    assert sorted(w.orders["exotic"]) == [2, 2, 338, 339, 341]
    for elapsed in (0.1, 99.0):
        tally = workloads.Tally()
        w.check(_paper_outputs(w, tmp_path, elapsed=elapsed), tally)
        assert (tally.attempted, tally.failed) == (2, 0)
    tally = workloads.Tally()
    w.check(_paper_outputs(w, tmp_path, tau_delta=8), tally)
    assert tally.failed == 2


def test_refused_or_raised_call_is_a_failure(tmp_path, monkeypatch):
    w = workloads.PaperVectors()
    w.setup(seed=7)
    refused, raised = tmp_path / "refused.out", tmp_path / "raised.out"
    assert workloads.run_cli(["classify", "2", "2"], refused)[1] == 2  # too few exponents

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "classify_link", boom)
    assert workloads.run_cli(["classify", "2", "3", "5", "7"], raised)[1] is None
    assert "RuntimeError: boom" in raised.read_text()
    tally = workloads.Tally()
    w.check({"exotic": (2, refused), "standard": (None, raised)}, tally)
    assert tally.failed == 2


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0)
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 75.0


def test_benchmark_json_names_what_run_emits():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    raw = {"vectors_per_pass": 2, "peak_rss_mib": 20.0, "missing": [],
           "passes": [{"traced": False, "steps": {"exotic": 1.0, "standard": 0.1}},
                      {"traced": True, "steps": {"exotic": 1.2, "standard": 0.1},
                       "calls": {}, "self_s": {}}]}
    e2e, extra = run.end_to_end(raw, [0.1, 0.2, 0.3])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert set(extra) >= {"classify_s.exotic", "classify_s.standard"}
    layer = run.per_layer(raw)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
