"""The four workloads of the bplinks benchmark and the process that runs one.

Each workload drives the public entry point ``bplinks.cli.main`` in-process,
with stdout written to a file as a shell user would redirect it, and checks
every answer against a reference that does not come from the code path
being timed.  Only mathematical fields are compared; the wall-clock
``elapsed_s`` field of a report is never read.

Run as a script, this file is the workload process that ``run.py`` starts:
it imports the package from ``src/``, builds the references, prints
``ready``, then (unless ``--setup-only``) measures passes for ``--seconds``
and prints one JSON line of raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import tempfile
import time
from itertools import combinations_with_replacement
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MAX_NOTES = 5


def import_package():
    """Import bplinks from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import bplinks
    import bplinks.cli

    if Path(bplinks.__file__).resolve().parent != (SRC / "bplinks").resolve():
        raise SystemExit(f"imported bplinks from {bplinks.__file__}, not from {SRC}")
    return bplinks


def run_cli(argv, out: Path):
    """Time one ``cli.main`` call with its stdout written to ``out``:
    (seconds, exit code).  An exception escaping ``main`` is an answer too:
    exit code None, with the error written to ``out``."""
    from bplinks import cli

    start = time.perf_counter()
    with open(out, "w") as fh:
        try:
            with contextlib.redirect_stdout(fh), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a wrong answer, not a crash
            code = None
            fh.write(f"{type(exc).__name__}: {exc}\n")
    return time.perf_counter() - start, code


def run_steps(argvs: dict, tmp: Path):
    """Time each named ``cli.main`` call: (step -> seconds, step -> (exit
    code, stdout file))."""
    times, outputs = {}, {}
    for step, argv in argvs.items():
        out = tmp / f"{step}.out"
        times[step], code = run_cli(argv, out)
        outputs[step] = (code, out)
    return times, outputs


class Tally:
    """Attempted and failed results of one pass, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(note)


def one_record(code, out: Path) -> dict:
    """The single JSON record a successful call printed, else {}."""
    if code != 0:
        return {}
    try:
        lines = out.read_text().splitlines()
        return json.loads(lines[0]) if len(lines) == 1 else {}
    except json.JSONDecodeError:
        return {}


def fields_by_vector(path: Path, keys) -> dict:
    """vector -> the ``keys`` fields of each JSON record line in ``path``.
    Lines are read one at a time and only the fields kept, so checking a
    large scan adds little to the workload process's peak memory.  A line
    that does not parse is skipped; its vector then counts as missing."""
    out = {}
    if not path.exists():
        return out
    with open(path) as fh:
        for line in fh:
            try:
                rec = json.loads(line)
                out[tuple(rec["vector"])] = tuple(rec.get(k) for k in keys)
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
    return out


# ---------------------------------------------------------------------------


class PaperVectors:
    name = "paper-vectors"
    why = (
        "The paper's exotic and standard examples.  There are few outer combos "
        "(1 and 4) and a huge inner box, so strip_count_2d and _count_eq_2d are "
        "about 100% of the time.  An O(log) 2D counter should move this "
        "workload; merging outer offsets should leave it unchanged."
    )
    # step -> (vector, tau, class): golden values from arXiv 2203.08468
    GOLDEN = {
        "exotic": ((2, 2, 338, 339, 341), 13023816, "1 mod 28"),
        "standard": ((3, 3, 3, 1345, 4034), 14472192, "0 mod 28"),
    }
    vectors_per_pass = 2

    def setup(self, seed: int) -> Tally:
        rng = random.Random(seed)
        self.orders = {}
        for step, (vector, _, _) in self.GOLDEN.items():
            order = list(vector)
            rng.shuffle(order)
            self.orders[step] = order
        return Tally()

    def seed_effect(self) -> dict:
        return {"exponent_order": self.orders}

    def run_pass(self, tmp: Path):
        return run_steps({s: ["classify", *map(str, o)] for s, o in self.orders.items()}, tmp)

    def check(self, outputs, tally: Tally) -> None:
        for step, (code, out) in outputs.items():
            vector, tau, cls = self.GOLDEN[step]
            rec = one_record(code, out)
            ok = (
                rec.get("vector") == list(vector)
                and rec.get("input_vector") == self.orders[step]
                and rec.get("homotopy_sphere") is True
                and rec.get("tau") == tau
                and rec.get("class") == cls
            )
            tally.check(ok, f"{step}: exit {code}, got {rec or out.read_text()[:200]!r}")


class ScanN4:
    name = "scan-n4"
    why = (
        "792 vectors with tens of thousands of tiny window calls (A, B <= 9) "
        "and cold cache writes on every pass.  The lattice module works "
        "differently here than in paper-vectors: many small 2D counts instead "
        "of a few huge ones.  Merging outer offsets targets this workload; an "
        "O(log) 2D counter moves it only a little."
    )
    PRINTED = ("tau", "tau_plus", "tau_minus", "boundary_skipped")
    CACHED = ("tau", "plus", "minus", "boundary")

    def __init__(self, amax: int = 9):
        self.amax = amax
        self.vectors = list(combinations_with_replacement(range(2, amax + 1), 5))
        self.vectors_per_pass = len(self.vectors)

    def setup(self, seed: int) -> Tally:
        from bplinks.lattice import tau_brute  # the independent oracle

        self.reference = {}
        for v in self.vectors:
            sig = tau_brute(v)
            self.reference[v] = (sig.tau, sig.plus_count, sig.minus_count, sig.boundary_skipped)
        return Tally()

    def seed_effect(self) -> dict:
        return {"none": "scan inputs are exhaustive"}

    def run_pass(self, tmp: Path):
        cache = tmp / "scan.cache"
        cache.unlink(missing_ok=True)  # every pass starts cold
        argv = ["scan", "--n", "4", "--amax", str(self.amax), "--cache", str(cache)]
        times, outputs = run_steps({"scan": argv}, tmp)
        return times, (*outputs["scan"], cache)

    def check(self, outputs, tally: Tally) -> None:
        code, out, cache = outputs
        printed = fields_by_vector(out, self.PRINTED) if code == 0 else {}
        stored = fields_by_vector(cache, self.CACHED)
        for v in self.vectors:
            want = self.reference[v]
            got, cgot = printed.get(v), stored.get(v)
            tally.check(
                got == want and cgot == want,
                f"{v}: want {want}, printed {got}, cached {cgot} (exit {code})",
            )


class ScanOdd:
    name = "scan-odd"
    why = (
        "18564 odd-n vectors on which the lattice module does no work.  The "
        "time goes to topology (gcd graph), stability (k_stability is about "
        "half), report_to_dict and JSON emission, which are under 1% of every "
        "other workload.  Signature-kernel changes must show no change here."
    )
    REFERENCE = REFERENCE_DIR / "scan_odd.json"
    SPOT_STRIDE = 97  # every 97th vector is re-run through the live oracle

    def setup(self, seed: int) -> Tally:
        from bplinks.stability import fujita_subset_oracle

        ref = json.loads(self.REFERENCE.read_text())
        self.argv = ref["argv"]
        self.fields = ref["fields"]
        codes = {c: tuple(v) for c, v in ref["codes"].items()}
        classes = "".join(ref["classes"])
        se = "".join(ref["se_oracle"])
        n, amax = int(self.argv[2]), int(self.argv[4])
        self.vectors = list(combinations_with_replacement(range(2, amax + 1), n + 1))
        if not len(self.vectors) == len(classes) == len(se) == ref["count"]:
            raise SystemExit(f"{self.REFERENCE} does not match {self.argv}")
        self.vectors_per_pass = len(self.vectors)
        self.reference = {
            v: (*codes[c], s == "1") for v, c, s in zip(self.vectors, classes, se)
        }
        # the recorded oracle bits must still be what the oracle says
        tally = Tally()
        for v in self.vectors[:: self.SPOT_STRIDE]:
            live = fujita_subset_oracle(v)["polystable"]
            tally.check(live == self.reference[v][-1], f"{v}: oracle says {live}, recorded the opposite")
        return tally

    def seed_effect(self) -> dict:
        return {"none": "scan inputs are exhaustive"}

    def run_pass(self, tmp: Path):
        times, outputs = run_steps({"scan": self.argv}, tmp)
        return times, outputs["scan"]

    def check(self, outputs, tally: Tally) -> None:
        code, out = outputs
        printed = fields_by_vector(out, [*self.fields, "se_metric"]) if code == 0 else {}
        for v in self.vectors:
            want, got = self.reference[v], printed.get(v)
            tally.check(got == want, f"{v}: want {want}, got {got} (exit {code})")


class QpfitExotic:
    name = "qpfit-exotic"
    why = (
        "Two exotic-family fits covering periods 6 and 20, with p up to 202.  "
        "It exercises families.gen_exotic, a mid-size kernel (about p outer "
        "combos x O(p)) and quasipoly fit/verify, and moves with both an "
        "O(log) 2D counter and merged outer offsets."
    )
    FITS = {"l3": "3", "l5": "5"}
    SAMPLES, VERIFY = 7, 3
    vectors_per_pass = len(FITS) * (SAMPLES + VERIFY)  # tau evaluations

    def setup(self, seed: int) -> Tally:
        return Tally()

    def seed_effect(self) -> dict:
        return {"none": "fit parameters are fixed"}

    def run_pass(self, tmp: Path):
        return run_steps({
            step: ["qpfit", "--m", "2", "--k", "1", "--l", l,
                   "--samples", str(self.SAMPLES), "--verify", str(self.VERIFY)]
            for step, l in self.FITS.items()
        }, tmp)

    def check(self, outputs, tally: Tally) -> None:
        for step, (code, out) in outputs.items():
            rows = one_record(code, out).get("verify", [])
            for i in range(self.VERIFY):
                row = rows[i] if i < len(rows) else {}
                ok = row.get("match") is True and row.get("predicted") == str(row.get("actual"))
                tally.check(ok, f"{step} verify row {i}: exit {code}, got {row}")


WORKLOADS = {w.name: w for w in (PaperVectors, ScanN4, ScanOdd, QpfitExotic)}


# ---------------------------------------------------------------------------
# The workload process


def measure(workload, seconds: float, trace: bool, tmp: Path) -> dict:
    """Run passes until the next one would end past ``seconds``.  A traced
    run alternates untraced and traced passes and needs one of each."""
    passes, notes, missing = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        rec = spans.Recorder()
        if traced:
            with spans.installed(rec) as missing:
                times, outputs = workload.run_pass(tmp)
        else:
            times, outputs = workload.run_pass(tmp)
        tally = Tally()
        workload.check(outputs, tally)
        longest = max(longest, time.perf_counter() - began)
        passes.append({
            "traced": traced,
            "steps": times,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "calls": rec.calls,
            "self_s": rec.self_s,
        })
        notes.extend(tally.notes[: MAX_NOTES - len(notes)])
        done = len(passes) >= (2 if trace else 1)
        if done and time.perf_counter() - start + longest > seconds:
            break
    return {"passes": passes, "notes": notes, "missing": missing}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one bplinks benchmark workload process")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    from bplinks.arith import bp_order

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        workload = WORKLOADS[args.workload]()
        setup_tally = workload.setup(args.seed)
        bp_order(2)  # fill the Bernoulli memo
        run_cli(["classify", "2", "3", "5", "7", "11"], tmp / "warmup.out")  # first-call imports
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args.seconds, bool(args.trace), tmp)

    result.update(
        vectors_per_pass=workload.vectors_per_pass,
        seed_effect=workload.seed_effect(),
        setup_attempted=setup_tally.attempted,
        setup_failed=setup_tally.failed,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    result["notes"] = setup_tally.notes + result["notes"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
