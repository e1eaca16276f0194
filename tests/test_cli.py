import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bplinks
from bplinks import arith, cli, errors, families, lattice, moduli, report, topology
from bplinks.cli import main
from bplinks.primes import is_prime
from bplinks.report import classify_link, report_to_dict, report_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, lines, captured.err


# ---------------------------------------------------------------------------
# golden outputs for the documented commands


def test_classify_golden(capsys):
    code, lines, _ = run_cli(capsys, "classify", "2", "2", "2", "3", "5")
    assert code == 0 and len(lines) == 1
    out = lines[0]
    assert out["homotopy_sphere"] is True
    assert out["se_metric"] is False
    assert out["tau"] == 8
    assert out["class"] == "1 mod 28"
    assert out["stability"]["sum_recip"] == "61/30"


def test_bp_order_golden(capsys):
    code, lines, _ = run_cli(capsys, "bp-order", "--m", "3")
    assert code == 0
    assert lines == [{"m": 3, "order": "992"}]


@pytest.mark.parametrize(
    "argv",
    [
        "bp-order --m 100000",
        "family standard --m 100000 --k 2",
        "qpfit --m 5000 --k 1 --l 3",
    ],
)
def test_huge_m_is_refused_quickly(capsys, monkeypatch, argv):
    # the Bernoulli numbers bP_{4m} needs, up to B_{2m}, would take ~(2m)^3/6
    # term steps: ~1.3e15 at m = 100000
    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    start = time.perf_counter()
    code, lines, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 1 and lines == []
    assert "Bernoulli" in err and "(budget 100000000)" in err


def test_tau_golden(capsys):
    code, lines, _ = run_cli(
        capsys, "tau", "--method", "kernel", "2", "2", "338", "339", "341"
    )
    assert code == 0
    out = lines[0]
    assert out["tau"] % 8 == 0
    assert out["class"] == "1 mod 28"
    assert out["boundary_skipped"] == 0

    # the oracle enumerates all 38 728 040 box points, met in the middle
    code, lines, _ = run_cli(capsys, "tau", "--method", "brute", "2", "2", "338", "339", "341")
    assert code == 0
    assert lines[0]["tau"] == 13023816 and lines[0]["class"] == "1 mod 28"

    # 8 | tau, but the link is not a homotopy sphere, so it has no bP class
    code, lines, _ = run_cli(capsys, "tau", "2", "2", "2", "3", "6")
    assert code == 0
    assert lines[0]["tau"] == 8 and lines[0]["boundary_skipped"] == 2
    assert "class" not in lines[0]


# ---------------------------------------------------------------------------
# other subcommands


def test_family_and_qpfit(capsys):
    code, lines, _ = run_cli(capsys, "family", "exotic", "--m", "2", "--k", "1", "--q", "56")
    assert code == 0
    assert lines[0]["vector"] == [2, 2, 338, 339, 341]

    code, lines, _ = run_cli(
        capsys,
        "qpfit",
        "--m", "2", "--k", "1", "--l", "3",
        "--samples", "7", "--verify", "2",
    )
    assert code == 0
    fit = lines[0]
    assert fit["quasi_polynomial"]["period"] == 6
    assert fit["degree_used"] == 4
    assert all(row["match"] for row in fit["verify"])


def test_family_odd_refuses_an_unproven_or_composite_pn(capsys):
    # psi_12 passes Miller-Rabin to the bases 2..37 but is 399165290221 * 798330580441
    psi_12, psi_13 = "318665857834031151167461", "3317044064679887385961981"
    code, lines, err = run_cli(capsys, "family", "odd", "--m", "2", "--pn", psi_12)
    assert code == 2 and lines == [] and "not prime" in err
    # psi_13 passes every base through 41: the test is unproven from there on
    code, lines, err = run_cli(capsys, "family", "odd", "--m", "2", "--pn", psi_13)
    assert code == 1 and lines == [] and "unproven" in err


def test_classify_dimension_125_is_trivial_like_13_and_29(capsys):
    # a Kervaire invariant one element in dimension 126 makes bP_126 trivial
    for twos, dim in ((7, 13), (15, 29), (63, 125)):
        code, lines, _ = run_cli(capsys, "classify", *["2"] * twos, "3")
        assert code == 0 and lines[0]["link_dimension"] == dim
        assert (lines[0]["arf"], lines[0]["bp_group"]) == (1, "trivial")


def test_tau_validates_its_vector_twice(monkeypatch, capsys):
    # _cmd_tau validates once and the engine once more; the sphere decision
    # folds the validated vector, as classify_link does
    calls = []

    def counting(values):
        calls.append(tuple(values))
        return exponent_vector(values)

    exponent_vector = topology.exponent_vector
    for module in (cli, report, lattice, topology):
        monkeypatch.setattr(module, "exponent_vector", counting)
    for method in ("kernel", "brute"):
        calls.clear()
        code, lines, _ = run_cli(capsys, "tau", "--method", method, "2", "2", "2", "3", "5")
        assert code == 0 and lines[0]["class"] == "1 mod 28"
        assert len(calls) == 2, method


def test_qpfit_starts_at_least_admissible_q(capsys):
    # at m = 3 the K-stability gate refuses q = 1, (2, 2, 8, 8, 8, 9, 11)
    code, _, err = run_cli(capsys, "family", "exotic", "--m", "3", "--k", "1", "--q", "1")
    assert code == 1 and "K-stability" in err
    code, lines, _ = run_cli(
        capsys,
        "qpfit",
        "--m", "3", "--k", "1", "--l", "3",
        "--samples", "10", "--verify", "3",
    )
    assert code == 0
    fit = lines[0]
    assert [s[0] for s in fit["samples"]] == list(range(2, 12))
    assert fit["degree_used"] == 6
    assert [row["p"] for row in fit["verify"]] == [74, 80, 86]  # q = 12, 13, 14
    assert all(row["match"] for row in fit["verify"])


def test_moduli_and_euler(capsys):
    code, lines, _ = run_cli(capsys, "moduli", "--n", "6", "--p", "8", "--l", "3")
    assert code == 0
    assert lines[0]["h0_d"] == 80
    assert lines[0]["dimension"] == 35 and lines[0]["agree"] is True

    code, lines, _ = run_cli(capsys, "euler", "--n", "6", "--p", "8", "--l", "3")
    assert code == 0
    out = lines[0]
    assert out["mu_p"] == 914 and out["phi_2"] == 336
    assert out["chi_m"] == "2151/914" and "chi_p_model" not in out
    assert out["strata"][7]["chi_s1"] == "-38/1"  # the p-stratum
    assert [s["frequency"] for s in out["strata"]] == [1, 3, 4, 8, 10, 24, 30, 80, 336]


def test_moduli_refuses_outside_the_closed_form_regime(capsys):
    for p, l in [(2, 1), (4, 1), (2, 3)]:
        code, lines, err = run_cli(capsys, "moduli", "--n", "6", "--p", str(p), "--l", str(l))
        assert code == 1 and lines == []
        assert len(err.splitlines()) == 1 and "p >= 4, l >= 2" in err
    code, lines, _ = run_cli(capsys, "moduli", "--n", "6", "--p", "8", "--l", "3")
    assert code == 0 and lines == [
        {
            "n": 6, "p": 8, "l": 3, "h0_d": 80, "h0_weights_sum": 45,
            "dimension": 35, "closed_form": 35, "agree": True,
        }
    ]


def test_euler_rejects_l_one(capsys):
    # (2,2,8,8,8,9,9) is not a family member: the formula's 774 is not 2 * I_a
    code, lines, err = run_cli(capsys, "euler", "--n", "6", "--p", "8", "--l", "1")
    assert code == 2 and lines == []
    assert len(err.splitlines()) == 1 and "family shape" in err


def test_moduli_refuses_past_the_budget_quickly(capsys, monkeypatch):
    # d = 10000 * 10001 * 10003, about 10^12 table entries per weight
    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    start = time.perf_counter()
    code, lines, err = run_cli(capsys, "moduli", "--n", "6", "--p", "10000", "--l", "3")
    assert time.perf_counter() - start < 1
    assert code == 1 and lines == []
    assert len(err.splitlines()) == 1
    assert "~6001900019998 " in err and "(budget 100000000)" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_sphere_filter_includes_example(capsys):
    code, lines, err = run_cli(capsys, "scan", "--n", "4", "--amax", "6", "--filter", "sphere")
    assert code == 0
    vectors = [tuple(rec["vector"]) for rec in lines]
    assert (2, 2, 2, 3, 5) in vectors
    assert vectors == sorted(vectors)
    assert "matched" in err  # diagnostics stay on stderr


def test_scan_se_sphere_filter_excludes_unstable(capsys):
    code, lines, _ = run_cli(
        capsys, "scan", "--n", "4", "--amax", "5", "--filter", "se-sphere"
    )
    assert code == 0
    assert (2, 2, 2, 3, 5) not in [tuple(rec["vector"]) for rec in lines]


def test_scan_empty_range(capsys):
    code, lines, _ = run_cli(capsys, "scan", "--n", "4", "--amax", "1")
    assert code == 0
    assert lines == []


@pytest.mark.parametrize("n", ["2", "0", "-1"])
@pytest.mark.parametrize("amax", ["1", "5"])
def test_scan_n_below_three_is_a_usage_error(capsys, n, amax):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--n", n, "--amax", amax])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_scan_summary_counts_vectors_and_cache_traffic(capsys, tmp_path):
    cache = str(tmp_path / "c")
    code, lines, err = run_cli(capsys, "scan", "--n", "4", "--amax", "6", "--cache", cache)
    assert code == 0 and len(lines) == 126
    assert err == "scan: 126 links matched of 126 vectors; cache 0 hits, 126 writes\n"
    code, lines, err = run_cli(capsys, "scan", "--n", "4", "--amax", "6", "--cache", cache)
    assert code == 0 and len(lines) == 126
    assert err == "scan: 126 links matched of 126 vectors; cache 126 hits, 0 writes\n"
    code, _, err = run_cli(
        capsys, "scan", "--n", "4", "--amax", "7", "--filter", "sphere", "--cache", cache
    )
    assert code == 0
    assert err == "scan: 48 links matched of 252 vectors; cache 126 hits, 126 writes\n"
    code, _, err = run_cli(capsys, "scan", "--n", "3", "--amax", "4", "--filter", "sphere")
    assert code == 0 and err == "scan: 2 links matched of 15 vectors\n"


def _kept(rep, filt):
    if filt == "sphere":
        return rep.sphere.is_homotopy_sphere
    if filt == "se-sphere":
        return rep.sphere.is_homotopy_sphere and rep.stability.se_metric_exists
    return True


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 6),
    amax=st.integers(1, 6),
    filt=st.sampled_from(["all", "sphere", "se-sphere"]),
    cache=st.sampled_from([None, "cold", "warm"]),
)
def test_scan_prints_what_classify_link_says(n, amax, filt, cache):
    # the walk's records against classify_link's, vector by vector
    vectors = combinations_with_replacement(range(2, amax + 1), n + 1)
    reports = [classify_link(v) for v in vectors]
    expected = [report_to_dict(r) for r in reports if _kept(r, filt)]
    argv = ["scan", "--n", str(n), "--amax", str(amax), "--filter", filt]
    with tempfile.TemporaryDirectory() as tmp:
        if cache is not None:
            argv += ["--cache", str(Path(tmp) / "c")]
        if cache == "warm":  # a smaller scan leaves hits and misses
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv[:4] + [str(amax - 1)] + argv[5:]) == 0
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 0
    assert [json.loads(line) for line in out.getvalue().splitlines()] == expected
    assert f"{len(expected)} links matched of {len(reports)} vectors" in err.getvalue()


@pytest.mark.parametrize("n, amax", [(3, 6), (4, 5), (5, 5), (6, 5)])
def test_scan_prints_report_to_json_of_classify_link_byte_for_byte(n, amax):
    # scan formats each line from the walk's values, classify from a record:
    # every filter, with no, a cold and a warm cache, prints the same bytes
    vectors = combinations_with_replacement(range(2, amax + 1), n + 1)
    reports = [classify_link(v) for v in vectors]
    assert {r.sphere.is_homotopy_sphere and r.stability.se_metric_exists for r in reports} == {
        True,
        False,
    }
    for filt in ("all", "sphere", "se-sphere"):
        want = "".join(report_to_json(r) + "\n" for r in reports if _kept(r, filt))
        for cache in (None, "cold", "warm"):
            argv = ["scan", "--n", str(n), "--amax", str(amax), "--filter", filt]
            with tempfile.TemporaryDirectory() as tmp:
                if cache is not None:
                    argv += ["--cache", str(Path(tmp) / "c")]
                if cache == "warm":  # a smaller scan leaves hits and misses
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        assert main(argv[:4] + [str(amax - 1)] + argv[5:]) == 0
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    assert main(argv) == 0
            assert out.getvalue() == want, (filt, cache)


def test_scan_even_split_is_an_invariant_violation(capsys, monkeypatch):
    # with no prime shared, the 2s fall into separate components
    monkeypatch.setattr(topology, "gcd", lambda x, y: 1)
    code, lines, err = run_cli(capsys, "scan", "--n", "3", "--amax", "3")
    assert code == 3 and lines == []
    assert "even entries of (2, 2, 2, 2) lie in more than one component" in err


def test_scan_index_form_disagreement_is_an_invariant_violation(capsys, monkeypatch):
    # a wrong lcm gives wrong Reeb weights, so the index form stops agreeing
    monkeypatch.setattr(report, "lcm", lambda x, y: 1)
    code, lines, err = run_cli(capsys, "scan", "--n", "3", "--amax", "3")
    assert code == 3 and lines == []
    assert "inequality form and index form disagree on (2, 2, 2, 2)" in err


def _strip_timing(records):
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("elapsed_s", None)
        out.append(rec)
    return out


def test_scan_with_both_residue_memos_bypassed_prints_the_same_bytes(capsys, monkeypatch):
    assert main(["scan", "--n", "4", "--amax", "9"]) == 0
    want = capsys.readouterr()
    windows, outers = [], []
    window_counts, outer_residues = lattice._window_counts, lattice._outer_residues.__wrapped__
    monkeypatch.setattr(lattice, "_window_memo", lambda *a: windows.append(a) or window_counts(*a))
    monkeypatch.setattr(lattice, "_outer_residues", lambda *a: outers.append(a) or outer_residues(*a))
    assert main(["scan", "--n", "4", "--amax", "9"]) == 0
    got = capsys.readouterr()
    assert (len(windows), len(outers)) == (7453, 774)  # one per loop step and per DP vector
    assert (got.out, got.err) == (want.out, want.err)


@pytest.mark.parametrize("budget, first", [(20, 184), (40, 256), (200, 534)])
def test_scan_refuses_at_the_vector_and_with_the_message_of_tau(capsys, monkeypatch, budget, first):
    # the first vector of scan --n 4 --amax 9 whose outer DP costs more than
    # the budget refuses, after the earlier ones have filled the window memo
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", str(budget))
    vectors = list(combinations_with_replacement(range(2, 10), 5))
    code, lines, err = run_cli(capsys, "scan", "--n", "4", "--amax", "9")
    assert code == 1 and [r["vector"] for r in lines] == [list(v) for v in vectors[:first]]
    assert run_cli(capsys, "tau", *map(str, vectors[first])) == (1, [], err)
    assert f"(budget {budget})" in err
    for v in vectors[:first]:
        lattice.tau_kernel(v)  # no earlier vector refuses on its own


# SHA-256 over every field of every scan record (one sorted-key JSON line
# each, without the timing field): a faster classification path must
# reproduce the records bit for bit.
@pytest.mark.parametrize(
    "n, amax, count, digest",
    [
        (5, 10, 3003, "c6921f0068454ca0638f2436656527e6a740e4a1ece7eee2d90d2bb2d5ea09b7"),
        (4, 7, 252, "40fd8f41b193da7b6dc8b8303482709da88d72e0ec7f6ab3246649856de34066"),
    ],
)
def test_scan_records_golden_digest(capsys, n, amax, count, digest):
    code, lines, _ = run_cli(capsys, "scan", "--n", str(n), "--amax", str(amax))
    assert code == 0 and len(lines) == count
    h = hashlib.sha256()
    for rec in _strip_timing(lines):
        h.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == digest


# SHA-256 of the raw bytes, recorded from json.dumps's output (the odd-n
# scan) and from report_to_dict's records run through cli._encode (the rest):
# the digests above re-encode each record with sorted keys, so they cannot
# see a change of key order or separators.  The even-n scan pins the tau and
# class fields, the classify calls (the paper's two vectors, shuffled) the
# input vector.  The cache's records name the tool's version, so a version
# bump changes the cache digest.
@pytest.mark.parametrize(
    "argvs, digest",
    [
        (
            [["scan", "--n", "5", "--amax", "10"]],
            "fbe03889df59e778063d34724135307f4e1be71f1c3f1dc40ace622b3a60e19f",
        ),
        (
            [["scan", "--n", "4", "--amax", "7"]],
            "2838abdd2ee1987f127b6cf0b409c955ad6f4414ec597793b0bca0dfcc96a04a",
        ),
        (
            [["classify", "341", "2", "339", "338", "2"], ["classify", "4034", "3", "1345", "3", "3"]],
            "6edf04b4dbfcd27d82310d96e1e2067f699deb4a3d8d65b91236ef3c879d51b5",
        ),
    ],
    ids=["scan-odd-n", "scan-even-n", "classify-paper-vectors"],
)
def test_scan_stdout_bytes_golden_digest(capsys, argvs, digest):
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_cache_file_bytes_golden_digest(capsys, tmp_path):
    cache = tmp_path / "scan.cache"
    assert main(["scan", "--n", "4", "--amax", "7", "--cache", str(cache)]) == 0
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "e2ad7993236dfebca17ef3471bb20cea3edb0c514527b0c50c1ab5825bc07f90"
    )


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["classify", "2", "2", "2", "3", "5"], 0),
        (["tau", "2", "2", "2", "3", "5"], 0),
        # the six vectors before (2, 2, 2, 3, 5), the scan's first sphere
        (["scan", "--n", "4", "--amax", "5"], 6),
    ],
    ids=["classify", "tau", "scan"],
)
def test_a_bp_order_too_long_to_print_is_refused(capsys, monkeypatch, argv, printed):
    # a real order this long needs m ~ 1000 and a raised budget; the
    # signature does not bound it
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    monkeypatch.setattr(topology, "bp_order", lambda m: arith.BPOrder(m, 10**limit))
    code, lines, err = run_cli(capsys, *argv)
    assert (code, len(lines)) == (1, printed)
    assert not any(rec["homotopy_sphere"] for rec in lines)
    assert "decimal digits in one integer" in err and f"(budget {limit})" in err


def test_scan_results_independent_of_cache(capsys, tmp_path):
    cache = tmp_path / "scan.cache"
    code, plain, _ = run_cli(capsys, "scan", "--n", "4", "--amax", "5")
    assert code == 0
    code, first, _ = run_cli(capsys, "scan", "--n", "4", "--amax", "5", "--cache", str(cache))
    assert code == 0
    code, second, _ = run_cli(
        capsys, "scan", "--n", "4", "--amax", "5", "--cache", str(cache), "--paranoid"
    )
    assert code == 0
    assert _strip_timing(plain) == _strip_timing(first) == _strip_timing(second)
    header = json.loads(cache.read_text().splitlines()[0])
    assert header == {"version": 1}


def test_scan_cache_reloads_every_record_and_closes(capsys, tmp_path, monkeypatch):
    opened = []

    class Recording(cli.ScanCache):
        def __init__(self, path):
            super().__init__(path)
            opened.append(self)

    monkeypatch.setattr(cli, "ScanCache", Recording)
    cache = tmp_path / "scan.cache"
    code, lines, _ = run_cli(capsys, "scan", "--n", "4", "--amax", "6", "--cache", str(cache))
    assert code == 0 and len(lines) == 126
    assert opened[-1]._fh.closed
    text = cache.read_text()
    assert text.endswith("\n")
    records = [json.loads(line) for line in text.splitlines()]  # every line parses
    assert records[0] == {"version": 1} and len(records) == 1 + 126
    reloaded = cli.ScanCache(cache)
    reloaded.close()
    assert reloaded.entries == opened[-1].entries
    assert {tuple(rec["vector"]): rec["tau"] for rec in records[1:]} == {
        tuple(rec["vector"]): rec["tau"] for rec in lines
    }

    # an invariant violation mid-scan still closes the handle
    poisoned = records[:]
    poisoned[1] = dict(poisoned[1], tau=poisoned[1]["tau"] + 8)
    cache.write_text("".join(json.dumps(rec) + "\n" for rec in poisoned))
    code, _, _ = run_cli(
        capsys, "scan", "--n", "4", "--amax", "6", "--cache", str(cache), "--paranoid"
    )
    assert code == 3
    assert opened[-1]._fh.closed


def test_scan_paranoid_detects_poisoned_cache(capsys, tmp_path):
    # a poisoned tau, and poisoned counts whose tau is still right
    for case, poison in enumerate([{"tau": 8}, {"plus": 8, "minus": 8}]):
        cache = tmp_path / f"scan{case}.cache"
        run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
        lines = cache.read_text().splitlines()
        rec = json.loads(lines[1])
        for field, delta in poison.items():
            rec[field] += delta  # poison one cached signature
        lines[1] = json.dumps(rec)
        cache.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache), "--paranoid"
        )
        assert code == 3, poison
        assert "invariant" in err
        assert err.count("SignatureResult(") == 2 and "cached" in err and "recomputed" in err


def test_scan_refuses_corrupt_cache(capsys, tmp_path):
    cache = tmp_path / "scan.cache"
    cache.write_text('{"version": 1}\nnot json at all\n')
    code, _, err = run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    assert code == 1
    assert "line 2" in err


def test_scan_refuses_cache_with_undecodable_bytes(capsys, tmp_path):
    cache = tmp_path / "scan.cache"
    cache.write_bytes(b'{"version": 1}\n\xff\xfe garbage\n')
    code, _, err = run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    assert code == 1
    assert "line 2" in err


def test_scan_refuses_cache_of_another_version(capsys, tmp_path):
    # its records would never be read, and the scan would append to it forever
    cache = tmp_path / "scan.cache"
    cache.write_text('{"version": 0}\n')
    for _ in range(2):
        code, lines, err = run_cli(
            capsys, "scan", "--n", "4", "--amax", "5", "--cache", str(cache)
        )
        assert code == 1 and lines == []
        assert "version 0" in err and "version 1" in err
    assert cache.read_text() == '{"version": 0}\n'


@pytest.mark.parametrize("field", ["plus", "minus", "boundary", "tau", "method"])
def test_scan_refuses_cached_record_missing_a_field(capsys, tmp_path, field):
    cache = tmp_path / "scan.cache"
    run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    rec = json.loads(lines[1])
    del rec[field]
    lines[1] = json.dumps(rec)
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    assert code == 1 and out == []
    assert "line 2" in err and "corrupt" in err

    # on an unterminated last line the same record is a torn write: recomputed
    cache.write_text("\n".join(lines[:1] + lines[2:] + lines[1:2]))
    code, out, err = run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    assert code == 0 and len(out) == len(lines) - 1
    assert "torn" in err
    reloaded = cli.ScanCache(cache)  # the recomputed record is whole
    reloaded.close()
    assert len(reloaded.entries) == len(lines) - 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("vector", "x"),
        ("vector", [2, 2, 2, 2, "2"]),
        ("vector", [2, 2, 2, 2, 2.0]),
        ("tau", "x"),
        ("tau", True),
        ("plus", 1.5),
        ("minus", None),
        ("boundary", [0]),
        ("method", 3),
    ],
)
def test_scan_refuses_cached_record_with_a_field_of_the_wrong_type(capsys, tmp_path, field, value):
    cache = tmp_path / "scan.cache"
    run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    rec = json.loads(lines[1])
    rec[field] = value
    lines[1] = json.dumps(rec)
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    assert code == 1 and out == []
    assert "line 2" in err and "corrupt" in err

    # on an unterminated last line the same record is a torn write: recomputed
    cache.write_text("\n".join(lines[:1] + lines[2:] + lines[1:2]))
    code, out, err = run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    assert code == 0 and len(out) == len(lines) - 1
    assert "torn" in err
    reloaded = cli.ScanCache(cache)  # the recomputed record is whole
    reloaded.close()
    assert len(reloaded.entries) == len(lines) - 1


def test_scan_refuses_unusable_cache_path(capsys, tmp_path):
    for cache in (tmp_path / "missing" / "scan.cache", tmp_path):
        code, lines, err = run_cli(
            capsys, "scan", "--n", "4", "--amax", "5", "--cache", str(cache)
        )
        assert code == 1 and lines == []
        assert len(err.splitlines()) == 1 and str(cache) in err
    assert not (tmp_path / "missing").exists()


def test_scan_refuses_missing_header(capsys, tmp_path):
    cache = tmp_path / "scan.cache"
    cache.write_text('{"no_version": true}\n')
    code, _, err = run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    assert code == 1


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # missing exponents
    assert exc.value.code == 2

    code, _, err = run_cli(capsys, "classify", "2", "2", "2")  # too few exponents
    assert code == 2
    assert "error" in err


def _bplinks_process(*argv, stdout):
    env = {**os.environ, "PYTHONPATH": str(Path(bplinks.__file__).resolve().parents[1])}
    return subprocess.Popen(
        [sys.executable, "-m", "bplinks", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_a_reader_that_stops_early_ends_the_scan_quietly(tmp_path):
    # scan | head -1: ~0.5 MB of lines, far more than the pipe holds, so the
    # scan is still writing when its reader goes away
    cache = tmp_path / "scan.cache"
    proc = _bplinks_process(
        "scan", "--n", "4", "--amax", "9", "--cache", str(cache), stdout=subprocess.PIPE
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert (proc.wait(timeout=60), err) == (1, "")
    assert json.loads(first)["vector"] == [2, 2, 2, 2, 2]
    data = cache.read_bytes()  # closed with whole lines, short of the whole scan
    lines = data.decode().splitlines()
    assert data.endswith(b"\n") and 1 < len(lines) < 793
    assert all(json.loads(line) for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "2", "2", "2", "3", "5"],
        ["tau", "2", "2", "2", "3", "5"],
        ["qpfit", "--m", "2", "--k", "1", "--l", "3", "--samples", "7", "--verify", "0"],
        ["family", "standard", "--m", "2", "--k", "2"],
        ["bp-order", "--m", "3"],
        ["moduli", "--n", "6", "--p", "8", "--l", "3"],
        ["euler", "--n", "6", "--p", "8", "--l", "3"],
        ["scan", "--n", "3", "--amax", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_exits_1_with_no_traceback_on_a_closed_stdout(argv):
    read, write = os.pipe()
    os.close(read)  # no reader: the first write to stdout fails
    try:
        proc = _bplinks_process(*argv, stdout=write)
    finally:
        os.close(write)
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err and "Error" not in err


def test_classify_of_a_long_vector_with_few_components_is_quick(capsys):
    # the gcd graph joins each run of equal entries once: the twenty
    # thousand 3s are one join, then 5 and 7 are tested against its lcm
    start = time.perf_counter()
    code, lines, _ = run_cli(capsys, "classify", *["3"] * 20000, "5", "7")
    assert time.perf_counter() - start < 2
    assert code == 0 and lines[0]["homotopy_sphere"] is True
    assert lines[0]["graph"]["isolated"] == [5, 7]
    assert [len(c) for c in lines[0]["graph"]["components"]] == [20000, 1, 1]


def test_classify_of_a_record_too_long_to_print_is_refused(capsys):
    # 2p over the first 3 000 odd primes, plus (3, 5): a well-formed vector
    # whose lcm d has ~11 800 digits, past the interpreter's default limit
    # on integer string conversion
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    primes = [p for p in range(3, 28000) if is_prime(p)][:3000]
    code, lines, err = run_cli(capsys, "classify", *(str(2 * p) for p in primes), "3", "5")
    assert code == 1 and lines == []
    assert "decimal digits in one integer" in err and f"(budget {limit})" in err


def test_tau_of_a_record_too_long_to_print_is_refused(capsys):
    # (2, 2, A, B, C) with A, B, C = 10^1600 + 1, + 3, + 7 pairwise coprime:
    # the closed form is quick, but the signature's counts have ~4 800
    # digits, past the interpreter's default limit on integer string
    # conversion, while every entry stays printable
    limit = sys.get_int_max_str_digits()
    if not limit or limit < 1700:
        pytest.skip("needs a limit on integer string conversion above 1 700 digits")
    big = [str(10**1600 + k) for k in (1, 3, 7)]
    code, lines, err = run_cli(capsys, "tau", "2", "2", *big)
    assert code == 1 and lines == []
    assert "decimal digits in one integer" in err and f"(budget {limit})" in err


def test_family_of_a_record_too_long_to_print_is_refused(capsys):
    # q = 10^1500 puts integers of ~4 500 digits in the exotic member's record
    limit = sys.get_int_max_str_digits()
    if not limit or limit > 4400:
        pytest.skip("needs a limit on integer string conversion below 4 400 digits")
    code, lines, err = run_cli(
        capsys, "family", "exotic", "--m", "2", "--k", "1", "--l", "3", "--q", str(10**1500)
    )
    assert code == 1 and lines == []
    assert "decimal digits in one integer" in err and f"(budget {limit})" in err


def test_euler_of_a_record_too_long_to_print_is_refused(capsys):
    # p = 10^1500 puts fractions of ~6 000 digits in the mean Euler record
    limit = sys.get_int_max_str_digits()
    if not limit or limit > 5900:
        pytest.skip("needs a limit on integer string conversion below 5 900 digits")
    code, lines, err = run_cli(capsys, "euler", "--n", "6", "--p", str(10**1500), "--l", "3")
    assert code == 1 and lines == []
    assert "decimal digits in one integer" in err and f"(budget {limit})" in err


# bp-order, moduli and qpfit: the real record with one integer made too long to print
@pytest.mark.parametrize(
    "target, fake, argv",
    [
        ("bp_order", lambda m, big: arith.BPOrder(m, big), ["bp-order", "--m", "3"]),
        (
            "moduli_dimension",
            lambda n, p, l, big: replace(moduli.moduli_dimension(n, p, l), h0_d=big),
            ["moduli", "--n", "6", "--p", "8", "--l", "3"],
        ),
        (
            "fit_exotic_tau",
            lambda big, **kw: replace(families.fit_exotic_tau(**kw), degree_used=big),
            ["qpfit", "--m", "2", "--k", "1", "--l", "3", "--samples", "7", "--verify", "0"],
        ),
    ],
    ids=["bp-order", "moduli", "qpfit"],
)
def test_a_printed_integer_too_long_is_refused(capsys, monkeypatch, target, fake, argv):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    monkeypatch.setattr(cli, target, partial(fake, big=10**limit))
    code, lines, err = run_cli(capsys, *argv)
    assert (code, lines) == (1, [])
    assert "decimal digits in one integer" in err and f"(budget {limit})" in err


# a ValueError raised while a line is built that is not an integer too long
# to print is no refusal: it reaches main as a usage error with its message
@pytest.mark.parametrize(
    "module, name, argv",
    [
        (report, "to_jsonable", ["classify", "2", "2", "2", "3", "5"]),
        (report, "_ratio", ["scan", "--n", "3", "--amax", "3"]),
        (cli, "to_jsonable", ["family", "standard", "--m", "2", "--k", "2"]),
        (cli, "to_jsonable", ["euler", "--n", "6", "--p", "8", "--l", "3"]),
    ],
    ids=["classify", "scan", "family", "euler"],
)
def test_a_value_error_while_printing_is_not_a_refusal(capsys, monkeypatch, module, name, argv):
    def fail(*args):
        raise ValueError("not a digit fault")

    monkeypatch.setattr(module, name, fail)
    code, lines, err = run_cli(capsys, *argv)
    assert (code, lines) == (2, [])
    assert "error: not a digit fault" in err and "refused" not in err


def test_refusal_exits_1(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "family", "odd", "--m", "2", "--pn", "7")
    assert code == 1
    assert "refused" in err

    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "5")
    code, _, err = run_cli(capsys, "tau", "--method", "brute", "2", "2", "2", "3", "5")
    assert code == 1
    assert "budget" in err


def test_kernel_budget_refusal_exits_1(capsys, monkeypatch):
    # outer (2, 2, 2) of (2, 2, 2, 3, 9) costs the kernel 4 residue steps
    # ((2, 2, 2, 3, 5) takes the budget-free closed form: 2, 3, 5 are coprime)
    for cmd in ("tau", "classify"):
        monkeypatch.setenv("BPLINKS_TAU_BUDGET", "3")
        code, lines, err = run_cli(capsys, cmd, "2", "2", "2", "3", "9")
        assert code == 1 and lines == []
        assert "(budget 3); raise BPLINKS_TAU_BUDGET\n" in err
        monkeypatch.setenv("BPLINKS_TAU_BUDGET", "4")
        code, lines, _ = run_cli(capsys, cmd, "2", "2", "2", "3", "9")
        assert code == 0 and lines[0]["tau"] == 12

    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "tau", *"3 5 7 11 13 17 19 23 29 31 37".split())
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "~2081992858 " in err and "(budget 100000000)" in err


def test_negative_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "-1")
    for cmd in ("tau", "classify"):
        code, lines, err = run_cli(capsys, cmd, "2", "3", "5", "7", "11")
        assert code == 2 and lines == []
        assert err == "error: BPLINKS_TAU_BUDGET must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        "classify --budget 5 2 2 2 3 9",
        "classify --method brute 2 2 2 3 9",
        "tau --budget 5 2 2 2 3 9",
    ],
)
def test_removed_budget_and_method_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_non_integer_budget_variable_is_named(capsys, monkeypatch):
    # the closed-form vector takes no DP steps; its bP order reads the budget
    # while the Bernoulli table is extended, as in a fresh process
    monkeypatch.setattr(arith, "_bernoulli", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "abc")
    code, lines, err = run_cli(capsys, "classify", "2", "2", "338", "339", "341")
    assert code == 2 and lines == []
    assert err == "error: BPLINKS_TAU_BUDGET must be an integer, got 'abc'\n"


def test_closed_form_tau_ignores_budget(capsys, monkeypatch):
    # the budget also bounds the gcd graph (6 tests) and, from a fresh table,
    # the Bernoulli numbers up to B_4 (20 term steps); the residue DP of the
    # same vector would take 676 steps
    monkeypatch.setattr(arith, "_bernoulli", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setenv("BPLINKS_TAU_BUDGET", "20")
    code, lines, _ = run_cli(capsys, "tau", "2", "2", "338", "339", "341")
    assert code == 0 and lines[0]["tau"] == 13023816
    assert lines[0]["boundary_skipped"] == 0
    with pytest.raises(errors.RefusalError, match=r"~676 .*\(budget 20\)"):
        lattice._tau_residue_dp((2, 2, 338, 339, 341))


def test_qpfit_rejects_bad_counts(capsys):
    for flag, value in (("--samples", "0"), ("--samples", "-1"), ("--verify", "-2")):
        with pytest.raises(SystemExit) as exc:
            main(["qpfit", "--m", "2", "--k", "1", "--l", "3", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    code, lines, _ = run_cli(
        capsys, "qpfit", "--m", "2", "--k", "1", "--l", "3", "--samples", "7", "--verify", "0"
    )
    assert code == 0 and "verify" not in lines[0]


def test_qpfit_refuses_a_sample_off_the_quasi_polynomial(capsys, monkeypatch):
    # add 8 to tau at p = 44 (q = 7), a surplus sample of the degree-4 fit
    real = families.tau_kernel

    def perturbed(vector, **kw):
        sig = real(vector, **kw)
        return replace(sig, tau=sig.tau + 8) if vector[2] == 44 else sig

    monkeypatch.setattr(families, "tau_kernel", perturbed)
    code, lines, err = run_cli(
        capsys, "qpfit", "--m", "2", "--k", "1", "--l", "3", "--samples", "7", "--verify", "0"
    )
    assert code == 1 and lines == []
    assert "not quasi-polynomial" in err and "x=44" in err


def test_qpfit_counts_a_held_out_mismatch(capsys, monkeypatch):
    # add 8 to tau at p = 50 (q = 8), the first held-out point
    real = families.tau_kernel

    def perturbed(vector, **kw):
        sig = real(vector, **kw)
        return replace(sig, tau=sig.tau + 8) if vector[2] == 50 else sig

    monkeypatch.setattr(families, "tau_kernel", perturbed)
    code, lines, err = run_cli(
        capsys, "qpfit", "--m", "2", "--k", "1", "--l", "3", "--samples", "7", "--verify", "3"
    )
    assert code == 3
    assert [row["match"] for row in lines[0]["verify"]] == [False, True, True]
    assert lines[0]["verify"][0] == {
        "p": 50, "predicted": "45000", "actual": 45008, "match": False
    }
    assert err == "qpfit: 1 verification mismatches\n"


def test_qpfit_refuses_too_few_samples_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kw):
        raise AssertionError("a family member was built or sampled")

    monkeypatch.setattr(families, "gen_exotic", no_work)
    monkeypatch.setattr(families, "tau_kernel", no_work)
    code, lines, err = run_cli(
        capsys, "qpfit", "--m", "3", "--k", "1", "--l", "3", "--samples", "6"
    )
    assert code == 2 and lines == []
    assert "6 samples" in err and "need at least 7" in err


def test_scan_drops_torn_last_cache_line(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "scan.cache"
    code, _, _ = run_cli(capsys, "scan", "--n", "4", "--amax", "6", "--cache", str(cache))
    assert code == 0
    good = cache.read_text().splitlines(keepends=True)
    torn_vector = tuple(json.loads(good[-1])["vector"])
    cache.write_text("".join(good[:-1]) + good[-1][:25])  # killed mid-write

    computed = []
    real_tau = report.tau_kernel

    def recording(vector, *args, **kw):
        computed.append(tuple(vector))
        return real_tau(vector, *args, **kw)

    monkeypatch.setattr(report, "tau_kernel", recording)
    code, lines, err = run_cli(capsys, "scan", "--n", "4", "--amax", "6", "--cache", str(cache))
    assert code == 0 and len(lines) == 126
    assert "torn" in err and "line 127" in err
    assert computed == [torn_vector]
    text = cache.read_text()
    records = [json.loads(line) for line in text.splitlines()]  # every line parses
    assert text.endswith("\n") and len(records) == 1 + 126
    reloaded = cli.ScanCache(cache)
    reloaded.close()
    assert len(reloaded.entries) == 126 and torn_vector in reloaded.entries


def test_scan_cache_completes_a_last_line_missing_its_newline(capsys, tmp_path):
    cache = tmp_path / "scan.cache"
    run_cli(capsys, "scan", "--n", "4", "--amax", "4", "--cache", str(cache))
    text = cache.read_text()
    cache.write_text(text.rstrip("\n"))  # the record is whole, only "\n" is lost
    code, _, err = run_cli(capsys, "scan", "--n", "4", "--amax", "5", "--cache", str(cache))
    assert code == 0 and "torn" not in err
    assert all(json.loads(line) for line in cache.read_text().splitlines())


# SHA-256 of the whole stdout of each CLI example in README, run in order
# in one fresh directory.  Every digest but family odd's was recorded before
# elapsed_s left the records, with that field dropped; family odd raised a
# TypeError until its interval was encoded.  euler's was recorded again when
# the p-stratum's chi_s1 became exact.
README_DIGESTS = {
    "bplinks classify 2 2 2 3 5":
        "aab62debe1af5e8b3fbaf5eab810d293c19b0feab8a703a16cf5b0e1438eac99",
    "bplinks tau --method kernel 2 2 338 339 341":
        "50541c2d6598de4622988fb68e713a1dd3b550b0ece1f3061b1ab546a6afd383",
    "bplinks bp-order --m 3":
        "c032220254cccab1c45f6f95a9870ec2431f6a9853662c422204c71eea3401a8",
    "bplinks qpfit --m 2 --k 1 --l 3 --samples 7 --verify 3":
        "4735f3e2b437a31430134489bb3b2fd7b99eafa9463afdc748d0e1e27f0dc495",
    "bplinks qpfit --m 3 --k 1 --l 3 --samples 10 --verify 3":
        "1861f24afa0855164d993d4b536355a01ab6d3533ba9b06811a70ab55bc409ec",
    "bplinks family odd --m 2 --pn 101":
        "4d9d2014e8233d5eff62ae68729780f6d1f51a095c83a354bc40cc93f25511b2",
    "bplinks family exotic --m 2 --k 1 --l 3 --q 56":
        "4374065547464c02ccce47731975deac10e1ee14c11d3a7f103ff0f5c279075e",
    "bplinks family ref --m 2 --k 1 --sign -1":
        "35af0162c762e5d4dc83f229025bca34a6d52e6f244ffff449b9860d514e1bc5",
    "bplinks moduli --n 6 --p 8 --l 3":
        "e4b6d16a21d9c9db53bbcd5928bff4d49c2dde7e1f6df0c082ca973d24bc7d0e",
    "bplinks euler --n 6 --p 8 --l 3":
        "eb6cd71ae336e4b94a7ee77549aa77b77cb7dbf0be7381509d53d921c6a64d47",
    "bplinks scan --n 4 --amax 6 --filter sphere --cache scan.cache --paranoid":
        "855b8df6620d5f94021c0afdce92d3ff05415caa37a7a06aff9ddbd0a1818c32",
}


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```sh\n")[1:]
    return [
        line
        for block in blocks
        for line in block.split("```")[0].splitlines()
        if line.startswith("bplinks ")
    ]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BPLINKS_TAU_BUDGET", raising=False)
    examples = _readme_examples()
    assert examples == list(README_DIGESTS)
    for line in examples:
        code = main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        assert all(json.loads(rec) for rec in out.splitlines()), line
        assert hashlib.sha256(out.encode()).hexdigest() == README_DIGESTS[line], line


def test_readme_cli_options_are_parser_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for p in (parser, *sub.choices.values())
        for action in p._actions
        for opt in action.option_strings
    }
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n")[1].split("\n## ")[0]
    tokens = set(re.findall(r"--[a-z][a-z-]*", section))
    assert "--method" in tokens and tokens - options == set()


def test_family_odd_without_pn_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "odd", "--m", "2"])
    assert exc.value.code == 2
    assert "error: family odd requires --pn" in capsys.readouterr().err
