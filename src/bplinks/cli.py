"""Command-line surface: JSON-lines output on stdout, diagnostics on
stderr.

Exit codes: 0 success, 1 refusal (budget, missing primes, regime, an
unusable or corrupt cache, a record holding an integer longer than the
interpreter prints) or a reader that closed stdout, 2 usage error,
3 internal invariant violation.  The BPLINKS_TAU_BUDGET environment
variable (default 10^8) is the one budget: it bounds the box points of
tau_brute, the residue-DP steps of tau_kernel, the gcd graph, the
Bernoulli table, moduli and euler.  tau_kernel's closed form for
(2, 2, a, b, c) with a, b, c pairwise coprime takes no DP steps, so the
budget never refuses it.  Every budget refusal prints its estimate and
limit.

scan iterates report._walk, the walk of report.scan_links, which checks
--n >= 3 once (argparse makes a smaller n a usage error before any work)
and yields each sorted vector with the state the walk carries: its text,
its gcd components with their text, P, N, lcm and signature.  It hands the
walk the cache's entries as the known signatures (none under --paranoid,
which recomputes them all); for each vector one block counts a hit or
writes the signature, and exits 3 on a cached signature that differs from
the recomputed one in any field.  Its one stderr line counts the links
matched and the vectors walked and, with --cache, the cache hits and
writes; it holds no timings, so it is as deterministic as stdout.

scan prints each vector through report._line, from the walk's values with
no record object and no dict built.  Every other JSON line, on stdout and
in the scan cache, is built by _json_line, the one caller of the
module-level encoder _encode: classify prints report_to_dict of
classify_link's record, family and euler arith.to_jsonable of theirs, and
the tests encode report_to_dict's records with _encode as _line's oracle.
_encode is json.dumps's encoder without the circular-reference check: each
record is a freshly built tree with no cycles, so the id() markers that
check fills for every container of every record buy nothing.  Separators,
ensure_ascii and allow_nan keep their defaults, so the bytes are
json.dumps's.  _line and _json_line build a whole line under one guard,
which covers the scan cache's records too: a ValueError raised while
building it is a refusal (exit 1) when report._check_digits finds an
integer of the record past the interpreter's limit on integer string
conversion, and otherwise goes on to main (exit 2).

A reader that closes stdout (bplinks scan ... | head -1) ends any command
with exit 1 and no traceback: main catches the BrokenPipeError, flushing
stdout itself so that one raised at the last write is caught too, and
points stdout at /dev/null so the interpreter's final flush cannot fail.
The scan cache's handle is closed on the way out, so it holds whole lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .arith import bp_order, to_jsonable
from .errors import InvariantViolation, RefusalError
from .families import TauFit, brieskorn_reference, fit_exotic_tau, gen_exotic, gen_odd_dim
from .families import gen_standard
from .lattice import SignatureResult, tau_brute, tau_kernel
from .moduli import mean_euler, moduli_dimension
from .report import _check_digits, _line, _walk, classify_link, report_to_dict
from .topology import _gcd_components, _sphere_values, diffeo_class_even

CACHE_VERSION = 1

_encode = json.JSONEncoder(check_circular=False).encode


def _json_line(record, to_dict) -> str:
    """to_dict(record) as one JSON line, built whole before it is written."""
    try:
        return _encode(to_dict(record)) + "\n"
    except ValueError:  # an integer past the interpreter's limit, or a fault
        _check_digits(record)
        raise


def _emit(record, to_dict) -> None:
    sys.stdout.write(_json_line(record, to_dict))


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


class ScanCache:
    """Append-only signature cache: a version header line followed by one
    JSON record per vector.  One append handle stays open until close();
    each record is written as one line and flushed at once, so a reader
    after any put sees only complete lines.  Use it as a context manager."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.entries: dict[tuple, SignatureResult] = {}
        fresh = not self.path.exists()
        try:
            unterminated = not fresh and self._load()
            self._fh = open(self.path, "a")
        except OSError as err:
            raise RefusalError(f"cannot use cache {self.path}: {err.strerror}") from err
        if fresh:
            self._append({"version": CACHE_VERSION})
        elif unterminated:  # a whole last record short of its newline
            self._fh.write("\n")

    def __enter__(self) -> ScanCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def _append(self, rec: dict) -> None:
        self._fh.write(_json_line(rec, dict))
        self._fh.flush()

    def _load(self) -> bool:
        """Read every record.  A header of another version is refused, and
        so is a record that does not parse (an integer longer than the
        interpreter converts included), or lacks a field of the signature or
        holds one of the wrong type (_cached_signature).
        The one exception is a bad last line with no newline: a torn write
        from a killed scan, truncated away.  Returns True when a whole last
        record lacks only its newline."""
        data = self.path.read_bytes()
        lines = data.decode(errors="replace").splitlines()  # bad bytes fail as JSON
        if not lines:
            raise RefusalError(f"cache {self.path} is empty (missing version header)")
        try:
            header = json.loads(lines[0])
            version = header["version"]
        except (ValueError, KeyError, TypeError):  # ValueError: JSONDecodeError too
            raise RefusalError(f"cache {self.path} line 1: bad version header")
        if version != CACHE_VERSION:
            raise RefusalError(
                f"cache {self.path} has version {version!r}; "
                f"this tool reads version {CACHE_VERSION}"
            )
        unterminated = not data.endswith(b"\n")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                self.entries[tuple(rec["vector"])] = _cached_signature(rec)
            except (ValueError, KeyError, TypeError):
                if lineno == len(lines) and unterminated:
                    keep = data.rfind(b"\n") + 1
                    os.truncate(self.path, keep)
                    _diag(
                        f"cache {self.path} line {lineno}: "
                        f"dropped a torn record ({len(data) - keep} bytes)"
                    )
                    return False
                raise RefusalError(f"cache {self.path} line {lineno}: corrupt record")
        return unterminated

    def put(self, vector: tuple, sig: SignatureResult) -> None:
        rec = {
            "vector": list(vector),
            "tau": sig.tau,
            "plus": sig.plus_count,
            "minus": sig.minus_count,
            "boundary": sig.boundary_skipped,
            "method": sig.method,
            "version": CACHE_VERSION,
            "tool": __version__,
        }
        self.entries[vector] = sig
        self._append(rec)


def _cached_signature(rec: dict) -> SignatureResult:
    """The signature of a cache record; a TypeError when a field has the
    wrong type: the vector not a list of ints, a count not an int (a bool is
    not one), the method not a string.  Values are not checked: --paranoid
    recomputes them."""
    vector, counts = rec["vector"], [rec["tau"], rec["plus"], rec["minus"], rec["boundary"]]
    if not (
        type(vector) is list
        and all(type(x) is int for x in vector + counts)
        and type(rec["method"]) is str
    ):
        raise TypeError("a field of the wrong type")
    return SignatureResult(*counts, rec["method"])


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_classify(args) -> int:
    _emit(classify_link(args.exponents), report_to_dict)
    return 0


def _cmd_tau(args) -> int:
    engine = tau_brute if args.method == "brute" else tau_kernel
    sig = engine(args.exponents)  # validates the vector, so a below is valid
    a = tuple(sorted(args.exponents))
    cls = None
    n = len(a) - 1
    # the sphere decision folds the validated a, as classify_link does
    if n % 2 == 0 and _sphere_values(a, _gcd_components(a))[2]:
        cls = diffeo_class_even(n, sig.tau)
    _emit((a, sig, cls), _tau_dict)
    return 0


def _tau_dict(record) -> dict:
    a, sig, cls = record
    out = {
        "vector": list(a),
        "tau": sig.tau,
        "plus": sig.plus_count,
        "minus": sig.minus_count,
        "boundary_skipped": sig.boundary_skipped,
        "method": sig.method,
    }
    if cls is not None:
        out["class"] = f"{cls.class_mod_bp} mod {cls.bp.order}"
    return out


def _cmd_qpfit(args) -> int:
    fit = fit_exotic_tau(
        m=args.m, k=args.k, l=args.l, samples=args.samples, verify=args.verify
    )
    _emit(fit, TauFit.to_json_dict)
    if fit.verify is not None:
        bad = [v for v in fit.verify if v[1] != v[2]]
        if bad:
            _diag(f"qpfit: {len(bad)} verification mismatches")
            return 3
    return 0


def _cmd_family(args) -> int:
    if args.kind == "odd":
        spec = gen_odd_dim(args.m, args.pn)
    elif args.kind == "standard":
        spec = gen_standard(args.m, args.k)
    elif args.kind == "exotic":
        spec = gen_exotic(args.m, args.k, args.l, args.q)
    else:
        spec = brieskorn_reference(args.m, args.k, args.sign)
    _emit(spec, to_jsonable)
    return 0


def _cmd_bp_order(args) -> int:
    _emit(bp_order(args.m), lambda order: {"m": order.m, "order": str(order.order)})
    return 0


def _cmd_moduli(args) -> int:
    dim = moduli_dimension(args.n, args.p, args.l)
    _emit(dim, lambda d: {**to_jsonable(d), "agree": d.agree})
    if not dim.agree:
        _diag("moduli: DP and closed form disagree")
        return 3
    return 0


def _cmd_euler(args) -> int:
    _emit(mean_euler(args.n, args.p, args.l), to_jsonable)
    return 0


def _cmd_scan(args) -> int:
    count = vectors = hits = writes = 0
    write = sys.stdout.write
    # the cache's handle is closed on every exit, so it is complete on return
    with (ScanCache(Path(args.cache)) if args.cache else nullcontext()) as cache:
        known = cache.entries if cache is not None and not args.paranoid else {}
        for a, text, comps, p, num, d, sig in _walk(args.n, args.amax, known):
            vectors += 1
            if cache is not None and sig is not None:
                pre = cache.entries.get(a)
                if pre is None:
                    cache.put(a, sig)
                    writes += 1
                elif pre != sig:  # only under --paranoid, which recomputes
                    raise InvariantViolation(
                        f"cache disagrees with recomputation on {a}: "
                        f"cached {pre} != recomputed {sig}"
                    )
                else:
                    hits += 1
            line = _line(a, text, comps, p, num, d, sig, args.filter)
            if line is not None:
                write(line)
                count += 1
    summary = f"scan: {count} links matched of {vectors} vectors"
    if args.cache:
        summary += f"; cache {hits} hits, {writes} writes"
    _diag(summary)
    return 0


# ---------------------------------------------------------------------------
# Argument types: a bad value is a usage error (exit 2), not a refusal


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = f"integer >= {lo}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bplinks",
        description="Classify Brieskorn-Pham links: homotopy-sphere status, "
        "Sasaki-Einstein existence, and the bP class of the Milnor-fiber "
        "signature.  Output is JSON lines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification of one link")
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("tau", help="Milnor-fiber signature only")
    p.add_argument("exponents", type=int, nargs="+")
    p.add_argument("--method", choices=["brute", "kernel"], default="kernel")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("qpfit", help="fit the signature quasi-polynomial of the exotic family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=7)
    p.add_argument("--verify", type=_int_at_least(0), default=3)
    p.set_defaults(func=_cmd_qpfit)

    p = sub.add_parser("family", help="generate one infinite-family member")
    p.add_argument("kind", choices=["odd", "standard", "exotic", "ref"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--pn", type=int, default=None, help="prime p_n for the odd family")
    p.add_argument("--sign", type=int, choices=[1, -1], default=-1)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("bp-order", help="order of bP_{4m}")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_bp_order)

    p = sub.add_parser("moduli", help="moduli dimension for the exotic family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_moduli)

    p = sub.add_parser("euler", help="mean Euler characteristic table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("scan", help="enumerate and classify sorted vectors")
    p.add_argument("--n", type=_int_at_least(3), required=True)
    p.add_argument("--amax", type=int, required=True)
    p.add_argument("--filter", choices=["all", "sphere", "se-sphere"], default="all")
    p.add_argument("--cache", default=None)
    p.add_argument("--paranoid", action="store_true")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "family" and args.kind == "odd" and args.pn is None:
            parser.error("family odd requires --pn")
        code = args.func(args)
        sys.stdout.flush()  # a reader gone by now fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout: stop, and print nothing more
        # stdout goes to /dev/null, so the interpreter's last flush of what
        # is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except RefusalError as err:
        _diag(f"refused: {err}")
        return err.exit_code
    except InvariantViolation as err:
        _diag(f"invariant violation: {err}")
        return err.exit_code
    except ValueError as err:
        _diag(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
