"""Span tracing for the traced run, installed from outside the package.

A span is opened and closed around every call of a traced function.  The
recorder keeps, per span name, the number of calls and the self time: the
span's duration minus the part of it that its child spans cover.  Spans of
one thread nest, so a span's children never overlap and the covered part is
the sum of their durations.

Wrappers are installed on every module binding of a function, not only on
the defining module: the package imports with ``from .x import y``, so
``report``, ``cli`` and ``families`` hold their own references to
``tau_kernel``, ``exponent_vector`` and the rest.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

PACKAGE = "bplinks"

# span name -> (defining module, attribute path).  A span name drops the
# leading underscore of a private function.
TARGETS = {
    "lattice.strip_count_2d": ("lattice", "strip_count_2d"),
    "lattice.count_eq_2d": ("lattice", "_count_eq_2d"),
    "lattice.window_counts": ("lattice", "_window_counts"),
    "lattice.tau_kernel": ("lattice", "tau_kernel"),
    "arith.bounded_compositions": ("arith", "bounded_compositions"),
    "arith.bp_order": ("arith", "bp_order"),
    "topology.exponent_vector": ("topology", "exponent_vector"),
    "topology.build_gcd_graph": ("topology", "build_gcd_graph"),
    "topology.classify_sphere": ("topology", "classify_sphere"),
    "topology.arf_class": ("topology", "arf_class"),
    "topology.diffeo_class_even": ("topology", "diffeo_class_even"),
    "stability.k_stability": ("stability", "k_stability"),
    "stability.contact_obstruction": ("stability", "contact_obstruction"),
    "report.classify_link": ("report", "classify_link"),
    "report.report_to_dict": ("report", "report_to_dict"),
    "cli.emit": ("cli", "_emit"),
    "cli.ScanCache.put": ("cli", "ScanCache.put"),
    "families.gen_exotic": ("families", "gen_exotic"),
    "quasipoly.qp_fit": ("quasipoly", "qp_fit"),
    "quasipoly.qp_verify": ("quasipoly", "qp_verify"),
}


class Recorder:
    """Aggregates nested spans into per-name call counts and self times.

    ``clock`` is injectable so the arithmetic can be checked on a synthetic
    span tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, time covered by children]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][2] += duration


def _wrap(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()

    return traced


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a target, or None when the name no
    longer exists in the package."""
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    if mod is None:
        return None
    owner = mod
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def installed(rec: Recorder, targets=TARGETS):
    """Wrap every binding of every resolvable target for the duration of the
    block; yields the sorted list of targets whose name is missing."""
    patches = []  # (owner, attribute, original)
    missing = []
    modules = _package_modules()
    for name, (module, path) in targets.items():
        found = _resolve(module, path)
        if found is None:
            missing.append(f"{module}.{path}")
            continue
        owner, attr, fn = found
        traced = _wrap(fn, name, rec)
        if isinstance(owner, type):
            patches.append((owner, attr, fn))
            setattr(owner, attr, traced)
            continue
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, binding, fn))
                    setattr(mod, binding, traced)
    try:
        yield sorted(missing)
    finally:
        for owner, attr, fn in reversed(patches):
            setattr(owner, attr, fn)
