"""Record the reference answers of the scan-odd workload.

The sphere and Arf fields come from ``bplinks scan`` at the commit that
records them; ``se_metric`` comes from ``fujita_subset_oracle``, the
exponential subset criterion, which takes about 20 s for all 18564 vectors
and is therefore recorded instead of re-run on every benchmark run.

    python3 perfbench/record_reference.py <commit>

writes ``perfbench/reference/scan_odd.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from itertools import combinations_with_replacement
from pathlib import Path

import workloads

ARGV = ["scan", "--n", "5", "--amax", "14"]
FIELDS = ["homotopy_sphere", "condition", "arf", "bp_group", "kervaire_sphere"]
LINE = 96


def wrap(text: str) -> list[str]:
    return [text[i : i + LINE] for i in range(0, len(text), LINE)]


def main(commit: str) -> None:
    workloads.import_package()
    from bplinks.stability import fujita_subset_oracle

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as tmp:
        out = Path(tmp) / "scan.out"
        _, code = workloads.run_cli(ARGV, out)
        recs = [json.loads(line) for line in out.read_text().splitlines()]
    n, amax = int(ARGV[2]), int(ARGV[4])
    vectors = list(combinations_with_replacement(range(2, amax + 1), n + 1))
    if code != 0 or [tuple(r["vector"]) for r in recs] != vectors:
        raise SystemExit(f"scan failed or printed other vectors (exit {code})")
    letters = {}
    classes = []
    for r in recs:
        key = tuple(r.get(f) for f in FIELDS)
        classes.append(letters.setdefault(key, "abcdefghijklmnopqrstuvwxyz"[len(letters)]))
    se = ["1" if fujita_subset_oracle(v)["polystable"] else "0" for v in vectors]
    ref = {
        "argv": ARGV,
        "recorded_at": commit,
        "count": len(vectors),
        "fields": FIELDS,
        "codes": {c: list(k) for k, c in letters.items()},
        "classes": wrap("".join(classes)),
        "se_oracle": wrap("".join(se)),
    }
    out = workloads.REFERENCE_DIR / "scan_odd.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
