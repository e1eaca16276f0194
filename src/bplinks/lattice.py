"""Exact lattice-point counting: the Milnor-fiber signature by brute
enumeration and by a 2-coordinate kernel, plus the gamma/delta/beta
counters used to certify the quasi-polynomial structure.  The enumeration
(tau_brute, the oracle) meets in the middle: it splits the box into two
halves of about equal point counts, maps each half's points to their
residues mod 2 lcm, and joins the two maps through sorted prefix counts,
so it still counts every box point by its exact residue in memory near
the square root of a balanced box, and shares no code with the kernel.

The kernel runs on integers.  The sorted shape (2, 2, a, b, c) with a, b, c
pairwise coprime has an O(log) closed form: minus is twice the interior
count of the tetrahedron with vertices 0, a e1, b e2, c e3, which Mordell's
formula gives through three Dedekind sums, each evaluated by reciprocity in
integers.  It takes no DP steps, so no budget applies to it.  Every other
vector takes the residue DP, which folds the outer coordinates and counts
each residue's window over the inner box with floor sums.  A window
depends on the offset c = r/L only, and two identities of the inner window
keep the counts few: shifting c by 1 swaps plus and minus, and the inner
flip (x, y) -> (A - x, B - y) gives 1 - c the same counts as c.  So one
count of the offset folded into [0, 1/2], in lowest terms, serves c,
1 - c and both shifted by 1, for every vector with the same inner box
(A, B) whose offsets meet it.  Flipping every outer coordinate
(x -> a - x) pairs residue r with its mirror (m*L - r) mod 2L, which
folds to the same offset; the DP checks that the two have equal outer
counts, so a faulty DP is caught.  Both stages of the DP are pure, so each
is a bounded memo: the window counts keyed by (offset, A, B), and the
outer list of the last outer exponents a[:-2], which a scan keeps while
it visits every inner box (A, B) under one prefix.  Below an edge
Bx + Ay <= N with N <= AB the box's upper bounds cannot bind, so each
edge is one floor sum (_open_box_below), and the same flip covers N > AB.
The same count serves the Fraction front end strip_count_2d, which turns
its rational threshold into an integer one exactly (so there is no
epsilon anywhere) and adds the closed lower edges x = 0 and y = 0 in
closed form.  Points whose coordinate sum is an integer fall on a window
boundary: they are never silently dropped but counted separately (they
cannot occur for homotopy spheres, so a nonzero boundary count flags a
non-sphere input).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Sequence

from .errors import DEFAULT_BUDGET, InvariantViolation, check_budget
from .topology import exponent_vector

__all__ = [
    "DEFAULT_BUDGET",
    "SignatureResult",
    "strip_count_2d",
    "tau_brute",
    "tau_kernel",
    "CountSpec",
    "count_spec",
    "count_box",
    "GammaBreakdown",
    "gamma_triangle",
    "gamma_family_closed",
    "delta_closed",
    "beta_via_gamma",
]

def _strict_floor(q: Fraction) -> int:
    """Largest integer strictly less than q."""
    return (q.numerator - 1) // q.denominator


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


@dataclass(frozen=True)
class SignatureResult:
    tau: int
    plus_count: int
    minus_count: int
    boundary_skipped: int
    method: str  # "brute" or "kernel"


# ---------------------------------------------------------------------------
# 2D kernels: one integer counter, with a Fraction front end


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1, a, b >= 0.

    Euclid-like reduction in O(log m) steps (the floor_sum of the AtCoder
    Library; cf. Rademacher-Grosswald, Dedekind Sums)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def _triangle(A: int, B: int, N: int) -> int:
    """#{x, y >= 0 : Bx + Ay <= N}."""
    if N < 0:
        return 0
    K = N // B  # rows x = K - i hold floor((N % B + B i) / A) + 1 points
    return _floor_sum(K + 1, A, B, N - B * K) + K + 1


def _open_box_below(A: int, B: int, N: int) -> int:
    """#{0 < x < A, 0 < y < B : Bx + Ay <= N} by one floor sum.  For
    N <= AB the upper bounds cannot bind (x >= A alone gives Bx + Ay > AB),
    so the count is the shifted triangle; for N > AB the flip
    (x, y) -> (A - x, B - y) counts the complement, which lies below
    2AB - N - 1 < AB."""
    if N > A * B:
        return (A - 1) * (B - 1) - _triangle(A, B, 2 * A * B - N - 1 - A - B)
    return _triangle(A, B, N - A - B)


def strip_count_2d(A: int, B: int, u, lower_open=(True, True)) -> int:
    """#{(x, y) : x/A + y/B < u} with x < A, y < B and lower bounds open
    (x > 0) or closed (x >= 0) per flag.  O(log): the open box by one
    floor sum (_open_box_below), a closed lower bound adding its edge."""
    if A < 2 or B < 2:
        raise ValueError("strip_count_2d requires A, B >= 2")
    u = Fraction(u)
    N = (u.numerator * A * B - 1) // u.denominator  # x/A + y/B < u  <=>  Bx + Ay <= N
    if N < 0:
        return 0
    x_open, y_open = lower_open
    total = _open_box_below(A, B, N)
    if not x_open:
        total += min(B - 1, N // A)  # the column x = 0, 0 < y < B
    if not y_open:
        total += min(A - 1, N // B)  # the row y = 0, 0 < x < A
    if not (x_open or y_open):
        total += 1  # the origin
    return total


def _count_eq_2d(A: int, B: int, M: int) -> int:
    """#{(x, y) : 0 < x < A, 0 < y < B, Bx + Ay = M}.  With g = gcd(A, B)
    the solutions are one class x = x* mod A/g, found by one modular
    inverse, cut to the x-range where 0 < y < B."""
    g = gcd(A, B)
    if M % g:
        return 0
    a, b = A // g, B // g
    x_star = M // g * pow(b, -1, a) % a
    lo = max(1, -((A * (B - 1) - M) // B))  # y <= B - 1
    hi = min(A - 1, (M - A) // B)  # y >= 1
    if hi < lo:
        return 0
    return (hi - x_star) // a - (lo - 1 - x_star) // a


def _window_counts(r: int, L: int, A: int, B: int):
    """For interior points 0 < x < A, 0 < y < B, classify
    S = r/L + x/A + y/B (0 <= r < L) by its residue window: plus when
    S mod 2 in (0, 1), minus when in (1, 2), boundary when S is an integer.

    S lies in (0, 3), so only the edges k = 1, 2 cut the box; S < k reads
    L(Bx + Ay) < (kL - r)AB, one floor sum each (_open_box_below)."""
    below, on = [], []
    for k in (1, 2):
        T = (k * L - r) * A * B
        below.append(_open_box_below(A, B, (T - 1) // L))
        on.append(_count_eq_2d(A, B, T // L) if T % L == 0 else 0)
    plus = below[0] + (A - 1) * (B - 1) - below[1] - on[1]  # S < 1 or S > 2
    minus = below[1] - below[0] - on[0]
    return plus, minus, on[0] + on[1]


# ---------------------------------------------------------------------------
# Signature


def _half_box_residues(half: tuple, d: int) -> dict:
    """tau_brute's residue map of one half of the box: the number of points
    0 < x_i < a_i (a_i in half) at each residue of sum(x_i * d/a_i) mod 2d.
    The empty half is the one point at residue 0."""
    mod = 2 * d
    counts = {0: 1}
    for ai in half:
        w = d // ai
        nxt: dict[int, int] = {}
        for res, cnt in counts.items():
            for step in range(w, d, w):  # x * w for 0 < x < a_i
                r = (res + step) % mod
                nxt[r] = nxt.get(r, 0) + cnt
        counts = nxt
    return counts


def tau_brute(a: Sequence[int]) -> SignatureResult:
    """Signature by enumeration of the open box 0 < x_i < a_i, met in the
    middle (Horowitz-Sahni).

    Works in integers: with d = lcm(a_i) and w_i = d/a_i, the residue of
    d * sum(x_i/a_i) mod 2d lands in (0, d) for a +1 point, in (d, 2d) for
    a -1 point, and on 0 or d for a boundary point.  The box points are
    checked first against BPLINKS_TAU_BUDGET (default 10^8).

    Split: the sorted vector is cut at the k minimising
    max(prod_{i<k}(a_i - 1), prod_{i>=k}(a_i - 1)), the largest such k, and
    each half's residue map mod 2d is built one coordinate at a time
    (_half_box_residues).  Join: a box point is a left point at residue r
    and a right point at s, at residue (r + s) mod 2d.  With the right
    residues sorted under prefix counts and lo = -r mod 2d, the left points
    at r have as boundary partners the right points at lo and lo + d mod 2d
    (two lookups), as +1 partners those in the open arc (lo, lo + d) and as
    -1 partners those in (lo - d, lo), mod 2d.  One of the two arcs lies
    within [0, 2d], and two bisections count it; the other is the rest of
    the right half.  So it is still an enumeration: every box point is
    counted by its exact residue, grouped with the points that share it,
    with no floor sum, window, memo or symmetry fold, and it shares no code
    with tau_kernel.

    Memory: each map holds at most min(points of its half, 2d) entries, and
    the split keeps the larger half near the square root of the box when no
    one entry dominates; a vector with one huge entry a_i still holds about
    a_i entries in the half that has it.
    """
    a = exponent_vector(a)
    left_points = list(accumulate((ai - 1 for ai in a), mul, initial=1))
    box = left_points[-1]
    check_budget("tau_brute", box, "box points", hint="use tau_kernel instead")
    # the first minimum from the top is the largest minimising k
    k = min(range(len(a), -1, -1), key=lambda k: max(left_points[k], box // left_points[k]))
    d = lcm(*a)
    mod = 2 * d
    left = _half_box_residues(a[:k], d)
    right = _half_box_residues(a[k:], d)
    keys = sorted(right)
    below = [0, *accumulate([right[s] for s in keys])]  # points at keys[:i]
    half = below[-1]
    plus = boundary = 0
    for r, cnt in left.items():
        lo = -r % mod  # the partner at lo sums to 0, the one at lo +- d to d
        on_r = right.get(lo, 0) + right.get((lo + d) % mod, 0)
        if lo <= d:  # the +1 arc (lo, lo + d) lies in [0, 2d]
            plus_r = below[bisect_left(keys, lo + d)] - below[bisect_right(keys, lo)]
        else:  # the -1 arc (lo - d, lo) does
            plus_r = half - on_r - below[bisect_left(keys, lo)] + below[bisect_right(keys, lo - d)]
        plus += cnt * plus_r
        boundary += cnt * on_r
    minus = box - plus - boundary
    return SignatureResult(
        tau=plus - minus,
        plus_count=plus,
        minus_count=minus,
        boundary_skipped=boundary,
        method="brute",
    )


def _dedekind_d(h: int, k: int) -> int:
    """D(h, k) = 6k * s(h, k), an integer, for coprime h >= 0, k >= 1, where
    s(h, k) = sum_{i=1}^{k-1} ((i/k)) ((hi/k)) is the Dedekind sum.

    Reciprocity 2h D(h, k) + 2k D(k, h) = h^2 + k^2 + 1 - 3hk, with
    D(h, k) = D(h mod k, k) and D(0, 1) = 0, descends like Euclid's
    algorithm and climbs back up by exact integer division."""
    steps = []
    h %= k
    while h:
        steps.append((h, k))
        h, k = k % h, h
    d = 0  # D(0, 1)
    for h, k in reversed(steps):
        num = h * h + k * k + 1 - 3 * h * k - 2 * k * d
        d, rem = divmod(num, 2 * h)
        if rem:
            raise InvariantViolation(f"Dedekind reciprocity left remainder {rem} at ({h}, {k})")
    return d


def _tetrahedron_interior(a: int, b: int, c: int) -> int:
    """#{x, y, z >= 1 : bc x + ca y + ab z < abc} for pairwise coprime a, b, c:
    the interior points of the tetrahedron with vertices 0, a e1, b e2, c e3.

    Mordell's formula for the tetrahedron's Ehrhart polynomial (Beck-Robins,
    Computing the Continuous Discretely, ch. 8) with Ehrhart-Macdonald
    reciprocity M = -L(-1), multiplied through by 12abc and evaluated in
    integers."""
    bc, ca, ab = b * c, c * a, a * b
    abc = ab * c
    num = (
        2 * abc * abc
        - 3 * abc * (ab + bc + ca + 1)
        + 3 * abc * (a + b + c)
        - 3 * abc
        + ab * ab + bc * bc + ca * ca + 1
        - 2 * bc * _dedekind_d(bc, a)
        - 2 * ca * _dedekind_d(ca, b)
        - 2 * ab * _dedekind_d(ab, c)
    )
    m, rem = divmod(num, 12 * abc)
    if rem:
        raise InvariantViolation(f"Mordell's count for ({a}, {b}, {c}) left remainder {rem}")
    return m


def tau_kernel(a: Sequence[int]) -> SignatureResult:
    """Signature via the 2-coordinate kernel.

    The sorted shape (2, 2, a, b, c) with a, b, c pairwise coprime (the n = 4
    exotic family and the paper's (2, 2, 338, 339, 341)) has a closed form.
    The two 2s add exactly 1, so S = 1 + x/a + y/b + z/c is plus iff
    1 < t = x/a + y/b + z/c < 2; by coprimality t is never an integer, and
    the flip x -> a - x maps t < 1 onto t > 2.  So minus = 2M and
    plus = (a-1)(b-1)(c-1) - 2M, with M the tetrahedron's interior count
    (_tetrahedron_interior: three Dedekind sums, O(log)).  It takes no DP
    steps, so no budget applies and it never refuses.

    Every other vector takes the residue DP (_tau_residue_dp), whose work
    is estimated first and refused past BPLINKS_TAU_BUDGET (default 10^8).
    """
    a = exponent_vector(a)
    A, B, C = a[-3:]
    if len(a) != 5 or a[1] != 2 or gcd(A, B) * gcd(A, C) * gcd(B, C) != 1:
        return _tau_residue_dp(a)
    minus = 2 * _tetrahedron_interior(A, B, C)
    plus = (A - 1) * (B - 1) * (C - 1) - minus
    return SignatureResult(plus - minus, plus, minus, 0, "kernel")


def _tau_residue_dp(a: tuple) -> SignatureResult:
    """Signature of a validated vector by the residue DP: the two largest
    exponents A, B form the inner box, the outer coordinates are folded.

    With L = lcm(outer), the outer offset is r/L with r = sum x_i L/a_i,
    and only r mod 2L matters.  The DP runs in two stages: _outer_residues
    folds the outer coordinates into one entry per offset num/den in
    [0, 1/2], in lowest terms, by the unit shift and the inner flip, and
    the window loop counts each entry's window over the inner box through
    _window_memo.  Both stages are bounded memos, so the vectors of a scan
    that share their outer exponents share one outer list, and every
    vector shares the window counts of the offsets and inner boxes it
    meets.  The DP work is estimated from the outer exponents and refused
    past BPLINKS_TAU_BUDGET before either memo is read, so a vector refuses
    the same way whatever was computed before it.
    """
    A, B = a[-2], a[-1]
    outer = a[:-2]
    L = lcm(*outer)
    mod = 2 * L
    states, estimate = 1, 0
    for ai in outer:
        estimate += states * (ai - 1)
        states = min(states * (ai - 1), mod)
    estimate += states  # one window count per residue
    check_budget("tau_kernel", estimate, "residue steps")
    plus = minus = boundary = 0
    for num, den, same, other in _outer_residues(outer, L):
        p, mn, b = _window_memo(num, den, A, B)
        plus += same * p + other * mn
        minus += other * p + same * mn
        boundary += (same + other) * b
    return SignatureResult(plus - minus, plus, minus, boundary, "kernel")


@lru_cache(maxsize=1 << 14)
def _window_memo(num: int, den: int, A: int, B: int):
    """_window_counts(num, den, A, B), memoised.  It calls _window_counts
    through the module global, so whatever wraps or replaces that name
    sees the misses only."""
    return _window_counts(num, den, A, B)


@lru_cache(maxsize=1)
def _outer_residues(outer: tuple, L: int) -> tuple:
    """The outer stage of the residue DP for the outer exponents outer,
    whose lcm is L: one (num, den, same, other) per offset num/den in
    [0, 1/2], in lowest terms, such that a vector's plus count is the sum
    of same * p + other * m, its minus count that of other * p + same * m,
    and its boundary count that of (same + other) * b, over the window
    counts (p, m, b) = _window_counts(num, den, A, B) of its inner box.

    The DP counts the outer points per residue r mod 2L, at offset
    c = r/L.  Two identities of the inner window fold every offset into
    [0, 1/2]: the unit shift gives window(c + 1) = window(c) with plus
    and minus swapped, and the inner flip (x, y) -> (A - x, B - y) gives
    window(1 - c) = window(c).  So r counts as same or other of the offset
    rho = r mod L, or of L - rho when 2 rho > L, as r < L or r >= L.
    Flipping every outer coordinate sends r to its mirror (m*L - r) mod 2L
    (m = len(outer)) with the same outer count, which is checked on every
    residue, once per list built; a mirror pair folds to one offset, so
    each pair is visited through its lesser residue.
    """
    mod = 2 * L
    counts = {0: 1}
    for ai in outer:  # ascending order keeps intermediate residue maps small
        w = L // ai
        nxt: dict[int, int] = {}
        for res, cnt in counts.items():
            for x in range(1, ai):
                r = (res + x * w) % mod
                nxt[r] = nxt.get(r, 0) + cnt
        counts = nxt
    entries: dict[int, list] = {}  # offset in [0, L/2] -> [same, other]
    shift = len(outer) * L
    for r, mult in counts.items():
        mirror = (shift - r) % mod
        if counts.get(mirror) != mult:
            raise InvariantViolation(
                f"residues {r} and {mirror} of the outer exponents {outer} have {mult} "
                f"and {counts.get(mirror)} outer points; the flip x -> a - x pairs them"
            )
        if mirror < r:
            continue  # counted with its mirror
        rho = r - L if r >= L else r
        entry = entries.setdefault(L - rho if 2 * rho > L else rho, [0, 0])
        entry[r >= L] += mult
        if mirror != r:
            entry[mirror >= L] += mult
    out = []
    for r, (same, other) in entries.items():
        g = gcd(r, L)
        out.append((r // g, L // g, same, other))
    return tuple(out)


# ---------------------------------------------------------------------------
# Generic box/simplex counting


@dataclass(frozen=True)
class CountSpec:
    """A finite rational-simplex/box counting problem:

        #{x in Z^k : lower bounds per lower_open, x_i < denoms[i] where
          upper_bounded, and sum x_i/denoms[i] < (or <=) threshold}.
    """

    denoms: tuple
    threshold: Fraction
    strict_upper: bool
    lower_open: tuple
    upper_bounded: tuple

    def __post_init__(self):
        k = len(self.denoms)
        if k < 2:
            raise ValueError("CountSpec needs at least 2 coordinates")
        if any(d < 1 for d in self.denoms):
            raise ValueError("denominators must be positive")
        if len(self.lower_open) != k or len(self.upper_bounded) != k:
            raise ValueError("per-coordinate flag lengths must match denoms")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")


def count_spec(denoms, threshold, strict_upper=False, lower_open=False, upper_bounded=False):
    """Build a CountSpec, broadcasting scalar flags across coordinates."""
    denoms = tuple(int(d) for d in denoms)
    k = len(denoms)

    def broadcast(v):
        if isinstance(v, bool):
            return (v,) * k
        return tuple(bool(x) for x in v)

    return CountSpec(
        denoms=denoms,
        threshold=Fraction(threshold),
        strict_upper=bool(strict_upper),
        lower_open=broadcast(lower_open),
        upper_bounded=broadcast(upper_bounded),
    )


def _coord_range_size(spec: CountSpec, i: int) -> int:
    lo = 1 if spec.lower_open[i] else 0
    q = spec.threshold * spec.denoms[i]
    hi = _strict_floor(q) if spec.strict_upper else _floor(q)
    if spec.upper_bounded[i]:
        hi = min(spec.denoms[i] - 1, hi)
    return max(0, hi - lo + 1)


def count_box(spec: CountSpec) -> int:
    """Exact count for a CountSpec by visiting every point: the independent
    oracle for delta_closed and beta_via_gamma.  It enumerates in integers
    over one denominator: with threshold N/M and D = lcm(denoms), x_i/den_i
    is x_i (D/den_i) M over D M, so each coordinate step spends the integer
    x_i (D/den_i) M of a budget that starts at N D, and no Fraction is
    built per point; the threshold stays a Fraction in the CountSpec.  The
    points are estimated first (the product of the coordinate ranges) and
    refused past BPLINKS_TAU_BUDGET (default 10^8)."""
    estimate = prod(_coord_range_size(spec, i) for i in range(len(spec.denoms)))
    check_budget("count_box", estimate, "points")
    k = len(spec.denoms)
    D = lcm(*spec.denoms)
    steps = [D // den * spec.threshold.denominator for den in spec.denoms]
    total = 0

    # strictness is checked once at the leaf on the full remaining budget
    def rec(i: int, rem: int):
        nonlocal total
        if i == k:
            if rem > 0 or not spec.strict_upper:
                total += 1
            return
        den, step = spec.denoms[i], steps[i]
        x = 1 if spec.lower_open[i] else 0
        while not (spec.upper_bounded[i] and x >= den):
            f = x * step
            if f > rem:
                break
            rec(i + 1, rem - f)
            x += 1

    rec(0, spec.threshold.numerator * D)
    return total


# ---------------------------------------------------------------------------
# Closed-form counters for the infinite families


@dataclass(frozen=True)
class GammaBreakdown:
    """Evaluation record for the triangle count
    gamma_j = #{(x, y) >= 0 : x/(p+1) + y/(p+l) <= j/p}."""

    p: int
    l: int
    j: int
    R: int
    first_term: int
    strip_term: int
    min_sum: int

    @property
    def total(self) -> int:
        return self.first_term + self.strip_term + self.min_sum


def gamma_triangle(p: int, l: int, j: int) -> GammaBreakdown:
    """Closed-form triangle count via the floor-sum decomposition

        1/2 (j - floor(R/l)) (j + floor(R/l) + 1) + (j+1)(R+1)
        + sum_{r=0}^{R} min(floor(R/l), floor((j - (p+1) r + R) / (l-1)))

    with R = floor(l j / p).  Requires l >= 2.
    """
    if p < 1 or j < 0:
        raise ValueError("gamma_triangle requires p >= 1 and j >= 0")
    if l < 2:
        raise ValueError("gamma_triangle requires l >= 2")
    R = l * j // p
    rl = R // l
    first = (j - rl) * (j + rl + 1) // 2
    strip = (j + 1) * (R + 1)
    min_sum = sum(min(rl, (j - (p + 1) * r + R) // (l - 1)) for r in range(R + 1))
    return GammaBreakdown(p=p, l=l, j=j, R=R, first_term=first, strip_term=strip, min_sum=min_sum)


def gamma_family_closed(s: int, k: int, j: int) -> int:
    """Closed form jk/2 (sjk + 2j - s - 2) for the open strip count with
    p = sk+1, q = sp-1: #{0 < x < p, 0 < y < q, x/p + y/q < j/s}."""
    if s < 3 or s % 2 == 0:
        raise ValueError("s must be odd and >= 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= j <= s:
        raise ValueError("j must satisfy 1 <= j <= s")
    return j * k * (s * j * k + 2 * j - s - 2) // 2


def delta_closed(p: int, l: int, eta: int, n: int) -> int:
    """Count of x in Z_{>=0}^n with sum_{i<n} x_i/p + x_n/(p+l) <= eta,
    evaluated through the quasi-polynomial decomposition

        sum_j F(eta p - j)(j+1) + sum_R R * sum_{j=e_R^-}^{e_R^+} F(eta p - j)
        + F(0) * eta * l

    with F(s) = C(s + n - 2, n - 2), e_R^- = ceil(pR/l),
    e_R^+ = floor((p(R+1) - 1)/l).  The final term collects the j = eta*p
    row where floor(lj/p) = eta*l.
    """
    if p < 1 or l < 0 or eta < 0 or n < 2:
        raise ValueError("delta_closed requires p >= 1, l >= 0, eta >= 0, n >= 2")

    def F(s: int) -> int:
        return comb(s + n - 2, n - 2)

    ep = eta * p
    total = sum(F(ep - j) * (j + 1) for j in range(ep + 1))
    for R in range(eta * l):
        lo = -((-p * R) // l)  # ceil(pR/l)
        hi = (p * (R + 1) - 1) // l
        total += R * sum(F(ep - j) for j in range(lo, hi + 1))
    total += F(0) * eta * l
    return total


def beta_via_gamma(p: int, l: int, eta: int, n: int) -> int:
    """Count of x in Z_{>=0}^{n-1} with
    sum of (n-3) coords / p + x/(p+1) + y/(p+l) <= eta, via
    beta_eta = sum_{j=0}^{eta p} F(eta p - j) gamma_j with
    F(s) = C(s + n - 4, n - 4)."""
    if n < 4:
        raise ValueError("beta_via_gamma requires n >= 4")
    if not 0 <= eta <= n - 1:
        raise ValueError("eta must satisfy 0 <= eta <= n - 1")
    if l < 2 or p < 1:
        raise ValueError("beta_via_gamma requires p >= 1 and l >= 2")

    def F(s: int) -> int:
        return comb(s + n - 4, n - 4)

    ep = eta * p
    return sum(F(ep - j) * gamma_triangle(p, l, j).total for j in range(ep + 1))
