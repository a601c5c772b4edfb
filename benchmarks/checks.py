"""Output checks made apart from the solver.

Nothing here imports divbound. Each check takes plain values (numbers, element
tuples, record fields) and returns a list of problems, empty when the check
passes, so a caller can report every problem of a run at once.

The block check enumerates every admissible subset of a block under the
family's condition written out below, and never consults the solver, the
pattern matcher or the brute-force oracle of the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Known limits of the density, as exact rationals. The largest subset of
# {1..n} with no k-chain a1 | a2 | ... | ak is (n / 2**(k-1), n]: split {1..n}
# into the chains m * 2**j with m odd, each of which meets that interval in at
# most k - 1 elements, and the interval itself has no k-chain.
DENSITY_LIMITS = {"chain:2": Fraction(1, 2), "chain:3": Fraction(3, 4)}

# Lebensold's bounds on the two-fork density c2. A two-fork density bracket
# must meet this interval.
LEBENSOLD = (0.6725, 0.6736)

# W is a compensated sum of a few hundred positive rounded terms; its error
# was under one unit in the last place at every budget of the workloads.
W_ULPS = 4


def _step_chain2(chosen: int, aux: int, below: int, bit: int) -> int | None:
    """No a | b: x may join only if no chosen element divides it."""
    return None if chosen & below else aux


def _step_chain3(chosen: int, aux: int, below: int, bit: int) -> int | None:
    """No a | b | c: aux holds the chosen elements that have a chosen divisor."""
    if aux & below:
        return None
    return aux | bit if chosen & below else aux


def _step_two_fork(chosen: int, aux: int, below: int, bit: int) -> int | None:
    """No element divides two others: aux holds the chosen elements that
    already divide a chosen element."""
    if aux & below:
        return None
    return aux | (chosen & below)


# Elements are added in increasing order, so a new element x is the largest
# chosen one: every chosen element comparable to x divides x, and a forbidden
# structure through x has x on top. Each step function sees the chosen set,
# its own bookkeeping `aux`, the chosen-or-not divisors of x (`below`) and x's
# bit, and returns the new bookkeeping, or None when x may not join.
CONDITIONS = {
    "chain:2": _step_chain2,
    "chain:3": _step_chain3,
    "two-fork": _step_two_fork,
}


def size_histogram(elements: tuple[int, ...], family: str) -> list[int]:
    """Number of admissible subsets of `elements` of each size, by enumeration."""
    step = CONDITIONS[family]
    elems = sorted(elements)
    n = len(elems)
    below = [0] * n
    for j, x in enumerate(elems):
        for k in range(j):
            if x % elems[k] == 0:
                below[j] |= 1 << k
    hist = [0] * (n + 1)

    def walk(j: int, chosen: int, aux: int, size: int) -> None:
        if j == n:
            hist[size] += 1
            return
        walk(j + 1, chosen, aux, size)
        bit = 1 << j
        new_aux = step(chosen, aux, below[j], bit)
        if new_aux is not None:
            walk(j + 1, chosen | bit, new_aux, size + 1)

    walk(0, 0, 0, 0)
    return hist


def block_values(hist: list[int], pressure: Fraction) -> dict:
    """Largest size, count and pressure polynomial value from a size histogram."""
    return {
        "size": max(k for k, c in enumerate(hist) if c),
        "count": sum(hist),
        "partition": sum(c * pressure**k for k, c in enumerate(hist)),
    }


def check_block(record: dict, family: str, pressure: Fraction = Fraction(2)) -> list[str]:
    """Compare one solved block with values enumerated apart from the solver.

    `record` holds `elements`, `root` and the solved fields of each mode that
    ran: `size_full`/`size_deleted`, `count_full`/`count_deleted`, and
    `partition_full`/`partition_deleted` (exact rationals at `pressure`).
    """
    elements = tuple(record["elements"])
    deleted = tuple(v for v in elements if v != record["root"])
    full_v = block_values(size_histogram(elements, family), pressure)
    del_v = block_values(size_histogram(deleted, family), pressure)
    problems = []
    for field in ("size", "count", "partition"):
        for part, expected in (("full", full_v[field]), ("deleted", del_v[field])):
            got = record.get(f"{field}_{part}")
            if got is not None and got != expected:
                problems.append(
                    f"{family} block {elements} root {record['root']}: "
                    f"{field}_{part} is {got}, enumeration gives {expected}"
                )
    return problems


def _primes_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _smooth_up_to(primes: list[int], limit: int) -> list[int]:
    """Every d <= limit whose prime factors all lie in `primes`, by recursion."""
    out = []

    def grow(d: int, start: int) -> None:
        out.append(d)
        for k in range(start, len(primes)):
            if d * primes[k] <= limit:
                grow(d * primes[k], k)

    if limit >= 1:
        grow(1, 0)
    return out


def exact_retained_mass(budget: float, alpha: int = 10) -> Fraction:
    """Exact sum of prod_{p<=i}(1-1/p) / (i(i+1)d) over pairs with d * i**alpha <= budget
    and every prime factor of d at most i."""
    total = Fraction(0)
    i = 1
    while True:
        limit = math.floor(Fraction(budget) / i**alpha)
        if limit < 1:
            return total
        primes = _primes_to(i)
        euler = Fraction(1)
        for p in primes:
            euler *= Fraction(p - 1, p)
        for d in _smooth_up_to(primes, limit):
            total += euler / (i * (i + 1) * d)
        i += 1


def check_mass(W: float, exact: Fraction, ulps: int = W_ULPS) -> list[str]:
    """W must equal the exact retained mass to within a few units in the last place."""
    err = abs(Fraction(W) - exact)
    if err > ulps * Fraction(math.ulp(float(exact))):
        return [f"W = {W!r} is off the exact mass {float(exact)!r} by {float(err):.3g}"]
    return []


def check_bracket(b: dict) -> list[str]:
    """0 <= lower <= upper <= M and upper - lower >= M (1 - W)."""
    lower, upper, M, W = b["lower"], b["upper"], b["M"], b["W"]
    problems = []
    if not 0.0 <= lower <= upper <= M:
        problems.append(f"{label(b)}: bracket [{lower!r}, {upper!r}] not inside [0, M={M!r}]")
    if upper - lower < M * (1.0 - W):
        problems.append(f"{label(b)}: width {upper - lower!r} below the tail mass {M * (1.0 - W)!r}")
    return problems


def check_contains(b: dict, value: Fraction) -> list[str]:
    """The bracket must contain an exactly known limit."""
    if Fraction(b["lower"]) <= value <= Fraction(b["upper"]):
        return []
    return [f"{label(b)}: bracket [{b['lower']!r}, {b['upper']!r}] excludes {value}"]


def check_meets(b: dict, interval: tuple[float, float]) -> list[str]:
    """The bracket must not contradict a known enclosure of the limit."""
    lo, hi = interval
    if b["lower"] <= hi and b["upper"] >= lo:
        return []
    return [f"{label(b)}: bracket [{b['lower']!r}, {b['upper']!r}] misses [{lo}, {hi}]"]


def check_nested(brackets: list[dict]) -> list[str]:
    """Along one mode, a larger budget must give a bracket inside the smaller one's."""
    problems = []
    ordered = sorted(brackets, key=lambda b: b["budget"])
    for a, b in zip(ordered, ordered[1:]):
        if b["lower"] < a["lower"] or b["upper"] > a["upper"]:
            problems.append(
                f"{label(b)}: bracket [{b['lower']!r}, {b['upper']!r}] leaves "
                f"[{a['lower']!r}, {a['upper']!r}] at budget {a['budget']:g}"
            )
    return problems


def check_identical(got: dict, want: dict, fields=("S", "W", "lower", "upper")) -> list[str]:
    """Two computations of one bracket must agree bit for bit."""
    diff = [f for f in fields if got[f] != want[f]]
    if diff:
        return [f"{label(got)}: {', '.join(diff)} differ: {got!r} against {want!r}"]
    return []


def label(b: dict) -> str:
    """How a bracket is named in a problem report."""
    return f"{b.get('mode', '?')} at budget {b.get('budget', float('nan')):g}"
