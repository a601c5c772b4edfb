"""Brute-force ground truth at small scale, and the telescoping identities that tie
the solver's local increments back to globally enumerated values.

The subset scans here never call the solver's pruned search; they walk every
admissible subset of {1..n} over bitmasks, testing each added element with
patterns.Checker. The search shares that matcher, so a scan checks the search's
own branching, pruning, keys, packing and memo; the matcher is tested apart.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numtheory import canonical_key, rooted_component
from .patterns import AdmissibleFamily, Checker
from .series import TruncationParams, enumerate_triples, term_weight_exact
from .solver import COUNTING, DENSITY, Mode, ResourceLimitError, local_increment, solve_block

EXHAUSTIVE_CAP = 24


def _scan_checker(n: int, fam: AdmissibleFamily) -> Checker:
    """The checker for subsets of {1..n}, element e at bit e-1, once n is in range."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n!r}")
    if n > EXHAUSTIVE_CAP:
        raise ResourceLimitError(f"exhaustive scan is capped at n <= {EXHAUSTIVE_CAP}, got {n}")
    return Checker(range(1, n + 1), fam)


def brute_size_counts(n: int, fam: AdmissibleFamily) -> list[int]:
    """Number of admissible subsets of {1..n} of each size, by exhaustive scan."""
    checker = _scan_checker(n, fam)
    hist = [0] * (n + 1)

    def walk(x: int, chosen: int, size: int) -> None:
        if x == n:
            hist[size] += 1
            return
        walk(x + 1, chosen, size)
        if checker.allows(chosen, x):
            walk(x + 1, chosen | 1 << x, size + 1)

    walk(0, 0, 0)
    return hist


def brute_count(n: int, fam: AdmissibleFamily) -> int:
    """Exact number of admissible subsets of {1..n} (empty set included)."""
    return sum(brute_size_counts(n, fam))


def brute_max_size(n: int, fam: AdmissibleFamily) -> int:
    """Largest admissible subset size in {1..n}, by exhaustive scan up to n = 24."""
    checker = _scan_checker(n, fam)
    best = 0

    def walk(x: int, chosen: int, size: int) -> None:
        nonlocal best
        if x == n:
            best = max(best, size)
            return
        if size + (n - x) <= best:
            return
        if checker.allows(chosen, x):
            walk(x + 1, chosen | 1 << x, size + 1)
        if size + (n - x - 1) > best:
            walk(x + 1, chosen, size)

    walk(0, 0, 0)
    return best


def telescope_check(n: int, fam: AdmissibleFamily) -> dict:
    """Compare summed local increments against exhaustively enumerated totals.

    The increments g(a, n) and h(a, n) come from solve_block on the canonical key
    of the component of a in the divisor graph on [a, n], one key per a for both
    modes; their sums must reproduce the brute-force maximum size exactly and the
    log of the brute-force count to within 1e-9.
    """
    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"telescoping check needs 1 <= n <= {EXHAUSTIVE_CAP}, got {n!r}")
    # one scan gives both: q counts every admissible subset, f is the largest size
    hist = brute_size_counts(n, fam)
    f = max(k for k, c in enumerate(hist) if c)
    q = sum(hist)
    g_seq: list[int] = []
    h_seq: list[float] = []
    failure: dict | None = None
    for a in range(1, n + 1):
        key = canonical_key(rooted_component(a, n))
        g = local_increment(solve_block(key, fam, DENSITY), DENSITY)
        h = local_increment(solve_block(key, fam, COUNTING), COUNTING)
        if failure is None and g not in (0, 1):
            failure = {"kind": "g-range", "a": a, "value": g}
        if failure is None and not -1e-12 <= h <= math.log(2) + 1e-12:
            failure = {"kind": "h-range", "a": a, "value": h}
        g_seq.append(g)
        h_seq.append(h)
    g_sum = sum(g_seq)
    h_sum = math.fsum(h_seq)
    log_q = math.log(q)
    if failure is None and g_sum != f:
        failure = {"kind": "g-sum", "a": None, "value": g_sum, "expected": f}
    if failure is None and abs(h_sum - log_q) > 1e-9:
        failure = {"kind": "h-sum", "a": None, "value": h_sum, "expected": log_q}
    report = {
        "n": n,
        "family": fam.name,
        "f": f,
        "q_decimal": str(q),
        "g_sequence": g_seq,
        "h_sequence": h_seq,
        "pass": failure is None,
    }
    if failure is not None:
        report["failure"] = failure
    return report


def exact_reference_series(
    fam: AdmissibleFamily,
    mode: Mode,
    params: TruncationParams,
) -> tuple[Fraction | float, Fraction]:
    """Per-triple reference evaluation of the truncated series, no segment grouping.

    W is always an exact rational. S is exact rational in density mode; in the
    log-based modes each increment is irrational, so S is assembled in floats from
    exact rational weights and exact value ratios (the comparison target stays 1e-9).
    """
    if params.budget_B > 1e4:
        raise ValueError("the exact reference path is limited to budgets <= 1e4")
    W = Fraction(0)
    S = Fraction(0)
    for i, d, t in enumerate_triples(params):
        w = term_weight_exact(i, d, t)
        W += w
        # Fraction * float is float(w) * increment, and a float sum stays a float
        S += w * local_increment(solve_block(canonical_key(rooted_component(d, t)), fam, mode), mode)
    return S, W
