"""Brute-force ground truth at small scale, and the telescoping identities that tie
the solver's local increments back to globally enumerated values.

The subset scans here never call the solver's pruned search; they walk every
admissible subset of {1..n} directly over bitmasks with their own incremental
admissibility bookkeeping.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numtheory import rooted_component
from .patterns import (
    REL_DIVISOR,
    REL_EITHER,
    REL_MULTIPLE,
    AdmissibleFamily,
    Pattern,
    placement_plan,
)
from .series import TruncationParams, enumerate_triples, term_weight_exact
from .solver import COUNTING, DENSITY, Mode, ResourceLimitError, local_increment, solve_block

EXHAUSTIVE_CAP = 24


def _divisibility_masks(n: int) -> tuple[list[int], list[int], list[int]]:
    """Per element e in 1..n: bitmasks of its proper multiples, proper divisors, both.

    Element e is encoded as bit e-1.
    """
    mult = [0] * (n + 1)
    div = [0] * (n + 1)
    for e in range(1, n + 1):
        for m in range(2 * e, n + 1, e):
            mult[e] |= 1 << (m - 1)
            div[m] |= 1 << (e - 1)
    both = [0] + [mult[e] | div[e] for e in range(1, n + 1)]
    return mult, div, both


class _MaskMatcher:
    """Detects pattern copies through a new element inside a bitmask-encoded set."""

    def __init__(self, pattern: Pattern, masks: tuple[list[int], list[int], list[int]]):
        self.plans = [placement_plan(pattern, anchor) for anchor in range(pattern.vertex_count)]
        self.mult, self.div, self.both = masks

    def _rel_mask(self, rel: int, element: int) -> int:
        if rel == REL_MULTIPLE:
            return self.mult[element]
        if rel == REL_DIVISOR:
            return self.div[element]
        return self.both[element]

    def _extend(self, plan, step_idx: int, images: list[int], pool: int, used: int) -> bool:
        if step_idx == len(plan):
            return True
        cand = pool & ~used
        for slot, rel in plan[step_idx]:
            cand &= self._rel_mask(rel, images[slot])
        while cand:
            bit = cand & -cand
            cand ^= bit
            images.append(bit.bit_length())
            if self._extend(plan, step_idx + 1, images, pool, used | bit):
                return True
            images.pop()
        return False

    def creates_copy(self, chosen: int, x: int) -> bool:
        for plan in self.plans:
            if self._extend(plan, 0, [x], chosen, 0):
                return True
        return False


class _ForestTracker:
    """Union-find over chosen elements with rollback, for incremental cycle checks."""

    def __init__(self, n: int, both_masks: list[int]):
        self.parent = list(range(n + 1))
        self.size = [1] * (n + 1)
        self.both = both_masks
        self.trail: list[list[tuple[int, int]]] = []

    def _find(self, v: int) -> int:
        while self.parent[v] != v:
            v = self.parent[v]
        return v

    def try_include(self, x: int, chosen: int) -> bool:
        neighbors = self.both[x] & chosen
        roots = []
        m = neighbors
        while m:
            bit = m & -m
            m ^= bit
            r = self._find(bit.bit_length())
            if r in roots:
                return False
            roots.append(r)
        merged = []
        for r in roots:
            ra, rb = self._find(r), self._find(x)
            if self.size[ra] > self.size[rb]:
                ra, rb = rb, ra
            self.parent[ra] = rb
            self.size[rb] += self.size[ra]
            merged.append((ra, rb))
        self.trail.append(merged)
        return True

    def undo(self) -> None:
        for a, b in reversed(self.trail.pop()):
            self.size[b] -= self.size[a]
            self.parent[a] = a


class _IncrementalChecker:
    """Grows and shrinks one admissible set, vetoing additions that break the family."""

    def __init__(self, n: int, family: AdmissibleFamily):
        masks = _divisibility_masks(n)
        self.matchers = [_MaskMatcher(p, masks) for p in family.patterns]
        self.forest = _ForestTracker(n, masks[2]) if family.forbid_cycles else None
        self.chosen = 0

    def try_include(self, x: int) -> bool:
        for matcher in self.matchers:
            if matcher.creates_copy(self.chosen, x):
                return False
        if self.forest is not None and not self.forest.try_include(x, self.chosen):
            return False
        self.chosen |= 1 << (x - 1)
        return True

    def undo(self, x: int) -> None:
        self.chosen &= ~(1 << (x - 1))
        if self.forest is not None:
            self.forest.undo()


def brute_size_counts(n: int, fam: AdmissibleFamily) -> list[int]:
    """Number of admissible subsets of {1..n} of each size, by exhaustive scan."""
    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise ResourceLimitError(f"exhaustive scan is capped at n <= {EXHAUSTIVE_CAP}, got {n}")
    checker = _IncrementalChecker(n, fam)
    hist = [0] * (n + 1)

    def walk(x: int, size: int) -> None:
        if x > n:
            hist[size] += 1
            return
        walk(x + 1, size)
        if checker.try_include(x):
            walk(x + 1, size + 1)
            checker.undo(x)

    walk(1, 0)
    return hist


def brute_count(n: int, fam: AdmissibleFamily) -> int:
    """Exact number of admissible subsets of {1..n} (empty set included)."""
    return sum(brute_size_counts(n, fam))


def brute_max_size(n: int, fam: AdmissibleFamily) -> int:
    """Largest admissible subset size in {1..n}, by exhaustive scan up to n = 24."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n!r}")
    if n > EXHAUSTIVE_CAP:
        raise ResourceLimitError(f"brute-force maximum is capped at n <= {EXHAUSTIVE_CAP}, got {n}")
    checker = _IncrementalChecker(n, fam)
    best = 0

    def walk(x: int, size: int) -> None:
        nonlocal best
        if x > n:
            if size > best:
                best = size
            return
        if size + (n - x + 1) <= best:
            return
        if checker.try_include(x):
            walk(x + 1, size + 1)
            checker.undo(x)
        if size + (n - x) > best:
            walk(x + 1, size)

    walk(1, 0)
    return best


def telescope_check(n: int, fam: AdmissibleFamily) -> dict:
    """Compare summed local increments against exhaustively enumerated totals.

    The increments g(a, n) and h(a, n) come from solve_block on the component of a
    in the divisor graph on [a, n]; their sums must reproduce the brute-force
    maximum size exactly and the log of the brute-force count to within 1e-9.
    """
    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"telescoping check needs 1 <= n <= {EXHAUSTIVE_CAP}, got {n!r}")
    f = brute_max_size(n, fam)
    q = brute_count(n, fam)
    g_seq: list[int] = []
    h_seq: list[float] = []
    failure: dict | None = None
    for a in range(1, n + 1):
        comp = rooted_component(a, n)
        g = local_increment(solve_block(comp, fam, DENSITY), DENSITY)
        h = local_increment(solve_block(comp, fam, COUNTING), COUNTING)
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
        S += w * local_increment(solve_block(rooted_component(d, t), fam, mode), mode)
    return S, W
