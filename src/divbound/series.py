"""Truncated series evaluation: enumerate retained (i, d, t) triples, weight the
exact local increments, and emit a certified two-sided bound with a block cache.

The truncation keeps triples with d * i**alpha <= budget_B, P+(d) <= i and
t in [i*d, (i+1)*d). Within one (i, d) pair the rooted component of d in [d, t]
can only change when t arrives at an element of the widest component, so
plan_segments cuts the t-range into constant-component segments whose weight
sums telescope exactly; evaluate and collect_blocks both consume that plan. A
pair's plan depends on (i, d) alone, so each pair is planned once per process and
shared by every family, mode and budget. The per-triple stream is still exposed
for small budgets and testing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .numtheory import (
    CanonicalKey,
    RootedComponent,
    canonical_key,
    primes_up_to,
    rooted_component,
    smooth_numbers,
)
from .solver import BlockRecord, Mode, local_increment, resolve_node_limit, solve_block


def _warn(msg: str, *args: object) -> None:
    """Log a cache-file warning on the divbound.series logger, attributed to the
    caller. logging is imported here, not at module load: only a faulty cache file
    needs it."""
    import logging

    logging.getLogger(__name__).warning(msg, *args, stacklevel=2)


@dataclass(frozen=True)
class TruncationParams:
    alpha: float = 10.0
    budget_B: float = 1e8

    def __post_init__(self) -> None:
        if not 1 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and at least 1, got {self.alpha!r}")
        if not 1 <= self.budget_B < math.inf:
            raise ValueError(f"budget must be finite and at least 1, got {self.budget_B!r}")

    def d_limit(self, i: int) -> int:
        """Largest d with d * i**alpha <= budget_B (0 when no d qualifies)."""
        if i >= 2 and self.alpha * math.log2(i) > math.log2(self.budget_B) + 1:
            # i**alpha exceeds the budget with a margin for log2 rounding; this skips
            # building a power with up to alpha*log2(i) bits
            return 0
        if float(self.alpha).is_integer():
            # exact integer path so boundary cases like d * 2**10 == 1024 are kept
            bound = Fraction(self.budget_B) / i ** int(self.alpha)
            return max(0, math.floor(bound))
        try:
            return max(0, math.floor(self.budget_B / i ** self.alpha))
        except OverflowError:  # i**alpha is above the largest float, so above budget_B
            return 0


@dataclass(frozen=True)
class SeriesEstimate:
    """Certified bracket [lower, upper] for the series value in the given mode."""

    mode: Mode
    S: float
    W: float
    M: float
    lower: float
    upper: float
    blocks: int
    id_pairs: int
    terms: int
    slack: float


@lru_cache(maxsize=None)
def euler_factor_exact(i: int) -> Fraction:
    """Product of (p-1)/p over primes p <= i, as an exact rational."""
    out = Fraction(1)
    for p in primes_up_to(i):
        out *= Fraction(p - 1, p)
    return out


@lru_cache(maxsize=None)
def euler_factor(i: int) -> float:
    return float(euler_factor_exact(i))


def term_weight_exact(i: int, d: int, t: int) -> Fraction:
    """Weight of one (i, d, t) triple: the Euler factor over t(t+1)."""
    assert i * d <= t < (i + 1) * d, (i, d, t)
    return euler_factor_exact(i) / (t * (t + 1))


def block_weight(i: int, d: int) -> float:
    """Total weight of the whole t-range of an (i, d) pair; telescopes to
    1/(i(i+1)d) times the Euler factor."""
    return euler_factor(i) / (i * (i + 1) * d)


def block_weight_exact(i: int, d: int) -> Fraction:
    return euler_factor_exact(i) / (i * (i + 1) * d)


def retained_pairs(params: TruncationParams) -> Iterator[tuple[int, int]]:
    """All (i, d) pairs surviving truncation, i ascending then d ascending."""
    i = 1
    while True:
        limit = params.d_limit(i)
        if limit < 1:
            return
        for d in smooth_numbers(i, limit):
            yield (i, d)
        i += 1


def enumerate_triples(params: TruncationParams) -> Iterator[tuple[int, int, int]]:
    """Every retained (i, d, t) triple in deterministic order.

    Intended for small budgets; evaluate() aggregates whole t-segments instead.
    """
    for i, d in retained_pairs(params):
        yield from ((i, d, t) for t in range(i * d, (i + 1) * d))


class BlockCache:
    """Insert-only map from (family hash, mode, canonical key) to solved records.

    Optionally persisted as append-only TSV lines. Loading reads only a line's two
    value fields; the line is kept under its written text and becomes a record on
    the first lookup whose key `_line_key` formats to that same text, so a line
    that is not in canonical form is never served. Unreadable lines and value pairs
    out of range are skipped with a warning, and I/O failures degrade to
    memory-only operation. Partition-mode records stay in memory (their values are
    not integers).
    """

    _PERSISTED_MODES = ("density", "counting")

    def __init__(self, path: str | None = None):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._records: dict[tuple[str, str, CanonicalKey], BlockRecord] = {}
        # loaded lines not looked up yet: written key text -> value pair
        self._lines: dict[tuple[str, str, str, str], tuple[int, int]] = {}
        if path:
            self._load(path)

    @staticmethod
    def _line_key(family_hash: str, mode_tag: str, key: CanonicalKey) -> tuple[str, str, str, str]:
        """The key fields of the line that persists this record, as written."""
        return family_hash, mode_tag, ",".join(map(str, key.normalized_elements)), str(key.root_value)

    def _load(self, path: str) -> None:
        try:
            # a byte that is not UTF-8 reads as U+FFFD: in a value field the line
            # is unreadable and skipped, in a key field its text is not canonical
            fh = open(path, encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return
        except OSError as exc:
            _warn("cannot read cache file %s (%s); continuing in memory", path, exc)
            self.path = None
            return
        lines = self._lines
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    family_hash, mode_tag, elems_csv, root_s, pf, pd, qf, qd = line.split("\t")
                    if mode_tag == "density":
                        full, deleted = int(pf), int(pd)
                        if not 0 <= deleted <= full <= deleted + 1:
                            raise ValueError("size pair out of range")
                    elif mode_tag == "counting":
                        full, deleted = int(qf), int(qd)
                        if not 1 <= deleted <= full <= 2 * deleted:
                            raise ValueError("count pair out of range")
                    else:
                        raise ValueError(f"unknown mode {mode_tag!r}")
                except ValueError as exc:
                    _warn("skipping unreadable cache line %d in %s (%s)", lineno, path, exc)
                    continue
                lines.setdefault((family_hash, mode_tag, elems_csv, root_s), (full, deleted))

    def _from_line(self, map_key: tuple[str, str, CanonicalKey]) -> BlockRecord | None:
        """Build the record of a loaded line written for exactly this key, if any."""
        pair = self._lines.pop(self._line_key(*map_key), None)
        if pair is None:
            return None
        key = map_key[2]
        if map_key[1] == "density":
            rec = BlockRecord(key=key, size_full=pair[0], size_deleted=pair[1])
        else:
            rec = BlockRecord(key=key, count_full=pair[0], count_deleted=pair[1])
        self._records[map_key] = rec
        return rec

    def _append(self, family_hash: str, mode_tag: str, rec: BlockRecord) -> None:
        if not self.path or mode_tag not in self._PERSISTED_MODES:
            return
        if mode_tag == "density":
            fields = (rec.size_full, rec.size_deleted, "-", "-")
        else:
            fields = ("-", "-", rec.count_full, rec.count_deleted)
        line = "\t".join([*self._line_key(family_hash, mode_tag, rec.key), *map(str, fields)])
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            _warn("cannot append to cache file %s (%s); continuing in memory", self.path, exc)
            self.path = None

    def lookup_or_solve(
        self,
        key: CanonicalKey,
        fam,
        mode: Mode,
        *,
        node_limit: int | None = None,
    ) -> BlockRecord:
        """The record of key, from memory, from a loaded line, or solved and appended.

        The key's elements are taken as a component without re-checking that they
        are divisor-connected: every key that evaluate and collect_blocks meet is
        the canonical_key of a rooted_component, connected by construction, and the
        size polynomial is exact for any element set."""
        map_key = (fam.family_hash, mode.tag, key)
        rec = self._records.get(map_key)
        if rec is None and self._lines:
            rec = self._from_line(map_key)
        if rec is not None:
            self.hits += 1
            return rec
        elements = key.normalized_elements
        component = RootedComponent._connected(elements, elements.index(key.root_value))
        rec = self._records[map_key] = solve_block(component, fam, mode, node_limit=node_limit)
        self.misses += 1
        self._append(fam.family_hash, mode.tag, rec)
        return rec

    def __len__(self) -> int:
        """Records held, whether built or still a loaded line."""
        return len(self._records) + len(self._lines)


def plan_segments(params: TruncationParams) -> Iterator[tuple[int, int, tuple[tuple[int, int, CanonicalKey], ...]]]:
    """Yield (i, d, ((start, end, key), ...)) for every retained pair, in order.

    Each (start, end, key) covers the maximal t-subrange [start, end] of
    [i*d, (i+1)*d - 1] on which the rooted component of d in [d, t] is constant,
    with key its canonical form. A pair's plan depends on (i, d) alone, so each
    pair is planned once per process and shared by every family, mode and budget.
    """
    for i, d in retained_pairs(params):
        yield i, d, _pair_segments(i, d)


@lru_cache(maxsize=None)
def _pair_segments(i: int, d: int) -> tuple[tuple[int, int, CanonicalKey], ...]:
    """The segments of one (i, d) pair, as plan_segments yields them.

    The component C(d, t) is monotone in t and any change at t puts t itself
    inside the new component, so changes can only happen when t reaches an
    element of the widest component C(d, t_hi); the last segment therefore has
    the widest component itself.
    """
    t_lo, t_hi = i * d, (i + 1) * d - 1
    widest = rooted_component(d, t_hi)
    starts = [t_lo] + [v for v in widest.elements if t_lo < v <= t_hi]
    ends = [s - 1 for s in starts[1:]] + [t_hi]
    comps = [rooted_component(d, s) for s in starts[:-1]] + [widest]
    return tuple((s, e, canonical_key(c)) for s, e, c in zip(starts, ends, comps))


def evaluate(
    fam,
    mode: Mode,
    params: TruncationParams,
    cache: BlockCache | None = None,
    *,
    node_limit: int | None = None,
) -> SeriesEstimate:
    """Evaluate the truncated series and return the certified interval.

    The partial sum S is a lower bound for the full series value; the upper bound
    adds M times the unretained coefficient mass plus a float summation allowance.
    Segments come from plan_segments; each pair's contribution is summed over its
    segments, and the sums over pairs of contributions and of weights are
    correctly rounded (math.fsum), so they do not depend on the order of pairs.
    The node limit is resolved before the first lookup, so a malformed
    DIVBOUND_NODE_LIMIT fails even when every block comes from the cache.
    """
    node_limit = resolve_node_limit(node_limit)
    if cache is None:
        cache = BlockCache(None)
    seen: set[CanonicalKey] = set()
    contribs: list[float] = []
    weights: list[float] = []
    magnitude = 0.0
    segments = 0
    terms = 0
    for i, d, segs in plan_segments(params):
        acc = 0.0
        for start, end, key in segs:
            rec = cache.lookup_or_solve(key, fam, mode, node_limit=node_limit)
            seen.add(key)
            inc = local_increment(rec, mode)
            if inc:
                # sum of 1/(t(t+1)) over [start, end], telescoped exactly
                acc += inc * ((end + 1 - start) / (start * (end + 1)))
        contrib = acc * euler_factor(i)
        contribs.append(contrib)
        weights.append(block_weight(i, d))
        # a plain += on purpose: builtin sum compensates from Python 3.12 on, which
        # would move the slack's last bits between interpreter versions
        magnitude += abs(contrib)
        segments += len(segs)
        terms += d

    S = math.fsum(contribs)
    W = math.fsum(weights)
    id_pairs = len(contribs)
    eps = sys.float_info.epsilon
    # allowance for every float add/multiply on the S path, scaled by the magnitude
    slack = eps * (3 * segments + 4 * id_pairs) * max(1.0, magnitude)
    if not 0.0 <= W <= 1.0 + slack:
        raise RuntimeError(f"retained mass {W} outside [0, 1]")
    M = mode.increment_bound
    upper = S + M * max(0.0, 1.0 - W) + slack
    return SeriesEstimate(
        mode=mode,
        S=S,
        W=W,
        M=M,
        lower=S,
        upper=upper,
        blocks=len(seen),
        id_pairs=id_pairs,
        terms=terms,
        slack=slack,
    )


def collect_blocks(
    fam,
    mode: Mode,
    params: TruncationParams,
    cache: BlockCache | None = None,
    *,
    node_limit: int | None = None,
) -> list[tuple[CanonicalKey, float, int | float]]:
    """Per-block aggregate weight and increment, heaviest block first."""
    node_limit = resolve_node_limit(node_limit)
    if cache is None:
        cache = BlockCache(None)
    weights: dict[CanonicalKey, float] = {}
    increments: dict[CanonicalKey, int | float] = {}
    for i, d, segs in plan_segments(params):
        for start, end, key in segs:
            rec = cache.lookup_or_solve(key, fam, mode, node_limit=node_limit)
            mass = euler_factor(i) * ((end + 1 - start) / (start * (end + 1)))
            weights[key] = weights.get(key, 0.0) + mass
            increments.setdefault(key, local_increment(rec, mode))
    ranked = sorted(
        weights,
        key=lambda k: (-weights[k], k.normalized_elements, k.root_value),
    )
    return [(k, weights[k], increments[k]) for k in ranked]
