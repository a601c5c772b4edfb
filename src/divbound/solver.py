"""Exact solvers on finite integer sets: the admissible-subset size polynomial P,
and per-component increment records. Mode.value is the one reading of P: the
maximum size is its degree, the count its value at 1 and the partition function
its value at the pressure z. The search memo packs each polynomial into one
integer, and so does each solved block's stored pair; only this module reads that
format, and everything it returns is a tuple of coefficients.

All values are exact integers or rationals: a pressure is held as the Fraction
equal to the number given, a float included. Floats appear only when taking
logarithms of exact ratios.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat, zip_longest
from typing import Iterable

from .numtheory import CanonicalKey
from .patterns import AdmissibleFamily, Checker, validated_elements

DEFAULT_NODE_LIMIT = 10**6
NODE_LIMIT_ENV = "DIVBOUND_NODE_LIMIT"

# component recursions nest three frames per element; default 1000 is too shallow
# for the deepest components seen at large budgets
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


class ResourceLimitError(RuntimeError):
    """Search exceeded its node budget. No answer is returned, never a wrong one."""

    def __init__(self, message: str, key: CanonicalKey | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class Mode:
    """What a block solve must produce: sizes, counts, or pressure-weighted sums."""

    kind: str
    pressure: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("density", "counting", "partition"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.kind == "partition":
            z = self.pressure
            # increment_bound takes log1p(float(pressure)), so it must fit in a float.
            # Checked before Fraction(z), which raises OverflowError on an infinity;
            # True is not the pressure 1
            if z is None or isinstance(z, bool) or not 0 < z <= sys.float_info.max:
                raise ValueError(f"partition mode needs a positive pressure that fits in a float, got {z}")
            # exact for an int or a float too, so every value is a Fraction
            object.__setattr__(self, "pressure", Fraction(z))
        elif self.pressure is not None:
            raise ValueError(f"{self.kind} mode takes no pressure")

    @property
    def tag(self) -> str:
        if self.kind == "partition":
            return f"partition:{self.pressure}"
        return self.kind

    @property
    def increment_bound(self) -> float:
        """Uniform bound M on a single local increment in this mode."""
        if self.kind == "density":
            return 1.0
        if self.kind == "counting":
            return math.log(2.0)
        return math.log1p(float(self.pressure))

    def value(self, P: tuple[int, ...]) -> int | Fraction:
        """This mode's value of a set with size polynomial P: its degree, P(1) or P(z)."""
        if self.kind == "density":
            return len(P) - 1
        if self.kind == "counting":
            return sum(P)
        # Horner's rule in integers: P(p/q) = N / q**m, N = sum of a_k p**k q**(m-k)
        p, q = self.pressure.numerator, self.pressure.denominator
        acc = 0
        qk = 1
        for a in reversed(P):
            acc = acc * p + a * qk
            qk *= q
        return Fraction(acc, qk // q)


DENSITY = Mode("density")
COUNTING = Mode("counting")


def partition_mode(z: Fraction | float | int) -> Mode:
    return Mode("partition", z)


@dataclass(frozen=True)
class BlockRecord:
    """Exactly computed values for one canonical rooted component.

    Only the field pair for the requested mode is filled; sizes and counts are plain
    integers, partition values Fractions.
    """

    key: CanonicalKey
    size_full: int | None = None
    size_deleted: int | None = None
    count_full: int | None = None
    count_deleted: int | None = None
    partition_full: Fraction | None = None
    partition_deleted: Fraction | None = None


def resolve_node_limit() -> int:
    """The search-node budget per block: DIVBOUND_NODE_LIMIT, or the default when it
    is unset or empty; ValueError unless it is a positive integer. Read afresh each
    time, so each search takes the value set when it starts."""
    raw = os.environ.get(NODE_LIMIT_ENV)
    try:
        limit = int(raw) if raw else DEFAULT_NODE_LIMIT
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{NODE_LIMIT_ENV} must be a positive integer, got {raw!r}")
    return limit


_MEMO: dict[str, dict] = {}
# per family: CanonicalKey -> the packed size polynomials of the block's full set
# and of the set without its root, each as _Search.value returns it
_PAIRS: dict[str, dict[CanonicalKey, tuple[int, int]]] = {}


def clear_caches() -> None:
    """Drop the search memo and the blocks' polynomial pairs (cache files are
    untouched).

    The segment plans of series._pair_segments are kept for the process: a plan
    depends only on its (i, d) pair, and all of them take about 0.77 MB at
    budget 1e10 and 5.2 MB at 1e11."""
    _MEMO.clear()
    _PAIRS.clear()


def _width(r: int) -> int:
    """Slot width in bits of a packed size polynomial over r undecided elements: a
    multiple of 32 above r, so every coefficient, at most C(r, k) <= 2**r, fits."""
    return 32 * (r // 32 + 1)


def _slots(P: int, w: int) -> list[bytes]:
    """The w-bit slots of a packed polynomial P, lowest first, as little-endian bytes."""
    size = w // 8
    raw = P.to_bytes(-(-P.bit_length() // w) * size, "little")
    return [raw[i : i + size] for i in range(0, len(raw), size)]


def _unpack(P: int, w: int) -> tuple[int, ...]:
    """The coefficients (a_0, ..., a_m) of a polynomial packed in w-bit slots."""
    if w == 32:
        # one call for the common width; "<" fixes the byte order on every machine
        m = -(-P.bit_length() // 32)
        return struct.unpack(f"<{m}I", P.to_bytes(4 * m, "little"))
    return tuple(map(int.from_bytes, _slots(P, w), repeat("little")))


def _widen(P: int, r: int, r2: int) -> int:
    """P, packed at the width of r undecided elements, at the width of r2 >= r:
    P itself when r // 32 == r2 // 32, which gives the same width."""
    if r >> 5 == r2 >> 5:
        return P
    w = _width(r)
    return int.from_bytes(bytes((_width(r2) - w) // 8).join(_slots(P, w)), "little")


def _times_free(P: int, r: int, f: int) -> int:
    """(1 + x)**f times P, where P is packed at the width of r - f undecided elements
    and the product at the width of r."""
    P = _widen(P, r - f, r)
    w = _width(r)
    for _ in range(f):
        P += P << w
    return P


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _selectors(mask: int) -> bytes:
    """Selectors for itertools.compress: one 0/1 byte per bit of mask, lowest first."""
    return bin(mask).encode()[:1:-1].translate(_DIGITS)


# every normalized value of a str key is a code point; a component with a larger
# value is keyed by a tuple instead
_KEY_CHARS = sys.maxunicode + 1


# the matcher of patterns.Checker, called under this module name for every
# element the search tests, so that replacing it here counts or times the tests
is_admissible_with = Checker.allows


class _Search(Checker):
    """Include/exclude recursion over (undecided, chosen) states, valued by the size
    polynomial (a_0, ..., a_m): a_k counts the k-subsets A of the undecided part with
    chosen+A admissible. The chosen part is always admissible.

    A value is packed into one integer, sum of a_k * 2**(w*k), with the slot width
    w = _width(r) set by the state's number r of undecided elements. Each a_k is at
    most C(r, k) < 2**w, and so is every coefficient of a sum or product of the
    polynomials of disjoint parts of the state, so integer addition and
    multiplication give the packed sum and product with no carry between slots.
    A value over fewer elements than its state is brought to its width by _widen.
    The format stays inside this module: _unpack turns a value into its tuple.

    A state is a pair of bitmasks over the sorted elements. The search is the
    patterns.Checker of its elements: adj[j] masks the elements comparable with
    element j, and is_admissible_with, the checker's allows, decides each include.
    Admissibility is hereditary, so an undecided element that chosen blocks is in
    no set below the state. No state the search keys has one: a node branches on
    an element x, and before its include child is keyed, the undecided elements
    that chosen + x blocks are found (_blocked) and dropped. Each child is valued
    through value(), its chosen part first pruned by _near. A pattern of one
    vertex lies in every nonempty set, so a family with one is not searched:
    solve and solve_pair value every set at the polynomial 1.

    Dually, an undecided element is free when it lies in no forbidden copy within
    its component, undecided and chosen elements together. Admissibility is
    hereditary, so a free element joins every set below the state, and the
    component's polynomial is (1 + x)**f times that of the component without its
    f free elements. value() finds them before a component is keyed, among
    candidates its caller names, and values the smaller state instead. At radius
    1 every copy through u lies in u's closed neighbourhood, so the candidates are
    exact: every element at the top of a search, the root's neighbours in the set
    without the root (solve_pair), x's neighbours in the exclude child, the
    neighbours of the dropped blocked elements in that include child, and none in
    an include child that drops nothing, whose elements are unchanged. Other
    families skip the pass (factors), and so do families with a pattern of one or
    two vertices, where no element of a component of two or more is free.

    A new forbidden copy holds an undecided element x and is connected, so it lies
    within radius steps of x: the largest Pattern.diameter, taken on the pattern's
    comparability closure (at least 1; 1 for every chain). _near walks those
    steps through chosen elements: a chosen element beyond radius steps of every
    undecided one is in no future copy and is dropped from the state, and _blocked
    tests only the neighbours of x and of the chosen elements within radius - 1
    steps of it. Forest families, with no bound on a cycle, do neither. A memo key
    holds one divisor-graph component of the pruned state: its undecided values,
    then 0, then its kept chosen values, each divided by the component's gcd
    (dilation invariance). The key is the str of those code points, or their tuple
    when a value has no chr; a tuple never equals a str, and every value is at
    least 1, so 0 separates the two parts and the key is injective.
    Keys are per family, shared by every mode, and the memo is insert-only.
    """

    __slots__ = ("memo", "nodes_left", "limit", "label", "elements", "radius", "factors", "lone", "verdicts", "known")

    def __init__(self, family: AdmissibleFamily, elements: tuple[int, ...]):
        super().__init__(elements, family)
        self.limit = self.nodes_left = resolve_node_limit()
        self.label = f"{family.name} on {len(elements)} elements"
        self.elements = elements
        self.memo = _MEMO.setdefault(family.family_hash, {})
        # 0 turns pruning off
        self.radius = 0 if family.forbid_cycles else max([1] + [p.diameter for p in family.patterns])
        # free elements are factored out at radius 1, where the candidates are
        # exact, unless a pattern has one or two vertices: it is matched by every
        # element or every comparable pair, so no component of two or more has one
        self.factors = self.radius == 1 and all(p.vertex_count > 2 for p in family.patterns)
        # a pattern of one vertex leaves nothing to search
        self.lone = any(p.vertex_count == 1 for p in family.patterns)
        # chosen mask -> (its neighbourhood, undecided elements that pass against it,
        # those it blocks), for the search
        self.verdicts: dict[int, tuple[int, int, int]] = {}
        # (undecided, chosen) masks of a component -> its value, for the search
        self.known: dict[tuple[int, int], int] = {}

    def _union(self, mask: int) -> int:
        """The elements comparable with some element of mask."""
        adj = self.adj
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= adj[low.bit_length() - 1]
        return out

    def _near(self, start: int, chosen: int, steps: int) -> int:
        """The chosen elements within steps steps of start, each step into chosen;
        every chosen element at radius 0, the forest families' radius."""
        if not self.radius:
            return chosen
        adj = self.adj
        far = chosen
        frontier = start
        for _ in range(steps):
            # the far elements one step from the frontier
            step = 0
            scan = far
            while scan:
                low = scan & -scan
                scan ^= low
                if adj[low.bit_length() - 1] & frontier:
                    step |= low
            frontier = step
            far ^= frontier
            if not (frontier and far):
                break
        return chosen ^ far

    def solve(self, rest: int) -> int:
        """The value of the set rest with nothing chosen, every element a candidate."""
        if self.lone:
            # a pattern of one vertex lies in every nonempty set: only the empty one
            return 1
        return self.value(rest, 0, rest if self.factors else 0)

    def solve_pair(self, root: int) -> tuple[int, int]:
        """The values of every element and of every element but root, packed at the
        widths of their sizes, from one free-element pass (none unless the family
        factors).

        An element free in the whole set is free without the root too, as
        admissibility is hereditary, and a free root is in no copy, so its removal
        turns nothing free. A root in a copy can free only its neighbours."""
        if self.lone:
            return 1, 1
        n = len(self.elements)
        everything = (1 << n) - 1
        bit = 1 << root
        free = self._free(everything, everything) if self.factors else 0
        f = free.bit_count()
        rest = everything ^ free
        val = self.value(rest, 0)
        if free & bit:
            return _times_free(val, n, f), _times_free(val, n - 1, f - 1)
        without = self.value(rest ^ bit, 0, self.adj[root] & ~free if self.factors else 0)
        return _times_free(val, n, f), _times_free(without, n - 1, f)

    def value(self, rest: int, chosen: int, cand: int = 0) -> int:
        """Product over the divisor-graph components of rest+chosen, where chosen is
        already pruned to the elements near rest and, unless empty, blocks no
        element of rest, packed at the width of rest's size. Admissibility factors
        over the components because every forbidden structure is connected.

        cand holds the elements of rest to test for being free, that is in no
        forbidden copy within their component. A component's free elements join
        every set below it, so its value is (1 + x)**f times that of the component
        without its f free elements; an element left untested is searched, and
        the value is the same either way."""
        total = 1
        r = rest.bit_count()
        adj = self.adj
        known = self.known
        todo = rest | chosen
        while todo & rest:
            # flood fill from the lowest element; todo keeps what is left unreached
            comp = frontier = todo & -todo
            todo ^= comp
            while frontier and todo:
                low = frontier & -frontier
                frontier ^= low
                grow = adj[low.bit_length() - 1] & todo
                todo ^= grow
                comp |= grow
                frontier |= grow
            comp_rest = comp & rest
            if not comp_rest:
                continue
            comp_chosen = comp & chosen
            comp_r = comp_rest.bit_count()
            # the same masks are the same component, keyed once per search
            val = known.get((comp_rest, comp_chosen))
            if val is None:
                test = cand & comp_rest
                free = self._free(comp, test) if test else 0
                if free:
                    # no copy holds a free element, so removing one breaks no copy
                    # and turns no other element free: one pass is enough
                    less = comp_rest ^ free
                    val = self.value(less, self._near(less, comp_chosen, self.radius))
                    val = _times_free(val, comp_r, free.bit_count())
                else:
                    val = self._component(comp_rest, comp_chosen)
                known[comp_rest, comp_chosen] = val
            val = _widen(val, comp_r, r)
            total = val if total == 1 else total * val
        return total

    def _free(self, comp: int, cand: int) -> int:
        """The elements of cand in no forbidden copy within the component comp."""
        free = 0
        while cand:
            low = cand & -cand
            cand ^= low
            if is_admissible_with(self, comp ^ low, low.bit_length() - 1):
                free |= low
        return free

    def _component(self, rest: int, chosen: int) -> int:
        """The value of one divisor-graph component, from the memo or searched."""
        elements = self.elements
        values = (*compress(elements, _selectors(rest)), 0)
        if chosen:
            values += (*compress(elements, _selectors(chosen)),)
        g = math.gcd(*values)
        if g != 1:
            values = map(g.__rfloordiv__, values)
        # the component's largest element has its largest value
        if elements[(rest | chosen).bit_length() - 1] // g < _KEY_CHARS:
            key = "".join(map(chr, values))
        else:
            key = tuple(values)
        val = self.memo.get(key)
        if val is None:
            val = self.memo[key] = self._branch(rest, chosen)
        return val

    def _branch(self, rest: int, chosen: int) -> int:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise ResourceLimitError(
                f"search budget of {self.limit} nodes exhausted while solving {self.label}"
            )
        adj = self.adj
        r = rest.bit_count()
        w = _width(r)
        entry = self.verdicts.get(chosen)
        if entry is None:
            # chosen blocks no undecided element of a keyed state
            entry = self.verdicts[chosen] = (self._union(chosen), rest, 0)
        # fail first: the undecided element with the most chosen neighbours, then the
        # most neighbours in the state, then the smallest. One with a chosen
        # neighbour beats every one without, so when there is one only those are
        # scanned; included, it settles its neighbourhood. The state is connected,
        # so there is one unless nothing is chosen.
        union = rest | chosen
        scan = rest & entry[0] or rest
        best = -1
        while scan:
            low = scan & -scan
            scan ^= low
            nbrs = adj[low.bit_length() - 1]
            # a union degree is below 2**32: no state has that many elements
            score = (nbrs & chosen).bit_count() << 32 | (nbrs & union).bit_count()
            if score > best:
                best = score
                bit = low
        x = bit.bit_length() - 1
        rest2 = rest ^ bit
        # only elements in a copy with x can turn free without it
        cand = adj[x] if self.factors else 0
        # both branches are packed at the width of r
        without = _widen(self.value(rest2, self._near(rest2, chosen, self.radius), cand), r - 1, r)
        if not rest2:
            return without + (1 << w)
        chosen2 = chosen | bit
        # the include child without the elements chosen2 blocks; only their
        # neighbours can turn free. A blocking copy lies within the radius _near
        # keeps, so chosen2 pruned blocks the same elements
        blocked = self._blocked(rest, chosen, x, entry)
        rest2 ^= blocked
        cand = self._union(blocked) if self.factors else 0
        with_x = _widen(self.value(rest2, self._near(rest2, chosen2, self.radius), cand), rest2.bit_count(), r)
        # P_without(x) + x * P_with(x)
        return without + (with_x << w)

    def _blocked(self, rest: int, chosen: int, x: int, entry: tuple[int, int, int]) -> int:
        """The undecided elements other than x that chosen + x blocks, in a state
        whose every undecided element is admissible with chosen; entry is chosen's
        verdicts.

        Verdicts are kept per chosen mask, and a new mask's start from its
        parent's: what chosen blocks chosen + x blocks, and what passed against
        chosen still passes unless a copy through x reaches it. Such a copy is
        connected and holds x, so the element lies within radius steps of x, each
        step but the last into chosen: it neighbours x or a chosen element _near
        finds within radius - 1 steps of x. Forest families, with no bound on a
        cycle, test every undecided neighbour of chosen + x."""
        adj = self.adj
        nbhd, passed, blocked = entry
        bit = 1 << x
        reach = self._union(self._near(bit, chosen, self.radius - 1) | bit) if self.radius else -1
        chosen2 = chosen | bit
        rest2 = rest ^ bit
        inherited = (passed | rest) & ~reach
        seen = self.verdicts.get(chosen2)
        if seen is None:
            nbhd |= adj[x]
            passed = inherited
        else:
            nbhd = seen[0]
            passed = seen[1] | inherited
            blocked |= seen[2]
        untested = rest2 & nbhd & ~(passed | blocked)
        while untested:
            low = untested & -untested
            untested ^= low
            if is_admissible_with(self, chosen2, low.bit_length() - 1):
                passed |= low
            else:
                blocked |= low
        self.verdicts[chosen2] = (nbhd, passed, blocked)
        return blocked & rest2


def size_polynomial(S: Iterable[int], fam: AdmissibleFamily) -> tuple[int, ...]:
    """Exact coefficients (a_0, ..., a_m) of P(x) = sum of a_k x**k, where a_k counts the
    admissible k-subsets of S; a_0 = 1 (the empty set) and a_m > 0 (m is the largest size).
    The search runs under the node budget resolve_node_limit reads when it starts.
    """
    elements = validated_elements(S)
    search = _Search(fam, elements)
    return _unpack(search.solve((1 << len(elements)) - 1), _width(len(elements)))


def solve_block(key: CanonicalKey, fam: AdmissibleFamily, mode: Mode) -> BlockRecord:
    """Solve one block given by its canonical key, returning the mode's value pair.

    The key's normalized elements are searched with the root at its root value, so
    every scaled copy of a component, keyed by numtheory.canonical_key, gets one
    record. One search, under one node budget, values both the full set and the set
    without the root, along one path for every family (_Search.solve_pair); for a
    family that factors out free elements one pass finds them for both, and the
    second set tests only the root's neighbours. The two size polynomials are kept
    for the process and family, so a later solve of the same key, in any mode,
    reads its values off them with no search and no nodes; clear_caches drops
    them. A key is checked when it is first searched: ValueError unless its
    elements are distinct positive ints in increasing order with gcd 1 and the
    root is among them. They need not be divisor-connected, as the root's
    increment in a set equals its increment in the root's component. The node
    budget is DIVBOUND_NODE_LIMIT, read by resolve_node_limit when the search
    starts; a solve read off a stored pair reads it not at all. Resource errors
    are re-raised with the key attached, and a failed search keeps nothing.
    """
    full = key.normalized_elements
    n = len(full)
    pairs = _PAIRS.setdefault(fam.family_hash, {})
    try:
        packed = pairs.get(key)
    except TypeError:
        # an unhashable part, such as a list of elements, is no canonical key
        raise ValueError(f"not a canonical key: {key}") from None
    if packed is None:
        if full != validated_elements(full) or math.gcd(*full) != 1 or key.root_value not in full:
            raise ValueError(f"not a canonical key: {key}")
        search = _Search(fam, full)
        try:
            packed = search.solve_pair(full.index(key.root_value))
        except ResourceLimitError as exc:
            raise ResourceLimitError(
                f"{exc} [component {','.join(map(str, full))} root {key.root_value}]", key=key
            ) from None
    pf = _unpack(packed[0], _width(n))
    pd = _unpack(packed[1], _width(n - 1))
    if key not in pairs:
        # Admissible k-subsets holding the root lose it to admissible (k-1)-subsets,
        # so 0 <= full_k - deleted_k <= deleted_(k-1); this bounds every mode's
        # increment. Checked once, when the pair is computed.
        shifted = zip_longest(pf, pd, (0,) + pd, fillvalue=0)
        if not (pf[0] == pd[0] == 1 and all(0 <= f - d <= e for f, d, e in shifted)):
            raise RuntimeError(f"size polynomials {pf}/{pd} out of range for key {key}")
        pairs[key] = packed
    full, deleted = mode.value(pf), mode.value(pd)
    if mode.kind == "density":
        return BlockRecord(key=key, size_full=full, size_deleted=deleted)
    if mode.kind == "counting":
        return BlockRecord(key=key, count_full=full, count_deleted=deleted)
    return BlockRecord(key=key, partition_full=full, partition_deleted=deleted)


def local_increment(rec: BlockRecord, mode: Mode) -> int | float:
    """The root's marginal contribution: size difference, or log of the value ratio."""
    if mode.kind == "density":
        if rec.size_full is None or rec.size_deleted is None:
            raise ValueError("record lacks density fields")
        return rec.size_full - rec.size_deleted
    if mode.kind == "counting":
        if rec.count_full is None or rec.count_deleted is None:
            raise ValueError("record lacks counting fields")
        # int / int rounds the exact ratio correctly: the float a Fraction would give
        return math.log(rec.count_full / rec.count_deleted)
    a, b = rec.partition_full, rec.partition_deleted
    if a is None or b is None:
        raise ValueError("record lacks partition fields")
    # one correctly rounded integer division of the exact ratio, as Fraction a / b
    # would round it, without building that Fraction
    return math.log((a.numerator * b.denominator) / (a.denominator * b.numerator))
