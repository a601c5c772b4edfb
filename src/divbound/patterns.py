"""Forbidden substructures of divisor graphs and the admissibility predicate.

An admissible family is a downward-closed, dilation-invariant collection of finite
integer sets, described here by a finite list of forbidden connected patterns plus
an optional acyclicity requirement on the divisor graph (the "forest" family).

A Pattern builds one neighbour table from its edges, and its connectivity check,
closure diameter and placement plans all read it. Its directed edges may not form
a cycle: proper divisibility is a strict order, so no divisor graph has one.

Checker decides it over bitmasks of a sorted pool, one added element at a time.
It is the one matcher: is_admissible, contains_pattern, the brute-force oracle and
the solver's search (a subclass of it) all run on it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

# The interpreter's built-in SHA-256, as CPython's random module takes its sha512:
# hashlib would load OpenSSL's libcrypto (about 3.6 MB of RSS) to hash one short
# family description. The digest is the same whichever module computes it.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

MAX_PATTERN_VERTICES = 8

# relation of a candidate image to an already placed one, used in placement plans
REL_MULTIPLE = 0  # candidate must be a proper multiple
REL_DIVISOR = 1  # candidate must be a proper divisor
REL_EITHER = 2  # comparable in either direction


class PatternError(ValueError):
    """Raised for structurally invalid patterns or pattern files."""


def _is_int(value: object) -> bool:
    # bool is a subclass of int, but True is not a vertex count or index
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Pattern:
    """A small connected graph matched against divisor graphs.

    A directed edge (u, v, True) requires the image of u to properly divide the
    image of v; an undirected edge accepts either orientation. Matching is not
    induced: extra divisibility between matched elements is allowed.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, bool], ...]

    def __post_init__(self) -> None:
        v = self.vertex_count
        if not _is_int(v) or not 1 <= v <= MAX_PATTERN_VERTICES:
            raise PatternError(f"vertex count must be an int in 1..{MAX_PATTERN_VERTICES}, got {v!r}")
        norm = []
        pairs = set()
        for e in self.edges:
            try:
                a, b, directed = e
            except (TypeError, ValueError) as exc:
                raise PatternError(f"malformed edge {e!r}") from exc
            # no coercion: int(1.9) and bool("false") would silently change the pattern
            if not (_is_int(a) and _is_int(b) and isinstance(directed, bool)):
                raise PatternError(f"edge {e!r} needs two int vertex indices and a bool directed flag")
            if not (0 <= a < v and 0 <= b <= v - 1):
                raise PatternError(f"edge {e!r} references a vertex outside 0..{v - 1}")
            if a == b:
                raise PatternError(f"self-loop on vertex {a}")
            pair = (a, b) if a < b else (b, a)
            if pair in pairs:
                raise PatternError(f"duplicate edge on vertex pair {pair}")
            pairs.add(pair)
            norm.append((a, b, True) if directed else (pair[0], pair[1], False))
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if len(_reach(self._nbrs, 0)[0]) != v:
            raise PatternError(
                "pattern must be connected: a disconnected forbidden subgraph could "
                "straddle divisor-graph components and break component decomposition"
            )
        if any(u in below for u, below in enumerate(self._below)):
            raise PatternError("pattern has a directed cycle, which no divisor graph contains")

    @cached_property
    def _nbrs(self) -> list[dict[int, int]]:
        """_nbrs[u][w]: how the image of u must relate to the image of its neighbour w
        (REL_DIVISOR for an edge u -> w), in edge order, the order of a plan step's constraints."""
        nbrs = [{} for _ in range(self.vertex_count)]
        for a, b, directed in self.edges:
            nbrs[a][b] = REL_DIVISOR if directed else REL_EITHER
            nbrs[b][a] = REL_MULTIPLE if directed else REL_EITHER
        return nbrs

    @cached_property
    def _below(self) -> list[set[int]]:
        """_below[u]: the vertices with a directed path to u, u itself only on a cycle."""
        below = [set() for _ in range(self.vertex_count)]
        for _ in range(self.vertex_count):
            for a, b, directed in self.edges:
                if directed:
                    below[b] |= below[a] | {a}
        return below

    @cached_property
    def diameter(self) -> int:
        """Diameter of the comparability closure: the pattern plus an edge u-w for
        every directed path from u to w (undirected edges do not compose), then the
        largest distance between two vertices, edge directions ignored.

        Proper divisibility is transitive, so in any copy the image of u properly
        divides the image of w along such a path: closure edges map to divisor-graph
        edges inside the copy, just as pattern edges do. A shortest closure path from
        a chosen element of a copy to the copy's nearest undecided element therefore
        has at most this many steps, each into a chosen element, which is what the
        solver's relevance pruning keeps. A chain is a clique of its closure, so
        chain:k gives 1."""
        below = self._below
        above = [{w for w, b in enumerate(below) if u in b} for u in range(len(below))]
        closure = [nbrs.keys() | below[u] | above[u] for u, nbrs in enumerate(self._nbrs)]
        return max(_reach(closure, start)[1] for start in range(self.vertex_count))


def _reach(nbrs: Sequence[Iterable[int]], start: int) -> tuple[set[int], int]:
    """Breadth-first search from start: the vertices reached, and the distance to
    the farthest of them."""
    seen = {start}
    frontier = {start}
    steps = 0
    while frontier:
        frontier = {w for u in frontier for w in nbrs[u]} - seen
        seen |= frontier
        steps += bool(frontier)
    return seen, steps


@lru_cache(maxsize=None)
def _distinct_plans(pattern: Pattern) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Backtracking schedules for matching pattern, one per anchor vertex placed
    first, each distinct plan once: anchors with equal plans, such as the leaves of
    a fork, would run the same search.

    A plan has one step per remaining vertex, in an order where every step has at
    least one already placed neighbour (the pattern is connected, so such an order
    exists). Each step is a tuple of (slot, relation) constraints: the candidate must
    relate to the image placed at position `slot` by `relation` (REL_MULTIPLE /
    REL_DIVISOR / REL_EITHER). Vertices are taken greedily by most placed
    neighbours, then by degree, then index.
    """
    v = pattern.vertex_count
    nbrs = pattern._nbrs
    plans = {}
    for anchor in range(v):
        slot_of = {anchor: 0}
        steps = []
        while len(slot_of) < v:
            best = min(
                (w for w in range(v) if w not in slot_of),
                key=lambda w: (-len(nbrs[w].keys() & slot_of.keys()), -len(nbrs[w]), w),
            )
            steps.append(tuple((slot_of[w], rel) for w, rel in nbrs[best].items() if w in slot_of))
            slot_of[best] = len(slot_of)
        plans[tuple(steps)] = None
    return tuple(plans)


@dataclass(frozen=True)
class AdmissibleFamily:
    """A decidable admissibility predicate: forbidden patterns plus optional acyclicity.

    The empty set is always admissible, admissibility is preserved by taking subsets
    and by integer dilation, and membership decomposes over divisor-graph components;
    these follow from every forbidden structure being a connected, scale-free graph.
    """

    name: str
    patterns: tuple[Pattern, ...] = ()
    forbid_cycles: bool = False

    @cached_property
    def family_hash(self) -> str:
        """Stable content hash used for cache keying."""
        payload = {
            "patterns": sorted([p.vertex_count, [list(e) for e in p.edges]] for p in self.patterns),
            "forest": self.forbid_cycles,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return _sha256(blob).hexdigest()[:16]


class Checker:
    """Admissibility of subsets of one strictly increasing pool of positive integers,
    each subset a bitmask with bit i standing for pool[i].

    A set is grown one element at a time, and allows(chosen, x) tests the one new
    element: any pattern copy or cycle that chosen + {x} has and chosen lacks uses x.
    """

    __slots__ = ("adj", "plans", "forest")

    def __init__(self, pool: Sequence[int], family: AdmissibleFamily):
        mult = [0] * len(pool)
        div = [0] * len(pool)
        for j, b in enumerate(pool):
            # a proper divisor of b is at most b // 2
            for i in range(bisect_right(pool, b // 2, 0, j)):
                if b % pool[i] == 0:
                    mult[i] |= 1 << j
                    div[j] |= 1 << i
        self.adj = [m | d for m, d in zip(mult, div)]
        # a plan step's relations become the mask lists they select, so the
        # candidates of a step are an AND of masks
        masks = {REL_MULTIPLE: mult, REL_DIVISOR: div, REL_EITHER: self.adj}
        self.plans = [
            tuple(tuple((slot, masks[rel]) for slot, rel in step) for step in plan)
            for pattern in family.patterns
            for plan in _distinct_plans(pattern)
        ]
        self.forest = family.forbid_cycles

    def allows(self, chosen: int, x: int) -> bool:
        """Is chosen + {x} admissible, for an admissible mask chosen without bit x?"""
        if self.forest:
            # x closes a cycle when two of its chosen neighbours are connected inside
            # chosen: flood-fill from each in turn, over what is still unreached
            adj = self.adj
            nbrs = adj[x] & chosen
            todo = chosen
            while nbrs:
                frontier = nbrs & -nbrs
                nbrs ^= frontier
                todo ^= frontier
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    grow = adj[low.bit_length() - 1] & todo
                    if grow & nbrs:
                        return False
                    todo ^= grow
                    frontier |= grow
        size = chosen.bit_count()
        for plan in self.plans:
            # the plan puts x in its anchor slot and one chosen element per step
            if len(plan) <= size and (not plan or self._places(plan, [x], chosen)):
                return False
        return True

    def _places(self, plan, images: list[int], free: int) -> bool:
        """Can the steps of plan from len(images) - 1 on take distinct elements of
        the mask free, images[s] being the index placed in slot s?"""
        cand = free
        for slot, masks in plan[len(images) - 1]:
            cand &= masks[images[slot]]
        if len(images) == len(plan):
            return bool(cand)
        while cand:
            low = cand & -cand
            cand ^= low
            images.append(low.bit_length() - 1)
            if self._places(plan, images, free ^ low):
                return True
            images.pop()
        return False


def validated_elements(S: Iterable[int]) -> tuple[int, ...]:
    """The distinct elements of S, sorted; ValueError unless each is a positive int."""
    out = set()
    for v in S:
        # bool is a subclass of int, but True is not the element 1
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"elements must be positive integers, got {v!r}")
        out.add(v)
    return tuple(sorted(out))


def is_admissible(S: Iterable[int], family: AdmissibleFamily) -> bool:
    """Does S avoid every forbidden pattern (and cycles, for forest families)?
    ValueError unless every element is a positive int.

    The elements arrive in increasing order, so a copy or a cycle is caught when its
    last element does."""
    pool = validated_elements(S)
    checker = Checker(pool, family)
    return all(checker.allows((1 << i) - 1, i) for i in range(len(pool)))


def contains_pattern(S: Iterable[int], pattern: Pattern) -> bool:
    """Does the divisor graph on S contain a (not necessarily induced) copy of the pattern?"""
    return not is_admissible(S, AdmissibleFamily("pattern", (pattern,)))


def r_fork(r: int) -> Pattern:
    """One element properly dividing r distinct others."""
    if r < 2:
        raise PatternError(f"fork arity must be at least 2, got {r!r}")
    return Pattern(r + 1, tuple((0, j, True) for j in range(1, r + 1)))


def two_fork() -> Pattern:
    return r_fork(2)


def in_fork(r: int) -> Pattern:
    """r distinct elements all properly dividing a common one."""
    if r < 2:
        raise PatternError(f"fork arity must be at least 2, got {r!r}")
    return Pattern(r + 1, tuple((j, 0, True) for j in range(1, r + 1)))


def chain(k: int) -> Pattern:
    """Divisibility chain on k elements; k = 2 forbids any divisor pair."""
    if k < 2:
        raise PatternError(f"chain length must be at least 2, got {k!r}")
    return Pattern(k, tuple((j, j + 1, True) for j in range(k - 1)))


def builtin_family(name: str) -> AdmissibleFamily:
    """Parse a family name: two-fork, r-fork:R, in-fork:R, chain:K, or forest."""
    text = name.strip().lower().replace("_", "-")
    if text == "two-fork":
        return AdmissibleFamily("two-fork", (two_fork(),))
    if text == "forest":
        return AdmissibleFamily("forest", (), forbid_cycles=True)
    head, sep, arg = text.partition(":")
    if sep and head in ("r-fork", "in-fork", "chain"):
        try:
            k = int(arg)
        except ValueError:
            raise PatternError(f"family parameter must be an integer, got {arg!r}") from None
        if head == "r-fork":
            return AdmissibleFamily(f"r-fork:{k}", (r_fork(k),))
        if head == "in-fork":
            return AdmissibleFamily(f"in-fork:{k}", (in_fork(k),))
        return AdmissibleFamily(f"chain:{k}", (chain(k),))
    raise PatternError(f"unknown family {name!r}")


def family_from_json(doc: object, name: str = "custom") -> AdmissibleFamily:
    """Build a family from the pattern-file JSON layout.

    Expected shape: {"patterns": [{"vertices": V, "edges": [{"from": i, "to": j,
    "directed": bool}, ...]}, ...], "forest": bool} with 0-based vertex indices.
    """
    if not isinstance(doc, dict):
        raise PatternError("pattern file must contain a JSON object")
    # a misspelled key would otherwise drop what it names: {"pattern": [...]} would
    # load as a family with no patterns, under which every set is admissible
    _known_keys(doc, ("patterns", "forest"), "pattern file")
    pats = []
    raw = doc.get("patterns", [])
    if not isinstance(raw, list):
        raise PatternError("'patterns' must be a list")
    for idx, entry in enumerate(raw):
        try:
            _known_keys(entry, ("vertices", "edges"), "pattern")
            vertices = _json_int(entry["vertices"], "vertices")
            edges = []
            for k, e in enumerate(entry["edges"]):
                _known_keys(e, ("from", "to", "directed"), f"edge {k}")
                edges.append(
                    (_json_int(e["from"], "from"), _json_int(e["to"], "to"), _json_bool(e["directed"], "directed"))
                )
            pats.append(Pattern(vertices, tuple(edges)))
        except PatternError as exc:
            raise PatternError(f"pattern {idx}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise PatternError(f"pattern {idx}: malformed entry ({exc!r})") from exc
    forest = _json_bool(doc.get("forest", False), "forest")
    return AdmissibleFamily(name, tuple(pats), forest)


def _known_keys(obj: object, allowed: tuple[str, ...], where: str) -> None:
    if isinstance(obj, dict):
        for key in obj:
            if key not in allowed:
                expected = ", ".join(repr(k) for k in allowed)
                raise PatternError(f"unknown key {key!r} in {where} (expected {expected})")


def _json_int(value: object, field: str) -> int:
    if not _is_int(value):
        raise PatternError(f"'{field}' must be a JSON integer, got {value!r}")
    return value


def _json_bool(value: object, field: str) -> bool:
    if not isinstance(value, bool):
        raise PatternError(f"'{field}' must be a JSON boolean, got {value!r}")
    return value


def family_from_file(path: str) -> AdmissibleFamily:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PatternError(f"pattern file {path}: invalid JSON ({exc})") from exc
    return family_from_json(doc, name=f"file:{path}")
