import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from divbound import solver
from divbound.numtheory import (
    CanonicalKey,
    RootedComponent,
    canonical_key,
    divisor_connected_component,
    primes_up_to,
    rooted_component,
)
from divbound.patterns import builtin_family, family_from_json, is_admissible
from divbound.solver import (
    COUNTING,
    DENSITY,
    BlockRecord,
    Mode,
    ResourceLimitError,
    clear_caches,
    local_increment,
    partition_mode,
    size_polynomial,
    solve_block,
)

import independent

TWO_FORK = builtin_family("two-fork")
CHAIN2 = builtin_family("chain:2")
FOREST = builtin_family("forest")


def enumerate_exact(S, fam):
    """Reference values by scanning all subsets with the admissibility predicate."""
    elems = sorted(S)
    best = 0
    count = 0
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if is_admissible(combo, fam):
                count += 1
                best = max(best, r)
    return best, count


def test_max_admissible_size_examples():
    assert DENSITY.value(size_polynomial({1, 2, 3}, TWO_FORK)) == 2
    assert DENSITY.value(size_polynomial(range(1, 7), TWO_FORK)) == 4
    assert DENSITY.value(size_polynomial([], TWO_FORK)) == 0
    assert DENSITY.value(size_polynomial([], FOREST)) == 0


def test_count_admissible_examples():
    assert COUNTING.value(size_polynomial({1, 2}, TWO_FORK)) == 4
    assert COUNTING.value(size_polynomial({1, 2, 3}, TWO_FORK)) == 7
    assert COUNTING.value(size_polynomial({1, 2, 3}, CHAIN2)) == 5


def test_partition_function_examples():
    assert partition_mode(3).value(size_polynomial([], TWO_FORK)) == 1
    assert partition_mode(2).value(size_polynomial({1, 2}, TWO_FORK)) == 9
    assert partition_mode(1).value(size_polynomial({1, 2, 3}, TWO_FORK)) == 7


def test_partition_function_is_exact_for_rational_z():
    z = Fraction(3, 7)
    val = partition_mode(z).value(size_polynomial({1, 2, 3, 4}, TWO_FORK))
    assert isinstance(val, Fraction)
    # direct expansion over admissible subsets of {1,2,3,4}
    expected = sum(
        z ** len(combo)
        for r in range(5)
        for combo in itertools.combinations((1, 2, 3, 4), r)
        if is_admissible(combo, TWO_FORK)
    )
    assert val == expected


def test_matches_exhaustive_enumeration():
    rng = random.Random(1777)
    fams = [TWO_FORK, CHAIN2, FOREST, builtin_family("in-fork:2")]
    for _ in range(60):
        S = set(rng.sample(range(1, 41), rng.randint(0, 11)))
        fam = rng.choice(fams)
        best, count = enumerate_exact(S, fam)
        assert DENSITY.value(size_polynomial(S, fam)) == best
        assert COUNTING.value(size_polynomial(S, fam)) == count


def test_prefix_intervals_match_enumeration():
    for n in range(13):
        S = range(1, n + 1)
        best, count = enumerate_exact(S, TWO_FORK)
        assert DENSITY.value(size_polynomial(S, TWO_FORK)) == best
        assert COUNTING.value(size_polynomial(S, TWO_FORK)) == count


def test_additivity_and_multiplicativity():
    rng = random.Random(90125)
    trials = 0
    while trials < 60:
        S1 = set(rng.sample(range(1, 41), rng.randint(1, 7)))
        S2 = set(rng.sample(range(1, 41), rng.randint(1, 7)))
        if S1 & S2 or any(a % b == 0 or b % a == 0 for a in S1 for b in S2):
            continue
        trials += 1
        fam = rng.choice((TWO_FORK, CHAIN2, FOREST))
        assert DENSITY.value(size_polynomial(S1 | S2, fam)) == (
            DENSITY.value(size_polynomial(S1, fam)) + DENSITY.value(size_polynomial(S2, fam))
        )
        assert COUNTING.value(size_polynomial(S1 | S2, fam)) == (
            COUNTING.value(size_polynomial(S1, fam)) * COUNTING.value(size_polynomial(S2, fam))
        )


def test_partition_at_one_equals_count():
    rng = random.Random(41)
    for _ in range(40):
        S = set(rng.sample(range(1, 31), rng.randint(0, 9)))
        fam = rng.choice((TWO_FORK, CHAIN2, FOREST))
        assert partition_mode(1).value(size_polynomial(S, fam)) == COUNTING.value(size_polynomial(S, fam))


def test_solve_block_examples():
    rec = solve_block(canonical_key(RootedComponent((2, 4), 0)), TWO_FORK, DENSITY)
    assert (rec.size_full, rec.size_deleted) == (2, 1)
    assert local_increment(rec, DENSITY) == 1

    rec = solve_block(canonical_key(RootedComponent((1, 2, 3), 0)), TWO_FORK, DENSITY)
    assert (rec.size_full, rec.size_deleted) == (2, 2)
    assert local_increment(rec, DENSITY) == 0

    rec = solve_block(canonical_key(RootedComponent((1,), 0)), TWO_FORK, COUNTING)
    assert (rec.count_full, rec.count_deleted) == (2, 1)
    assert local_increment(rec, COUNTING) == pytest.approx(math.log(2), abs=1e-15)


def test_local_increment_examples():
    rec = BlockRecord(key=None, count_full=7, count_deleted=4)
    assert local_increment(rec, COUNTING) == pytest.approx(math.log(7 / 4), abs=1e-15)
    rec = solve_block(canonical_key(RootedComponent((1, 2, 3), 0)), TWO_FORK, COUNTING)
    assert (rec.count_full, rec.count_deleted) == (7, 4)


def test_local_increment_requires_mode_fields():
    rec = BlockRecord(key=None, size_full=2, size_deleted=1)
    assert local_increment(rec, DENSITY) == 1
    with pytest.raises(ValueError):
        local_increment(rec, COUNTING)


def test_solve_block_partition_mode():
    mode = partition_mode(2)
    rec = solve_block(canonical_key(RootedComponent((1, 2), 0)), TWO_FORK, mode)
    assert (rec.partition_full, rec.partition_deleted) == (9, 3)
    h = local_increment(rec, mode)
    assert 0 <= h <= math.log(3) + 1e-12
    assert h == pytest.approx(math.log(3), abs=1e-12)


def test_increment_ranges_on_random_blocks():
    rng = random.Random(271828)
    fams = [TWO_FORK, CHAIN2, FOREST, builtin_family("r-fork:3")]
    zmode = partition_mode(Fraction(5, 2))
    zbound = math.log(1 + 2.5)
    for _ in range(80):
        d = rng.randint(1, 30)
        t = rng.randint(d, d + 25)
        comp = rooted_component(d, t)
        fam = rng.choice(fams)
        rec = solve_block(canonical_key(comp), fam, DENSITY)
        assert local_increment(rec, DENSITY) in (0, 1)
        rec = solve_block(canonical_key(comp), fam, COUNTING)
        assert -1e-12 <= local_increment(rec, COUNTING) <= math.log(2) + 1e-12
        rec = solve_block(canonical_key(comp), fam, zmode)
        assert -1e-12 <= local_increment(rec, zmode) <= zbound + 1e-12


def test_dilation_invariance_of_increments():
    rng = random.Random(5150)
    for _ in range(50):
        d = rng.randint(1, 25)
        t = rng.randint(d, d + 20)
        m = rng.randint(2, 5)
        base = rooted_component(d, t)
        scaled_elems = divisor_connected_component(
            [m * v for v in range(d, t + 1)], m * d
        )
        scaled = RootedComponent(scaled_elems, scaled_elems.index(m * d))
        assert scaled.elements == tuple(m * v for v in base.elements)
        assert canonical_key(base) == canonical_key(scaled)
        fam = rng.choice((TWO_FORK, CHAIN2, FOREST))
        # the scaled sets' searches build their masks over the scaled integers and
        # divide every key by a gcd of at least m; each search runs on a cleared
        # memo, which the other's entries, under the same keys, would answer
        for S in (base.elements, [v for v in base.elements if v != d]):
            clear_caches()
            P = size_polynomial(S, fam)
            clear_caches()
            assert size_polynomial([m * v for v in S], fam) == P
    clear_caches()


def test_node_limit_raises_resource_error(monkeypatch):
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "5")
    clear_caches()
    with pytest.raises(ResourceLimitError):
        size_polynomial(range(1, 25), TWO_FORK)
    clear_caches()


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-3", "2.5", "nan", "inf", "True"])
def test_node_limit_env_must_be_a_positive_integer(monkeypatch, raw):
    # only a positive integer is a budget: a nan or inf one would never run out
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", raw)
    with pytest.raises(ValueError, match=re.escape(f"DIVBOUND_NODE_LIMIT must be a positive integer, got {raw!r}")):
        solver.resolve_node_limit()
    clear_caches()
    with pytest.raises(ValueError, match="DIVBOUND_NODE_LIMIT"):
        size_polynomial(range(1, 25), TWO_FORK)
    assert not solver._MEMO.get(TWO_FORK.family_hash)
    clear_caches()


def test_node_limit_env_unset_or_empty_is_the_default(monkeypatch):
    assert solver.resolve_node_limit() == solver.DEFAULT_NODE_LIMIT
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "")
    assert solver.resolve_node_limit() == solver.DEFAULT_NODE_LIMIT


def test_one_vertex_pattern_admits_only_the_empty_set():
    # the pattern lies in every nonempty set, so the search answers before any node
    single = family_from_json({"patterns": [{"vertices": 1, "edges": []}]})
    clear_caches()
    assert size_polynomial(range(1, 30), single) == (1,)
    key = canonical_key(rooted_component(1, 30))
    for mode in (DENSITY, COUNTING, partition_mode(2)):
        assert local_increment(solve_block(key, single, mode), mode) == 0
    assert not solver._MEMO.get(single.family_hash)
    clear_caches()


def test_large_block_solves_within_ten_thousand_nodes(monkeypatch):
    # branching on the most constrained element solves {1..60} in 7,470 nodes;
    # branching on the most comparable one gives the same count after 398,574
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "10000")
    clear_caches()
    assert COUNTING.value(size_polynomial(range(1, 61), TWO_FORK)) == 271422412615740
    clear_caches()


def test_solve_block_resource_error_names_key(monkeypatch):
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "2")
    clear_caches()
    comp = rooted_component(1, 16)
    with pytest.raises(ResourceLimitError) as info:
        solve_block(canonical_key(comp), TWO_FORK, COUNTING)
    assert info.value.key is not None
    assert "root 1" in str(info.value)
    clear_caches()


@pytest.mark.parametrize(
    "key",
    [
        CanonicalKey((2, 1), 1),
        CanonicalKey((1, 2, 2), 1),
        CanonicalKey((2, 4), 2),
        CanonicalKey((1, 2), 3),
        CanonicalKey((), 1),
        CanonicalKey((0, 1), 1),
        CanonicalKey((-1, 1), 1),
        # a list cannot be hashed for the stored-pair lookup
        CanonicalKey([1, 2], 1),
    ],
    ids=["unsorted", "duplicate", "gcd-2", "root-outside", "empty", "zero", "negative", "list"],
)
def test_solve_block_rejects_keys_not_canonical(key):
    clear_caches()
    with pytest.raises(ValueError):
        solve_block(key, TWO_FORK, COUNTING)
    assert not solver._PAIRS[TWO_FORK.family_hash]
    clear_caches()


def test_solve_block_takes_keys_not_divisor_connected():
    # 5 joins neither 2 nor 4, so it adds one free element to every admissible set
    clear_caches()
    rec = solve_block(CanonicalKey((2, 4, 5), 2), TWO_FORK, COUNTING)
    assert (rec.count_full, rec.count_deleted) == (8, 4)
    clear_caches()


def test_solved_key_is_answered_without_search(monkeypatch):
    clear_caches()
    key = canonical_key(rooted_component(3, 40))
    rec = solve_block(key, TWO_FORK, COUNTING)
    built = _count_searches(monkeypatch)

    def unchecked(S):
        raise AssertionError("a stored pair is not checked again")

    monkeypatch.setattr(solver, "validated_elements", unchecked)
    assert solve_block(key, TWO_FORK, COUNTING) == rec
    assert solve_block(key, TWO_FORK, DENSITY).key == key
    assert not built
    clear_caches()


def _count_searches(monkeypatch) -> list:
    """Replace solver._Search by a subclass that records the arguments of each build."""
    built = []

    class Counted(solver._Search):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "_Search", Counted)
    return built


def test_solve_block_builds_one_search(monkeypatch):
    # the root-deleted set is valued by the full set's search, under its node budget
    clear_caches()
    built = _count_searches(monkeypatch)
    comp = rooted_component(2, 40)
    rec = solve_block(canonical_key(comp), TWO_FORK, COUNTING)
    assert len(built) == 1
    deleted = [v for v in comp.elements if v != comp.root]
    assert (rec.count_full, rec.count_deleted) == (
        COUNTING.value(size_polynomial(comp.elements, TWO_FORK)),
        COUNTING.value(size_polynomial(deleted, TWO_FORK)),
    )
    clear_caches()


def test_one_search_serves_every_mode(monkeypatch):
    clear_caches()
    built = _count_searches(monkeypatch)
    calls = []
    real = solver.is_admissible_with

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "is_admissible_with", counting)
    comp = rooted_component(1, 16)
    density = solve_block(canonical_key(comp), TWO_FORK, DENSITY)
    assert calls
    searched = len(calls)
    counting_rec = solve_block(canonical_key(comp), TWO_FORK, COUNTING)
    partition = solve_block(canonical_key(comp), TWO_FORK, partition_mode(2))
    assert len(calls) == searched
    assert len(built) == 1
    assert (density.size_full, counting_rec.count_full) == (
        DENSITY.value(size_polynomial(comp.elements, TWO_FORK)),
        COUNTING.value(size_polynomial(comp.elements, TWO_FORK)),
    )
    assert partition.partition_full == partition_mode(2).value(size_polynomial(comp.elements, TWO_FORK))
    # the block's pair is dropped with the memo, so solving it again repeats the search
    clear_caches()
    del built[:], calls[:]
    assert solve_block(canonical_key(comp), TWO_FORK, COUNTING) == counting_rec
    assert len(built) == 1
    assert len(calls) == searched
    clear_caches()


def test_failed_search_stores_nothing(monkeypatch):
    clear_caches()
    comp = rooted_component(1, 16)
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "2")
    with pytest.raises(ResourceLimitError):
        solve_block(canonical_key(comp), TWO_FORK, COUNTING)
    # each search reads the budget when it starts: this one has the default
    monkeypatch.delenv("DIVBOUND_NODE_LIMIT")
    rec = solve_block(canonical_key(comp), TWO_FORK, COUNTING)
    deleted = [v for v in comp.elements if v != comp.root]
    assert (rec.count_full, rec.count_deleted) == (
        COUNTING.value(size_polynomial(comp.elements, TWO_FORK)),
        COUNTING.value(size_polynomial(deleted, TWO_FORK)),
    )
    clear_caches()


def _horner_loop(P, z):
    """Horner's rule in the arithmetic of z: Fraction operations for a Fraction z."""
    acc = 0
    for a in reversed(P):
        acc = acc * z + a
    return acc


def test_partition_value_is_integer_horner():
    rng = random.Random(0xC0FFEE)
    fixed = [Fraction(2), Fraction(3, 2), Fraction(1, 3), Fraction(10**9, 7)]
    for i in range(2400):
        z = fixed[i % 4] if i < 400 else Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        top = rng.choice((1, 10**6, 10**30))
        P = (1, *(rng.randint(0, top) for _ in range(rng.randint(0, 40))))
        got = partition_mode(z).value(P)
        assert type(got) is Fraction
        assert got == _horner_loop(P, z), (P, z)
    # a float pressure is valued at the Fraction equal to it, exactly
    for _ in range(500):
        z = rng.choice((0.7, 2.0, 1e-3, rng.uniform(0.01, 50.0)))
        P = (1, *(rng.randint(0, 10**30) for _ in range(rng.randint(0, 30))))
        got = partition_mode(z).value(P)
        assert type(got) is Fraction and got == _horner_loop(P, Fraction(z)), (P, z)


@pytest.mark.parametrize(
    "name, d, t, calls, nodes",
    [
        # an include tests the undecided elements a copy through the new element
        # can reach, once per chosen mask, and drops the blocked ones before the
        # child is keyed, so matcher calls and nodes differ
        ("two-fork", 1, 30, 754, 186),
        ("two-fork", 6, 60, 301, 265),
        # chain:3 factors its free elements out before a state is keyed; without
        # that these two take 59 and 1,940 nodes. One free-element pass serves the
        # full set and the set without the root, which re-tests only the root's
        # neighbours: a pass per set makes 73 and 634 calls
        ("chain:3", 10, 60, 60, 10),
        # 29 elements; without pruning the full-set search alone passes 400,000 nodes,
        # and radius 2 (the undirected diameter) instead of the closure's 1 takes
        # 17,253
        ("chain:3", 6, 60, 606, 147),
        # forest families keep every chosen element, so only the branching rule and
        # the dropping of blocked elements move this count
        ("forest", 1, 16, 2057, 2008),
        # the forks' placement plans differ from two-fork's, and r-fork:3 takes the
        # most verdicts from the parent's
        ("r-fork:3", 1, 30, 6085, 1626),
        ("in-fork:2", 6, 60, 498, 431),
    ],
    ids=["two-fork-1-30", "two-fork-6-60", "chain3-10-60", "chain3-6-60", "forest-1-16", "r-fork3-1-30", "in-fork2-6-60"],
)
def test_search_tree_is_pinned(monkeypatch, name, d, t, calls, nodes):
    # a changed branching rule, component split or pruning changes these counts;
    # every search here stays within 50,000 nodes, and each node is one memo entry
    fam = builtin_family(name)
    clear_caches()
    made = []
    real = solver.is_admissible_with

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "is_admissible_with", counting)
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "50000")
    solve_block(canonical_key(rooted_component(d, t)), fam, COUNTING)
    assert len(made) == calls
    assert sum(len(memo) for memo in solver._MEMO.values()) == nodes
    clear_caches()


def decode(key):
    """The (undecided, chosen) value tuples of a memo key: a str of code points or a
    tuple of ints, with 0 between the two parts."""
    values = tuple(map(ord, key)) if isinstance(key, str) else key
    cut = values.index(0)
    return values[:cut], values[cut + 1 :]


def unpack(P, r):
    """The coefficient tuple of a memo value packed in slots of 32 * (r // 32 + 1)
    bits, r being the number of undecided values in its key."""
    w = 32 * (r // 32 + 1)
    return tuple((P >> (w * k)) & ((1 << w) - 1) for k in range(-(-P.bit_length() // w)))


@pytest.mark.parametrize(
    "name, d, t, digest",
    [
        ("two-fork", 1, 30, "948aed8820eab40aac6cb99be78f5ffc24210bc1124d18f8f80f80be5d6dd657"),
        ("two-fork", 6, 60, "30c9f5eb12c40394be3f3a8088f4575adaa6b86e2a33ebeff0fb967dab85d80d"),
        ("chain:3", 10, 60, "5e4aacdbffdcb0014e57390f430b90a395033d963cce8c30b0479e814be0e8fa"),
    ],
    ids=["two-fork-1-30", "two-fork-6-60", "chain3-10-60"],
)
def test_memo_contents_are_pinned(name, d, t, digest):
    # a key built another way can still give right values, yet stop matching the
    # same component met in another block or mode; these hashes pin every entry
    fam = builtin_family(name)
    clear_caches()
    solve_block(canonical_key(rooted_component(d, t)), fam, COUNTING)
    memo = solver._MEMO[fam.family_hash]
    items = sorted((key, unpack(P, len(key[0]))) for key, P in zip(map(decode, memo), memo.values()))
    assert hashlib.sha256(repr(items).encode()).hexdigest() == digest
    clear_caches()


@pytest.mark.parametrize("name", ["two-fork", "r-fork:3", "in-fork:2", "chain:2", "chain:3", "forest"])
def test_size_polynomial_on_scaled_sets(name):
    # gaps split the sets into several components, scales 6 and 35 give every
    # component a gcd above 1; the reference enumerates with is_admissible alone
    fam = builtin_family(name)
    rng = random.Random(name)
    clear_caches()
    for scale in (1, 6, 35):
        for _ in range(2):
            S = sorted(scale * v for v in rng.sample(range(1, 41), rng.randint(8, 14)))
            hist = [
                sum(1 for combo in itertools.combinations(S, r) if is_admissible(combo, fam))
                for r in range(len(S) + 1)
            ]
            while hist[-1] == 0:
                hist.pop()
            assert size_polynomial(S, fam) == tuple(hist), (name, S)
    clear_caches()


MIXED_PATH = family_from_json(
    {
        "patterns": [
            {
                "vertices": 4,
                "edges": [
                    {"from": 0, "to": 1, "directed": True},
                    {"from": 2, "to": 1, "directed": False},
                    {"from": 2, "to": 3, "directed": True},
                ],
            }
        ]
    },
    "mixed-path",
)
# chain:3 (closure diameter 1) and the fence a|b, c|b, c|d, e|d (diameter 4, as no
# directed path has two edges): a radius of 2 misses fence copies on the semiprime
# set below
CHAIN_AND_FENCE = family_from_json(
    {
        "patterns": [
            {
                "vertices": 3,
                "edges": [{"from": 0, "to": 1, "directed": True}, {"from": 1, "to": 2, "directed": True}],
            },
            {
                "vertices": 5,
                "edges": [
                    {"from": 0, "to": 1, "directed": True},
                    {"from": 2, "to": 1, "directed": True},
                    {"from": 2, "to": 3, "directed": True},
                    {"from": 4, "to": 3, "directed": True},
                ],
            },
        ]
    },
    "chain-and-fence",
)


# three pairwise comparable elements: the undirected twin of chain:3, with the
# same sets and the same radius 1 (chain:3's through its closure)
TRIANGLE = family_from_json(
    {
        "patterns": [
            {
                "vertices": 3,
                "edges": [{"from": a, "to": b, "directed": False} for a, b in ((0, 1), (0, 2), (1, 2))],
            }
        ]
    },
    "triangle",
)


# a|b|c plus an undirected edge c-d: the closure adds a-c, so a copy reaches two
# steps (a to d through c), not the path's three
CHAIN_THEN_EDGE = family_from_json(
    {
        "patterns": [
            {
                "vertices": 4,
                "edges": [
                    {"from": 0, "to": 1, "directed": True},
                    {"from": 1, "to": 2, "directed": True},
                    {"from": 2, "to": 3, "directed": False},
                ],
            }
        ]
    },
    "chain-then-edge",
)


@pytest.mark.parametrize(
    "fam, radius",
    [
        (builtin_family("chain:4"), 1),
        (builtin_family("r-fork:3"), 2),
        (MIXED_PATH, 3),
        (CHAIN_AND_FENCE, 4),
        (TRIANGLE, 1),
        (CHAIN_THEN_EDGE, 2),
    ],
    ids=["chain4", "r-fork3", "mixed-path", "chain-and-fence", "triangle", "chain-then-edge"],
)
def test_pruned_search_matches_enumeration(monkeypatch, fam, radius):
    # the search drops chosen elements farther than the largest closure diameter
    # from every undecided one; the reference enumerates with is_admissible alone.
    # At radius 1 a set that holds no copy has only free elements, so its search
    # keys nothing and has nothing to prune
    pruned = []
    real = solver._Search._near

    def near(self, start, chosen, steps):
        assert self.radius == radius
        kept = real(self, start, chosen, steps)
        # _blocked walks radius - 1 steps from the element it adds; only a walk of
        # radius steps prunes a state
        if steps == self.radius:
            pruned.append(kept != chosen)
        return kept

    monkeypatch.setattr(solver._Search, "_near", near)
    sets = [
        list(range(1, 13)),
        [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36, 48],
        [2, 3, 5, 7, 11, 6, 10, 14, 15, 21, 35, 22, 33, 55],
    ]
    for S in sets:
        clear_caches()
        pruned.clear()
        hist = [
            sum(1 for combo in itertools.combinations(S, r) if is_admissible(combo, fam))
            for r in range(len(S) + 1)
        ]
        while hist[-1] == 0:
            hist.pop()
        assert size_polynomial(S, fam) == tuple(hist), S
        if radius == 1 and is_admissible(S, fam):
            assert not solver._MEMO[fam.family_hash], S
        else:
            assert any(pruned), S
    clear_caches()


def test_free_elements_are_factored_out():
    # no 3-chain fits in 10..39, as its smallest element would be at most 39 // 4,
    # so every element is free: the polynomial is (1 + x)**30, with no state keyed
    fam = builtin_family("chain:3")
    clear_caches()
    assert size_polynomial(range(10, 40), fam) == tuple(math.comb(30, k) for k in range(31))
    assert not solver._MEMO[fam.family_hash]
    # 1 | 2 | 4 is the only 3-chain here, so the 40 primes are free and only states
    # of 1, 2 and 4 are keyed; their value 1 + 3x + 3x**2 is widened from 32-bit to
    # the 43 elements' 64-bit slots before it is multiplied by (1 + x)**40
    P = size_polynomial([1, 2, 4, *primes_up_to(400)[2:42]], fam)
    assert P == tuple(sum(math.comb(40, k - j) * a for j, a in enumerate((1, 3, 3)) if k >= j) for k in range(43))
    assert all(len(decode(key)[0]) <= 3 for key in solver._MEMO[fam.family_hash])
    clear_caches()


def admissible_histograms(elements, root, fam):
    """The size histograms of the admissible subsets of elements, and of those
    without root, for a family whose every pattern has k vertices: a copy's image
    is k elements, so a set is admissible when each of its k-subsets is, and
    is_admissible decides the k-subsets. Sets grow in increasing order, so a copy
    is caught at its largest element."""
    n = len(elements)
    (k,) = {p.vertex_count for p in fam.patterns}
    below = [[] for _ in range(n)]
    for combo in itertools.combinations(range(n), k):
        if not is_admissible([elements[i] for i in combo], fam):
            below[combo[-1]].append(sum(1 << i for i in combo[:-1]))
    full, deleted = [0] * (n + 1), [0] * (n + 1)
    r = elements.index(root)
    stack = [(0, 0, 0)]
    while stack:
        S, start, size = stack.pop()
        full[size] += 1
        deleted[size] += not S >> r & 1
        stack += [(S | 1 << j, j + 1, size + 1) for j in range(start, n) if all(g & S != g for g in below[j])]
    return full, deleted


@pytest.mark.parametrize(
    "fam", [builtin_family("chain:3"), builtin_family("chain:4"), TRIANGLE], ids=["chain3", "chain4", "triangle"]
)
def test_block_pairs_match_enumeration_on_factoring_families(fam):
    # one free-element pass serves a block's full set and its set without the root:
    # a free root's removal frees nothing, and a root in a copy frees only its
    # neighbours. Every block of at most 18 elements with t <= 40, all three modes
    keys = {canonical_key(rooted_component(d, t)) for t in range(1, 41) for d in range(1, t + 1)}
    keys = [key for key in keys if len(key.normalized_elements) <= 18]
    assert len(keys) == 55
    clear_caches()
    for key in keys:
        hists = admissible_histograms(key.normalized_elements, key.root_value, fam)
        for mode in (DENSITY, COUNTING, partition_mode(2)):
            rec = solve_block(key, fam, mode)
            want = tuple(mode.value(tuple(h[: max(j for j, a in enumerate(h) if a) + 1])) for h in hists)
            got = {
                "density": (rec.size_full, rec.size_deleted),
                "counting": (rec.count_full, rec.count_deleted),
                "partition": (rec.partition_full, rec.partition_deleted),
            }[mode.kind]
            assert got == want, (key, mode)
    clear_caches()


def test_block_with_a_free_root():
    # no 3-chain fits in 32..63, so every element is free, the root 32 too: the full
    # set packs (1 + x)**32 in 64-bit slots, the set without the root (1 + x)**31 in
    # 32-bit ones, and the root's counting increment is log 2
    fam = builtin_family("chain:3")
    key = CanonicalKey(tuple(range(32, 64)), 32)
    clear_caches()
    rec = solve_block(key, fam, COUNTING)
    full = sum(math.comb(32, k) << 64 * k for k in range(33))
    deleted = sum(math.comb(31, k) << 32 * k for k in range(32))
    assert solver._PAIRS[fam.family_hash][key] == (full, deleted)
    assert (rec.count_full, rec.count_deleted) == (2**32, 2**31)
    assert local_increment(rec, COUNTING) == math.log(2)
    assert not solver._MEMO[fam.family_hash]
    clear_caches()


def test_widen_is_the_one_width_rule():
    # a polynomial over r undecided elements widens to the slots of r2 >= r with
    # the same coefficients, and is returned as it is when the width is the same.
    # The constant 1 (r = 0) packs to 1 at every width, a small int CPython shares,
    # so a new width is told by a new value for every r >= 1
    sizes = (0, 1, 31, 32, 33, 63, 64, 95, 96)
    for r in sizes:
        P = 1
        for _ in range(r):
            P += P << solver._width(r)
        for r2 in sizes:
            if r2 < r:
                continue
            wide = solver._widen(P, r, r2)
            assert solver._unpack(wide, solver._width(r2)) == solver._unpack(P, solver._width(r)), (r, r2)
            if r >> 5 == r2 >> 5:
                assert wide is P, (r, r2)
            else:
                assert (wide == P) == (r == 0), (r, r2)


@pytest.mark.parametrize(
    "fam, radius, t",
    [(TWO_FORK, 2, 30), (builtin_family("chain:3"), 1, 18), (TRIANGLE, 1, 24), (MIXED_PATH, 3, 18)],
    ids=["two-fork", "chain3", "triangle", "mixed-path"],
)
def test_memo_keys_hold_only_near_chosen_elements(fam, radius, t):
    # every memo key keeps only chosen values within radius steps of an undecided
    # one through chosen ones
    clear_caches()
    solve_block(canonical_key(rooted_component(1, t)), fam, COUNTING)
    for rest, chosen in map(decode, solver._MEMO[fam.family_hash]):
        near, frontier = set(), set(rest)
        for _ in range(radius):
            frontier = {c for c in chosen if c not in near and any(c % a == 0 or a % c == 0 for a in frontier)}
            near |= frontier
        assert near == set(chosen), (rest, chosen)
    clear_caches()


@pytest.mark.parametrize("name, extra", [("two-fork", (0, 1, 70)), ("chain:2", (0, 1))])
def test_size_polynomial_beyond_one_word(name, extra):
    # 70 undecided elements pack in 96-bit slots, and C(70, 35) has 67 bits; the
    # second set joins 1 below 70 primes, so one search crosses the 32- and 64-bit
    # widths. Any admissible set with 1 holds at most one prime (two-fork) or none
    fam = builtin_family(name)
    binomial = tuple(math.comb(70, k) for k in range(71))
    clear_caches()
    assert size_polynomial(range(71, 141), fam) == binomial
    with_one = tuple(a + b for a, b in itertools.zip_longest(binomial, extra, fillvalue=0))
    assert size_polynomial([1, *primes_up_to(400)[:70]], fam) == with_one
    clear_caches()


def admissible_with(S, x, fam):
    """The search's matcher on the admissible set S and the element x outside it."""
    elements = tuple(sorted({*S, x}))
    search = solver._Search(fam, elements)
    chosen = sum(1 << j for j, v in enumerate(elements) if v != x)
    return solver.is_admissible_with(search, chosen, elements.index(x))


def test_matcher_examples():
    assert not admissible_with({2, 4}, 1, TWO_FORK)
    assert not admissible_with({2, 4}, 8, TWO_FORK)
    assert admissible_with({4, 6}, 5, TWO_FORK)
    # 6 joins 2 and 3, which 1 already joins: a cycle; 5 touches only 1
    assert not admissible_with({1, 2, 3}, 6, FOREST)
    assert admissible_with({1, 2, 3}, 5, FOREST)
    # a one-vertex pattern has an empty plan: every element is a copy
    single = family_from_json({"patterns": [{"vertices": 1, "edges": []}]}, "single")
    assert not admissible_with(set(), 7, single)


@pytest.mark.parametrize(
    "fam",
    [
        *map(builtin_family, ("two-fork", "r-fork:3", "in-fork:2", "in-fork:3", "chain:2", "chain:3", "chain:4", "forest")),
        CHAIN_AND_FENCE,
    ],
    ids=lambda fam: fam.name,
)
def test_matcher_matches_is_admissible(fam):
    # is_admissible runs on the search's matcher, so the matcher is held against
    # predicates that share no code with it: every vertex assignment of each
    # pattern, and the edge count of a forest. The search calls its matcher only on
    # admissible chosen sets and x outside them
    rng = random.Random(fam.name)
    outcomes = []
    while len(outcomes) < 150:
        S = set(rng.sample(range(1, 61), rng.randint(0, 10)))
        x = rng.randint(1, 60)
        if x in S or not independent.admissible(S, fam):
            continue
        outcomes.append(admissible_with(S, x, fam))
        assert outcomes[-1] == independent.admissible(S | {x}, fam), (S, x)
    assert True in outcomes and False in outcomes


def test_near_keeps_every_chosen_element_at_radius_zero():
    # forest families prune nothing, so a chosen element stays however far it is
    search = solver._Search(FOREST, (1, 2, 3, 4))
    assert search.radius == 0
    assert search._near(0b1, 0b110, search.radius) == 0b110
    # 2 and 9 are not comparable
    assert solver._Search(FOREST, (2, 3, 4, 9))._near(0b1, 0b1000, 0) == 0b1000


@pytest.mark.parametrize("name", ["two-fork", "r-fork:3", "in-fork:2", "chain:2", "chain:3", "forest"])
def test_state_value_matches_brute_force(name):
    # a state's size polynomial counts the sets A of its undecided elements with
    # chosen + A admissible. value() takes a state whose undecided elements are
    # each admissible with chosen, as the search drops the blocked ones before it
    # keys a state; they are in no A, so the smaller state has the same polynomial.
    # The reference enumerates A over every undecided element with the predicates
    # of tests/independent.py on the whole chosen set
    fam = builtin_family(name)
    rng = random.Random(f"states of {name}")
    several = 0
    for _ in range(60):
        pool = tuple(sorted(rng.sample(range(1, 25), rng.randint(6, 11))))
        # chosen grows greedily, in random order, to a random size
        size = rng.randint(1, len(pool) - 2)
        chosen_values = []
        for v in rng.sample(pool, len(pool)):
            if len(chosen_values) < size and independent.admissible([*chosen_values, v], fam):
                chosen_values.append(v)
        rest_values = [v for v in pool if v not in chosen_values]
        hist = [
            sum(1 for A in itertools.combinations(rest_values, k) if independent.admissible([*chosen_values, *A], fam))
            for k in range(len(rest_values) + 1)
        ]
        while hist[-1] == 0:
            hist.pop()
        free = [v for v in rest_values if independent.admissible([*chosen_values, v], fam)]
        several += len(rest_values) - len(free) >= 2
        clear_caches()
        search = solver._Search(fam, pool)
        rest = sum(1 << pool.index(v) for v in free)
        chosen = sum(1 << pool.index(v) for v in chosen_values)
        P = search.value(rest, search._near(rest, chosen, search.radius))
        assert solver._unpack(P, solver._width(len(free))) == tuple(hist), (pool, chosen_values, rest_values)
    assert several >= 5, several
    clear_caches()


@pytest.mark.parametrize(
    "name, blocks",
    [
        ("two-fork", [(1, 24), (6, 60)]),
        ("chain:3", [(1, 30), (10, 60)]),
        ("in-fork:2", [(6, 60), (10, 60)]),
        ("r-fork:3", [(1, 30)]),
        ("forest", [(1, 16)]),
    ],
    ids=["two-fork", "chain3", "in-fork2", "r-fork3", "forest"],
)
def test_memo_keys_hold_no_blocked_element(name, blocks):
    # an include drops what its new chosen element blocks before the child is
    # keyed, testing only what a copy through that element can reach and taking
    # every other verdict from the parent; a verdict seeded wrongly keys a state
    # with a blocked undecided element. The decoded values are checked with the
    # predicates of tests/independent.py
    fam = builtin_family(name)
    clear_caches()
    for d, t in blocks:
        solve_block(canonical_key(rooted_component(d, t)), fam, COUNTING)
    states = list(map(decode, solver._MEMO[fam.family_hash]))
    assert sum(len(chosen) >= 2 for _, chosen in states) >= 20
    for rest, chosen in states:
        for u in rest:
            assert independent.admissible([*chosen, u], fam), (rest, chosen, u)
    clear_caches()


def test_str_and_tuple_keys_share_one_memo():
    # 3 * 2**21 is above the largest code point, so with gcd 1 the whole set is
    # keyed by a tuple, while its parts with gcd 3 * 2**21 get str keys
    clear_caches()
    assert size_polynomial({1, 3 * 2**21, 3 * 2**22}, TWO_FORK) == (1, 3, 3)
    assert size_polynomial({1, 2, 4}, TWO_FORK) == (1, 3, 3)
    assert {type(key) for key in solver._MEMO[TWO_FORK.family_hash]} == {str, tuple}
    # 1 divides the other three, so every triple with 1 is a fork
    assert size_polynomial({1, 3 * 2**21, 3 * 2**22, 5}, TWO_FORK) == (1, 4, 6, 1)
    assert size_polynomial({1, 2, 4, 5}, TWO_FORK) == (1, 4, 6, 1)
    clear_caches()


def test_bool_elements_are_rejected():
    # True == 1, but a bool is not an element
    for S in ([True, 2, 4], [1, True], [False]):
        with pytest.raises(ValueError):
            size_polynomial(S, TWO_FORK)


def test_memo_is_shared_across_scaled_blocks():
    clear_caches()
    a = COUNTING.value(size_polynomial([3, 6, 12], TWO_FORK))
    b = COUNTING.value(size_polynomial([5, 10, 20], TWO_FORK))
    assert a == b


def test_mode_tags_and_bounds():
    assert DENSITY.tag == "density"
    assert COUNTING.tag == "counting"
    assert partition_mode(2).tag == "partition:2"
    assert DENSITY.increment_bound == 1.0
    assert COUNTING.increment_bound == pytest.approx(math.log(2))
    assert partition_mode(3).increment_bound == pytest.approx(math.log(4))


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode("nonsense", None)
    with pytest.raises(ValueError):
        partition_mode(Fraction(-1, 2))
    for z in (Fraction(10) ** 400, math.inf, math.nan, 0, -1.5, float("nan")):
        with pytest.raises(ValueError):
            partition_mode(z)


def test_partition_pressure_is_exact():
    for z in (0.5, 2.0, 0.1, 1e-300, 1e300, 3, Fraction(7, 3)):
        mode = partition_mode(z)
        assert type(mode.pressure) is Fraction and mode.pressure == Fraction(z)
    assert partition_mode(0.5) == partition_mode(Fraction(1, 2))
    assert partition_mode(2.0).tag == partition_mode(2).tag == "partition:2"
    # 0.1 is a binary fraction close to, not equal to, 1/10
    assert partition_mode(0.1) != partition_mode(Fraction(1, 10))
    # the range check runs before the conversion, so these raise ValueError, not
    # OverflowError, and True is not the pressure 1
    for z in (float("inf"), float("nan"), True):
        with pytest.raises(ValueError):
            Mode("partition", z)


def test_large_elements_stay_exact():
    # counts must stay exact beyond 64-bit float precision territory
    big = [2 ** 50, 2 ** 51, 3 ** 33]
    assert COUNTING.value(size_polynomial(big, CHAIN2)) == 6  # {2^50, 2^51} is the only divisor pair
    assert DENSITY.value(size_polynomial(big, CHAIN2)) == 2
