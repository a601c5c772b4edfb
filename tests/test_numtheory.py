import math
import random

import pytest

from divbound import numtheory
from divbound.numtheory import (
    CanonicalKey,
    RootedComponent,
    canonical_key,
    divisor_connected_component,
    primes_up_to,
    rooted_component,
    smooth_numbers,
)


def _is_smooth(d, i):
    """No prime factor of d exceeds i, by trial division with the primes up to i."""
    for p in primes_up_to(i):
        while d % p == 0:
            d //= p
    return d == 1


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_smooth_numbers_examples():
    assert list(smooth_numbers(1, 10)) == [1]
    assert list(smooth_numbers(2, 10)) == [1, 2, 4, 8]
    assert list(smooth_numbers(3, 12)) == [1, 2, 3, 4, 6, 8, 9, 12]


def test_smooth_numbers_matches_trial_division():
    for i in (2, 3, 5, 7):
        expected = [d for d in range(1, 201) if _is_smooth(d, i)]
        assert list(smooth_numbers(i, 200)) == expected


def test_smooth_numbers_ascending_and_lazy():
    gen = smooth_numbers(5, 10 ** 9)
    first = [next(gen) for _ in range(12)]
    assert first == sorted(first)
    assert first[0] == 1
    assert all(_is_smooth(d, 5) for d in first[1:])


def test_rooted_component_examples():
    c = rooted_component(2, 5)
    assert c.elements == (2, 4)
    assert c.root == 2
    c = rooted_component(2, 9)
    assert c.elements == (2, 3, 4, 6, 8, 9)
    assert c.root == 2
    for d in (1, 7, 30):
        c = rooted_component(d, d)
        assert c.elements == (d,)
        assert c.root == d


def test_rooted_component_root_is_minimum():
    rng = random.Random(1009)
    for _ in range(200):
        d = rng.randint(1, 60)
        t = rng.randint(d, d + rng.randint(0, 80))
        c = rooted_component(d, t)
        assert c.root == d == min(c.elements)
        assert all(d <= v <= t for v in c.elements)


def test_rooted_component_is_connected_via_divisibility():
    # every element reaches the root through divisor edges inside the set
    c = rooted_component(2, 30)
    elems = set(c.elements)
    seen = {c.root}
    frontier = [c.root]
    while frontier:
        u = frontier.pop()
        for v in elems - seen:
            if u % v == 0 or v % u == 0:
                seen.add(v)
                frontier.append(v)
    assert seen == elems


def test_canonical_key_examples():
    k = canonical_key(RootedComponent((4, 8), 0))
    assert k.normalized_elements == (1, 2)
    assert k.root_value == 1

    c = rooted_component(2, 9)
    k = canonical_key(c)
    assert k.normalized_elements == (2, 3, 4, 6, 8, 9)
    assert k.root_value == 2

    k = canonical_key(RootedComponent((6, 9, 12, 18), 0))
    assert k.normalized_elements == (2, 3, 4, 6)
    assert k.root_value == 2


def test_canonical_key_soundness():
    # equal keys iff the gcd-normalized element lists and roots agree
    rng = random.Random(2027)
    for _ in range(300):
        d = rng.randint(1, 40)
        t = rng.randint(d, d + 50)
        m = rng.randint(1, 6)
        base = rooted_component(d, t)
        scaled_elems = divisor_connected_component([m * v for v in range(d, t + 1)], m * d)
        scaled = RootedComponent(scaled_elems, scaled_elems.index(m * d))
        assert canonical_key(base) == canonical_key(scaled)
        g1 = math.gcd(*base.elements) if len(base.elements) > 1 else base.elements[0]
        norm = tuple(v // g1 for v in base.elements)
        assert canonical_key(base).normalized_elements == norm


def test_divisor_connected_component_subset_semantics():
    pool = [3, 5, 6, 7, 12, 35]
    assert divisor_connected_component(pool, 3) == (3, 6, 12)
    # 7 reaches 5 through 35, so all three share a component
    assert set(divisor_connected_component(pool, 5)) == {5, 7, 35}
    assert set(divisor_connected_component(pool, 7)) == {5, 7, 35}


def test_rooted_component_validates():
    with pytest.raises(ValueError):
        RootedComponent((2, 5), 0)  # disconnected pair
    with pytest.raises((ValueError, IndexError)):
        RootedComponent((2, 4), 5)


@pytest.mark.parametrize(
    "elements, root_index",
    [((1, 2), True), ((1, 2), 1.0), ((1.0, 2.0), 0), ((1, 2.0), 0), ((True, 2), 0)],
)
def test_rooted_component_rejects_non_int_parts(elements, root_index):
    # True is neither the element nor the index 1, and a float is neither
    with pytest.raises(ValueError):
        RootedComponent(elements, root_index)


@pytest.mark.parametrize("elements", [[1, 2], range(1, 3)])
def test_rooted_component_rejects_non_tuple_elements(elements):
    # a list-backed instance would construct, then fail hash() and compare unequal
    # to RootedComponent((1, 2), 0)
    with pytest.raises(ValueError):
        RootedComponent(elements, 0)
    assert hash(RootedComponent((1, 2), 0)) == hash(RootedComponent((1, 2), 0))


def test_rooted_component_skips_connectivity_recheck(monkeypatch):
    calls = []
    real = numtheory.divisor_connected_component

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numtheory, "divisor_connected_component", counting)
    comp = rooted_component(6, 97)
    assert calls == []
    # the public constructor still checks, and accepts the same component
    assert RootedComponent(comp.elements, comp.root_index) == comp
    assert len(calls) == 1


def test_divisor_connected_component_matches_rooted_component():
    assert set(divisor_connected_component(range(3, 51), 3)) == set(rooted_component(3, 50).elements)


def test_canonical_key_hashable_and_distinct():
    # {2,4} and {3,6} are the same block up to scaling; {2,...,9} is not
    k1 = canonical_key(rooted_component(2, 5))
    k2 = canonical_key(rooted_component(3, 7))
    assert k1 == k2
    k3 = canonical_key(rooted_component(2, 9))
    assert k3 != k1
    assert len({k1, k2, k3}) == 2
