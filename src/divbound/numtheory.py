"""Divisor-graph groundwork: smooth numbers, interval divisor graphs, rooted components."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Iterable, Iterator


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return [v for v in range(2, n + 1) if sieve[v]]


def smooth_numbers(i: int, limit: int) -> Iterator[int]:
    """Yield every d <= limit all of whose prime factors are <= i, in increasing order.

    Heap-driven merge; memory scales with the output count, not with limit.
    """
    if i < 1:
        raise ValueError(f"smoothness bound must be >= 1, got {i!r}")
    if limit < 1:
        return
    primes = primes_up_to(i)
    heap = [1]
    seen = {1}
    while heap:
        d = heapq.heappop(heap)
        yield d
        for p in primes:
            m = d * p
            if m <= limit and m not in seen:
                seen.add(m)
                heapq.heappush(heap, m)


def divisor_connected_component(elements: Iterable[int], root: int) -> tuple[int, ...]:
    """Component of `root` in the divisor graph restricted to the given element set,
    in increasing order, by flood fill from root."""
    rest = set(elements)
    if root not in rest:
        raise ValueError(f"root {root} is not among the elements")
    rest.remove(root)
    comp = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        linked = [u for u in rest if u % v == 0 or v % u == 0]
        rest.difference_update(linked)
        comp += linked
        stack += linked
    return tuple(sorted(comp))


@dataclass(frozen=True)
class RootedComponent:
    """Finite divisor-connected set of positive integers with one distinguished element.
    ValueError at construction unless the elements are a tuple of strictly
    increasing positive ints, divisor-connected, and the root index is an int in
    range."""

    elements: tuple[int, ...]
    root_index: int

    def __post_init__(self) -> None:
        elems = self.elements
        # a list would make the frozen instance unhashable and unequal to its tuple twin
        if not isinstance(elems, tuple):
            raise ValueError(f"elements must be a tuple, got {type(elems).__name__}")
        if not elems:
            raise ValueError("a rooted component needs at least one element")
        # bool is a subclass of int, but True is neither the element nor the index 1
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (*elems, self.root_index)):
            raise ValueError(f"elements and root index must be ints, got {elems!r} and {self.root_index!r}")
        if elems[0] < 1 or any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError("elements must be strictly increasing positive integers")
        if not 0 <= self.root_index < len(elems):
            raise ValueError(f"root index {self.root_index} out of range")
        if len(divisor_connected_component(elems, elems[0])) != len(elems):
            raise ValueError("the divisor graph on the elements is not connected")

    @classmethod
    def _connected(cls, elements: tuple[int, ...], root_index: int) -> RootedComponent:
        """Build without validation, for sorted elements already known to be
        divisor-connected; skips the O(n^2) connectivity check of the constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "root_index", root_index)
        return self

    @property
    def root(self) -> int:
        return self.elements[self.root_index]


@dataclass(frozen=True)
class CanonicalKey:
    """Scale-normalized component: elements divided by their gcd, plus the scaled root."""

    normalized_elements: tuple[int, ...]
    root_value: int


def canonical_key(component: RootedComponent) -> CanonicalKey:
    """Identify components up to integer dilation: divide everything by the gcd."""
    g = reduce(gcd, component.elements)
    return CanonicalKey(tuple(e // g for e in component.elements), component.root // g)


def rooted_component(d: int, t: int) -> RootedComponent:
    """Connected component of d in the divisor graph on {d, ..., t}, rooted at d.

    Search from d, generating neighbours arithmetically: multiples k*v <= t and
    divisors v/k >= d. Cost scales with the component size times the ratio t/d,
    never with the interval length, so large d with bounded t/d stays cheap.
    """
    if d < 1 or t < d:
        raise ValueError(f"need 1 <= d <= t, got d={d!r}, t={t!r}")
    seen = {d}
    stack = [d]
    while stack:
        v = stack.pop()
        m = 2 * v
        while m <= t:
            if m not in seen:
                seen.add(m)
                stack.append(m)
            m += v
        k = 2
        while v >= k * d:
            if v % k == 0:
                u = v // k
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
            k += 1
    # connected by construction: every element was reached from d along divisor edges
    elements = tuple(sorted(seen))
    return RootedComponent._connected(elements, elements.index(d))
