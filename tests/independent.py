"""Admissibility predicates that share no code with divbound.patterns.Checker, the
one matcher that is_admissible, the oracle and the solver's search run on, and a
closure diameter that shares none with divbound.patterns.Pattern."""

import itertools


def brute_contains(S, pattern):
    """Independent containment check: try every injective vertex assignment."""
    elems = sorted(S)
    if len(elems) < pattern.vertex_count:
        return False
    for images in itertools.permutations(elems, pattern.vertex_count):
        ok = True
        for u, v, directed in pattern.edges:
            a, b = images[u], images[v]
            if directed:
                if b % a != 0:
                    ok = False
                    break
            elif a % b != 0 and b % a != 0:
                ok = False
                break
        if ok:
            return True
    return False


def acyclic_by_edge_count(S):
    """Independent forest test: the divisor graph on S is acyclic iff it has
    exactly |S| - (number of components) edges."""
    S = sorted(set(S))
    edges = sum(
        1 for i, a in enumerate(S) for b in S[i + 1:] if b % a == 0
    )
    comps = 0
    seen = set()
    for v in S:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(w for w in S if w != u and (w % u == 0 or u % w == 0))
    return edges == len(S) - comps


def admissible(S, family):
    """Does S avoid every pattern of family, and cycles when it forbids them?"""
    if family.forbid_cycles and not acyclic_by_edge_count(S):
        return False
    return not any(brute_contains(S, p) for p in family.patterns)


def closure_diameter(vertex_count, edges):
    """Largest distance, edge directions ignored, in the comparability closure of a
    pattern: its edges plus u-w for every directed path from u to w. Warshall's
    transitive closure of the directed edges, then Floyd-Warshall distances."""
    n = vertex_count
    reach = [[False] * n for _ in range(n)]
    for u, w, directed in edges:
        reach[u][w] = directed
    for k in range(n):
        for u in range(n):
            for w in range(n):
                reach[u][w] = reach[u][w] or (reach[u][k] and reach[k][w])
    dist = [[0 if u == w else n for w in range(n)] for u in range(n)]
    for u, w, _ in edges:
        dist[u][w] = dist[w][u] = 1
    for u in range(n):
        for w in range(n):
            if reach[u][w]:
                dist[u][w] = dist[w][u] = 1
    for k in range(n):
        for u in range(n):
            for w in range(n):
                dist[u][w] = min(dist[u][w], dist[u][k] + dist[k][w])
    return max(max(row) for row in dist)
