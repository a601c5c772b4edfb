import hashlib
import json
import random

import pytest

from divbound.patterns import (
    REL_EITHER,
    AdmissibleFamily,
    Checker,
    Pattern,
    PatternError,
    _distinct_plans,
    builtin_family,
    chain,
    contains_pattern,
    family_from_file,
    family_from_json,
    in_fork,
    is_admissible,
    r_fork,
    two_fork,
)
from divbound.solver import size_polynomial

from independent import acyclic_by_edge_count, brute_contains, closure_diameter


def test_builtin_shapes():
    tf = two_fork()
    assert tf.vertex_count == 3
    assert tf == r_fork(2)
    assert chain(2).vertex_count == 2
    assert len(chain(2).edges) == 1
    inf = in_fork(2)
    assert inf.vertex_count == 3
    assert all(v == 0 for _, v, _ in inf.edges)


def test_checker_adjacency_matches_pairwise_divisibility():
    # adj[i] masks the pool elements comparable with pool[i], against a pairwise
    # scan: sparse pools of large values, a few of them multiples of one another,
    # pools whose elements share a factor, and the oracle's 1..n
    rng = random.Random("checker adjacency")
    fam = builtin_family("two-fork")
    sparse = []
    shared = []
    for _ in range(30):
        base = rng.randint(10**6, 10**9)
        values = {base * rng.randint(1, 40) for _ in range(rng.randint(1, 8))}
        values |= {rng.randint(1, 10**12) for _ in range(rng.randint(0, 8))}
        sparse.append(tuple(sorted(values)))
        g = rng.randint(2, 50)
        shared.append(tuple(sorted(g * v for v in rng.sample(range(1, 200), rng.randint(1, 25)))))
    edges = 0
    for pool in [(), *(tuple(range(1, n + 1)) for n in (1, 2, 24)), *sparse, *shared]:
        want = [
            sum(1 << j for j, b in enumerate(pool) if j != i and (b % a == 0 or a % b == 0))
            for i, a in enumerate(pool)
        ]
        assert Checker(pool, fam).adj == want, pool
        edges += pool in sparse and any(want)
    assert edges >= 10


def test_builder_parameter_validation():
    for bad in (0, 1, -3):
        with pytest.raises(PatternError):
            r_fork(bad)
        with pytest.raises(PatternError):
            in_fork(bad)
        with pytest.raises(PatternError):
            chain(bad)


def test_pattern_rejects_malformed():
    with pytest.raises(PatternError):
        Pattern(2, ((0, 0, True),))  # self-loop
    # disconnected: a forbidden copy could straddle divisor-graph components
    for vertices, edges in [
        (3, ((0, 1, True),)),  # vertex 2 isolated
        (3, ((1, 2, True),)),  # vertex 0 isolated
        (4, ((0, 1, True), (2, 3, False))),  # two 2-vertex parts
        (8, tuple((i, i + 1, True) for i in range(7) if i != 3)),  # a path missing one edge
    ]:
        with pytest.raises(PatternError, match="connected"):
            Pattern(vertices, edges)
    with pytest.raises(PatternError):
        Pattern(2, ((0, 1, True), (0, 1, True)))  # duplicate edge
    with pytest.raises(PatternError):
        Pattern(9, tuple((i, i + 1, True) for i in range(8)))  # too large
    with pytest.raises(PatternError):
        Pattern(2, ((0, 2, True),))  # index out of range
    # mistyped fields are rejected, not coerced, as the file loader rejects them
    for vertices, edges in [
        (3, ((0, 1.9, True), (0, 2, True))),  # int(1.9) would give vertex 1
        (3, ((0, 1, True), (0, 2, "false"))),  # bool("false") is True
        (3, ((0, 1, 1), (0, 2, True))),  # 1 is not a bool flag
        (3, ((0, True, True), (0, 2, True))),  # True is not a vertex index
        (True, ()),
        (2.0, ((0, 1, True),)),
        ("2", ((0, 1, True),)),
    ]:
        with pytest.raises(PatternError):
            Pattern(vertices, edges)


@pytest.mark.parametrize(
    "pattern_args",
    [
        (3, ((0, 1, True), (1, 2, True), (2, 0, True))),
        (4, ((0, 1, True), (1, 2, True), (2, 3, True), (3, 0, True))),
        (4, ((0, 1, True), (1, 2, True), (2, 0, True), (2, 3, False))),
    ],
    ids=["3-cycle", "4-cycle", "3-cycle-with-tail"],
)
def test_pattern_rejects_directed_cycle(pattern_args):
    # proper divisibility is a strict order: no divisor graph has a directed cycle,
    # so such a pattern would forbid nothing and every set would be admissible
    with pytest.raises(PatternError, match="directed cycle"):
        Pattern(*pattern_args)


def test_mixed_cycle_is_accepted_and_matches():
    # a cycle with an undirected edge is no directed cycle: 1 | 2 | 4 with 1 ~ 4
    p = Pattern(3, ((0, 1, True), (1, 2, True), (2, 0, False)))
    assert contains_pattern({1, 2, 4}, p) and brute_contains({1, 2, 4}, p)
    assert not contains_pattern({2, 3, 6}, p)


def test_contains_pattern_examples():
    assert contains_pattern({1, 2, 4}, two_fork())
    assert not contains_pattern({3, 5, 7}, two_fork())
    assert contains_pattern({2, 3, 6}, in_fork(2))
    assert contains_pattern({2, 4, 8}, chain(3))
    assert not contains_pattern({2, 4, 8}, chain(4))


def test_contains_pattern_not_induced():
    # {1,2,4} has the extra edge 2|4; a copy must still be found
    assert contains_pattern({1, 2, 4}, two_fork())
    assert contains_pattern({1, 2, 4}, chain(3))


def test_contains_pattern_matches_permutation_oracle():
    rng = random.Random(40409)
    pats = [two_fork(), r_fork(3), in_fork(2), chain(2), chain(3),
            Pattern(3, ((0, 1, False), (1, 2, True)))]
    for _ in range(150):
        size = rng.randint(0, 7)
        S = set(rng.sample(range(1, 31), size))
        for p in pats:
            assert contains_pattern(S, p) == brute_contains(S, p), (sorted(S), p)


def test_undirected_edges_match_either_orientation():
    p = Pattern(2, ((0, 1, False),))
    assert contains_pattern({2, 4}, p)
    assert contains_pattern({4, 2}, p)
    assert not contains_pattern({4, 6}, p)


def test_is_admissible_examples():
    fam = builtin_family("two-fork")
    assert is_admissible([], fam)
    assert not is_admissible({1, 2, 3}, fam)
    forest = builtin_family("forest")
    assert not is_admissible({2, 3, 5, 6, 15, 10}, forest)
    assert is_admissible({2, 3, 5, 6, 15}, forest)
    assert not is_admissible({1, 2, 4}, forest)  # triangle
    assert is_admissible({1, 2, 3}, forest)  # star


@pytest.mark.parametrize(
    "S",
    [[0, 2], [-1, 2, 3], [1.5, 3], [2, 2.0, 4], [True, 2, 4]],
    ids=["zero", "negative", "float", "int-valued-float", "bool"],
)
def test_elements_must_be_positive_ints(S):
    fam = builtin_family("two-fork")
    with pytest.raises(ValueError):
        is_admissible(S, fam)
    with pytest.raises(ValueError):
        contains_pattern(S, two_fork())
    with pytest.raises(ValueError):
        size_polynomial(S, fam)


def test_downward_closure_random():
    rng = random.Random(7321)
    fams = [builtin_family(s) for s in ("two-fork", "chain:3", "in-fork:2", "forest")]
    for _ in range(120):
        S = set(rng.sample(range(1, 41), rng.randint(0, 10)))
        sub = {x for x in S if rng.random() < 0.5}
        for fam in fams:
            if is_admissible(S, fam):
                assert is_admissible(sub, fam)


def test_coprime_decomposition_random():
    rng = random.Random(9081)
    fams = [builtin_family(s) for s in ("two-fork", "chain:2", "forest")]
    trials = 0
    while trials < 80:
        S1 = set(rng.sample(range(1, 41), rng.randint(1, 6)))
        S2 = set(rng.sample(range(1, 41), rng.randint(1, 6)))
        if S1 & S2:
            continue
        if any(a % b == 0 or b % a == 0 for a in S1 for b in S2):
            continue
        trials += 1
        for fam in fams:
            both = is_admissible(S1 | S2, fam)
            assert both == (is_admissible(S1, fam) and is_admissible(S2, fam))


def test_dilation_invariance_random():
    rng = random.Random(511)
    fams = [builtin_family(s) for s in ("two-fork", "r-fork:3", "chain:4", "forest")]
    for _ in range(100):
        S = set(rng.sample(range(1, 31), rng.randint(0, 8)))
        m = rng.randint(1, 7)
        scaled = {m * x for x in S}
        for fam in fams:
            assert is_admissible(S, fam) == is_admissible(scaled, fam)


def test_pattern_diameter_ignores_directions():
    # the diameter of the comparability closure, whose distances ignore directions:
    # a directed path u -> ... -> w adds the edge u-w, so every chain is a clique
    assert [chain(k).diameter for k in (2, 3, 4, 5)] == [1, 1, 1, 1]
    assert r_fork(4).diameter == in_fork(3).diameter == 2
    assert Pattern(1, ()).diameter == 0
    # a zigzag path: 0 -> 1 <- 2 - 3, and the fence 0 -> 1 <- 2 -> 3 <- 4: no
    # directed path has two edges, so the closure adds nothing
    assert Pattern(4, ((0, 1, True), (2, 1, True), (2, 3, False))).diameter == 3
    assert Pattern(5, ((0, 1, True), (2, 1, True), (2, 3, True), (4, 3, True))).diameter == 4
    # 0 -> 1 -> 2 - 3: the closure adds 0-2 but no 0-3, as undirected edges do not compose
    assert Pattern(4, ((0, 1, True), (1, 2, True), (2, 3, False))).diameter == 2


def test_fork_leaves_share_one_placement_plan():
    # every leaf anchor of a fork gives the same plan, so the matcher runs it once
    assert len(_distinct_plans(two_fork())) == 2
    assert len(_distinct_plans(r_fork(5))) == 2
    assert len(_distinct_plans(chain(3))) == 3


def test_placement_plans_are_pinned():
    # the exact plans the matcher runs, slot and relation per constraint (0: multiple,
    # 1: divisor, 2: either), as first printed before the plans read one neighbour
    # table; a changed order or ranking would show here
    T, F = True, False
    pinned = {
        two_fork(): ((((0, 0),), ((0, 0),)), (((0, 1),), ((1, 0),))),
        r_fork(3): ((((0, 0),), ((0, 0),), ((0, 0),)), (((0, 1),), ((1, 0),), ((1, 0),))),
        in_fork(2): ((((0, 1),), ((0, 1),)), (((0, 0),), ((1, 1),))),
        chain(3): ((((0, 0),), ((1, 0),)), (((0, 1),), ((0, 0),)), (((0, 1),), ((1, 1),))),
        # the fence 0 -> 1 <- 2 -> 3 <- 4
        Pattern(5, ((0, 1, T), (2, 1, T), (2, 3, T), (4, 3, T))): (
            (((0, 0),), ((1, 1),), ((2, 0),), ((3, 1),)),
            (((0, 1),), ((1, 0),), ((0, 1),), ((2, 1),)),
            (((0, 0),), ((0, 0),), ((1, 1),), ((2, 1),)),
            (((0, 1),), ((1, 0),), ((2, 1),), ((0, 1),)),
        ),
        # the zigzag 0 -> 1 <- 2 - 3
        Pattern(4, ((0, 1, T), (2, 1, T), (2, 3, F))): (
            (((0, 0),), ((1, 1),), ((2, 2),)),
            (((0, 1),), ((0, 1),), ((1, 2),)),
            (((0, 0),), ((1, 1),), ((0, 2),)),
            (((0, 2),), ((1, 0),), ((2, 1),)),
        ),
        # 0 -> 1 -> 2 with 0 - 2: steps with two constraints, in edge order
        Pattern(3, ((0, 1, T), (1, 2, T), (2, 0, F))): (
            (((0, 0),), ((0, 2), (1, 0))),
            (((0, 1),), ((1, 2), (0, 0))),
            (((0, 2),), ((1, 0), (0, 1))),
        ),
    }
    for pattern, plans in pinned.items():
        assert _distinct_plans(pattern) == plans, pattern


def _random_connected_acyclic_pattern(rng):
    # a spanning tree plus a few extra edges; directed edges follow a random vertex
    # order, so no directed cycle can form
    v = rng.randint(2, 8)
    order = rng.sample(range(v), v)
    rank = {u: k for k, u in enumerate(order)}
    pairs = {tuple(sorted((order[k], order[rng.randrange(k)]))) for k in range(1, v)}
    for _ in range(rng.randint(0, v)):
        pairs.add(tuple(sorted(rng.sample(range(v), 2))))
    edges = []
    for a, b in sorted(pairs):
        if rng.random() < 0.6:
            edges.append((a, b, True) if rank[a] < rank[b] else (b, a, True))
        else:
            edges.append((a, b, False))
    return Pattern(v, tuple(edges))


def test_random_patterns_have_closure_diameter_and_complete_plans():
    rng = random.Random(2020)
    for _ in range(300):
        p = _random_connected_acyclic_pattern(rng)
        assert p.diameter == closure_diameter(p.vertex_count, p.edges), p
        plans = _distinct_plans(p)
        assert 1 <= len(plans) <= p.vertex_count
        for plan in plans:
            # the anchor, then each other vertex once, each step tied to a placed slot
            assert len(plan) == p.vertex_count - 1, (p, plan)
            for k, step in enumerate(plan):
                assert step and all(0 <= slot <= k for slot, _ in step), (p, plan)
            # every edge becomes one constraint, when its later endpoint is placed
            rels = sorted(rel for step in plan for _, rel in step)
            assert len(rels) == len(p.edges), (p, plan)
            assert rels.count(REL_EITHER) == sum(not directed for _, _, directed in p.edges), (p, plan)


def test_two_fork_semantic_restatement():
    rng = random.Random(12)
    fam = builtin_family("two-fork")
    for _ in range(200):
        S = set(rng.sample(range(1, 41), rng.randint(0, 9)))
        divides_two = any(
            sum(1 for y in S if y != x and y % x == 0) >= 2 for x in S
        )
        assert is_admissible(S, fam) == (not divides_two)


def test_forest_cycle_detection_matches_edge_count():
    rng = random.Random(333)
    forest = builtin_family("forest")
    for _ in range(150):
        S = sorted(set(rng.sample(range(1, 41), rng.randint(0, 9))))
        assert is_admissible(S, forest) == acyclic_by_edge_count(S)


def test_mixed_json_family_matches_independent_checks():
    # an undirected star (one element comparable with three others), a directed
    # fence (a | b, c | b, c | d) and acyclicity: no rule implies another, and a
    # set is admissible exactly when neither pattern has a copy and it is a forest
    def edge(a, b, directed):
        return {"from": a, "to": b, "directed": directed}

    fam = family_from_json({
        "patterns": [
            {"vertices": 4, "edges": [edge(0, 1, False), edge(0, 2, False), edge(0, 3, False)]},
            {"vertices": 4, "edges": [edge(0, 1, True), edge(2, 1, True), edge(2, 3, True)]},
        ],
        "forest": True,
    }, "mixed")
    rng = random.Random(5)
    seen = set()
    for _ in range(200):
        S = set(rng.sample(range(1, 31), rng.randint(0, 7)))
        rules = (not acyclic_by_edge_count(S), *(brute_contains(S, p) for p in fam.patterns))
        assert is_admissible(S, fam) == (not any(rules)), sorted(S)
        seen.add(rules)
    # every rule rejects some set on its own, and some sets pass
    assert {(False, False, False), (True, False, False), (False, True, False), (False, False, True)} <= seen


def test_builtin_family_parsing():
    assert builtin_family("two-fork").name == "two-fork"
    assert builtin_family("two_fork").name == "two-fork"
    assert builtin_family("r-fork:2").patterns == builtin_family("two-fork").patterns
    assert builtin_family("chain:4").name == "chain:4"
    assert builtin_family("forest").forbid_cycles
    with pytest.raises(PatternError):
        builtin_family("pentagon")
    with pytest.raises(PatternError):
        builtin_family("chain:1")
    with pytest.raises(PatternError):
        builtin_family("r-fork:x")


def test_family_hash_stability_and_separation():
    a = builtin_family("two-fork")
    b = builtin_family("two-fork")
    assert a.family_hash == b.family_hash
    assert a.family_hash != builtin_family("chain:2").family_hash
    assert a.family_hash != builtin_family("forest").family_hash
    # every cache file keys its lines by these digests: a changed one makes each
    # existing file inert, so they are pinned, and checked against hashlib's SHA-256
    # of the canonical family JSON
    pinned = {
        "two-fork": ("d84b08e7f815125a", {"patterns": [[3, [[0, 1, True], [0, 2, True]]]], "forest": False}),
        "chain:2": ("a25235ee09673e85", {"patterns": [[2, [[0, 1, True]]]], "forest": False}),
        "forest": ("c78481e808d3136f", {"patterns": [], "forest": True}),
    }
    for name, (digest, payload) in pinned.items():
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        assert builtin_family(name).family_hash == digest == hashlib.sha256(blob).hexdigest()[:16], name


def test_family_from_json_round_trip(tmp_path):
    doc = {
        "patterns": [
            {
                "vertices": 3,
                "edges": [
                    {"from": 0, "to": 1, "directed": True},
                    {"from": 0, "to": 2, "directed": True},
                ],
            }
        ],
        "forest": False,
    }
    fam = family_from_json(doc, "custom")
    assert fam.patterns == (two_fork(),)
    assert fam.family_hash == AdmissibleFamily("x", (two_fork(),)).family_hash

    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    loaded = family_from_file(str(path))
    assert loaded.patterns == fam.patterns


def test_family_from_json_errors_name_pattern_index():
    bad = {"patterns": [
        {"vertices": 3, "edges": [{"from": 0, "to": 1, "directed": True}]},
    ]}
    with pytest.raises(PatternError, match="pattern 0"):
        family_from_json(bad)
    cyclic = {"vertices": 3, "edges": [
        {"from": 0, "to": 1, "directed": True},
        {"from": 1, "to": 2, "directed": True},
        {"from": 2, "to": 0, "directed": True},
    ]}
    with pytest.raises(PatternError, match="pattern 1: pattern has a directed cycle"):
        family_from_json({"patterns": [_one_edge_doc()["patterns"][0], cyclic]})
    with pytest.raises(PatternError):
        family_from_json({"patterns": "nope"})
    with pytest.raises(PatternError):
        family_from_json([1, 2, 3])


def _one_edge_doc(**edge_fields):
    edge = {"from": 0, "to": 1, "directed": True, **edge_fields}
    return {"patterns": [{"vertices": 2, "edges": [edge]}]}


@pytest.mark.parametrize("directed", ["false", "true", 0, 1, None])
def test_family_from_json_rejects_non_boolean_directed(directed):
    with pytest.raises(PatternError, match=r"pattern 0: 'directed' must be a JSON boolean"):
        family_from_json(_one_edge_doc(directed=directed))


@pytest.mark.parametrize("field", ["from", "to"])
@pytest.mark.parametrize("value", [1.9, 1.0, "1", True, None])
def test_family_from_json_rejects_non_integer_endpoints(field, value):
    with pytest.raises(PatternError, match=rf"pattern 0: '{field}' must be a JSON integer"):
        family_from_json(_one_edge_doc(**{field: value}))


@pytest.mark.parametrize("vertices", [2.0, "2", True])
def test_family_from_json_rejects_non_integer_vertex_count(vertices):
    doc = _one_edge_doc()
    doc["patterns"][0]["vertices"] = vertices
    with pytest.raises(PatternError, match=r"pattern 0: 'vertices' must be a JSON integer"):
        family_from_json(doc)


def test_family_from_json_names_the_mistyped_pattern():
    doc = _one_edge_doc()
    doc["patterns"].append(_one_edge_doc(to=1.5)["patterns"][0])
    with pytest.raises(PatternError, match=r"pattern 1: 'to'"):
        family_from_json(doc)


def test_family_from_json_rejects_unknown_keys():
    # a misspelled "patterns" used to load as an empty family, admitting every set
    with pytest.raises(PatternError, match=r"unknown key 'pattern' in pattern file"):
        family_from_json({"pattern": _one_edge_doc()["patterns"]})
    with pytest.raises(PatternError, match=r"unknown key 'comment' in pattern file"):
        family_from_json({**_one_edge_doc(), "comment": "two vertices"})
    doc = _one_edge_doc()
    doc["patterns"].append({**doc["patterns"][0], "vertex": 2})
    with pytest.raises(PatternError, match=r"pattern 1: unknown key 'vertex' in pattern"):
        family_from_json(doc)
    doc = _one_edge_doc(dir=True)
    with pytest.raises(PatternError, match=r"pattern 0: unknown key 'dir' in edge 0"):
        family_from_json(doc)
    assert family_from_json({}).patterns == ()


@pytest.mark.parametrize("forest", ["false", 0, 1, None])
def test_family_from_json_rejects_non_boolean_forest(forest):
    with pytest.raises(PatternError, match=r"'forest' must be a JSON boolean"):
        family_from_json({"patterns": [], "forest": forest})
    assert family_from_json({"patterns": [], "forest": True}).forbid_cycles


def test_mixed_family_conjunction():
    mixed = AdmissibleFamily("mixed", (chain(3),), forbid_cycles=True)
    assert not is_admissible({2, 4, 8}, mixed)  # 3-chain
    # 6-cycle set: acyclicity must also be enforced
    assert not is_admissible({2, 3, 5, 6, 15, 10}, mixed)
    assert is_admissible({2, 3}, mixed)
