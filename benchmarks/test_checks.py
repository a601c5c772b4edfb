"""Tests of the benchmark's output checks: each passes on a real run and fails
when handed a wrong value.

    python3 -m pytest -q benchmarks/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from child import record_fields  # noqa: E402
from divbound import series, solver  # noqa: E402
from divbound.patterns import builtin_family  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ALPHA, WORKLOADS, log_grid  # noqa: E402

PRESSURE = Fraction(2)
MODES = {"density": solver.DENSITY, "beta": solver.COUNTING, "pressure:2": solver.partition_mode(PRESSURE)}


def _bracket(mode: str, budget: float, est) -> dict:
    return {"mode": mode, "budget": budget, "S": est.S, "W": est.W, "M": est.M, "lower": est.lower, "upper": est.upper}


def _records(family: str, budget: float) -> list[dict]:
    """Every block of a small run in all three modes, read back through
    collect_blocks and lookup_or_solve as the benchmark reads them."""
    fam = builtin_family(family)
    params = series.TruncationParams(ALPHA, budget)
    cache = series.BlockCache(None)
    records: dict = {}
    for mode in MODES.values():
        series.evaluate(fam, mode, params, cache)
        for key, _, _ in series.collect_blocks(fam, mode, params, cache):
            rec = cache.lookup_or_solve(key, fam, mode)
            entry = records.setdefault(key, {"elements": key.normalized_elements, "root": key.root_value})
            entry.update(record_fields(rec))
    assert cache.misses == len(records) * len(MODES)
    return [r for r in records.values() if len(r["elements"]) <= 14]


@pytest.fixture(scope="module", params=["two-fork", "chain:2", "chain:3"])
def family_records(request):
    return request.param, _records(request.param, 1e8)


def test_size_histogram_small_sets():
    # {1, 2, 4}: chain:2 allows only the empty set and singletons
    assert checks.size_histogram((1, 2, 4), "chain:2") == [1, 3, 0, 0]
    # chain:3 forbids only the full chain 1 | 2 | 4
    assert checks.size_histogram((1, 2, 4), "chain:3") == [1, 3, 3, 0]
    # two-fork on {1, 2, 3}: 1 may not divide both 2 and 3
    assert checks.size_histogram((1, 2, 3), "two-fork") == [1, 3, 3, 0]
    # {2, 3, 5} has no divisibility: every subset counts
    assert checks.size_histogram((2, 3, 5), "two-fork") == [1, 3, 3, 1]


def test_block_check_passes_on_real_records(family_records):
    family, records = family_records
    assert len(records) >= 5
    for rec in records:
        assert checks.check_block(rec, family, PRESSURE) == []


@pytest.mark.parametrize(
    "field,delta",
    [("size_full", 1), ("size_deleted", -1), ("count_full", 1), ("count_deleted", 1), ("partition_full", 2)],
)
def test_block_check_fails_on_a_wrong_value(family_records, field, delta):
    family, records = family_records
    rec = max(records, key=lambda r: len(r["elements"]))
    bad = {**rec, field: rec[field] + delta}
    assert checks.check_block(bad, family, PRESSURE)


def test_block_check_fails_on_a_wrong_count_ratio(family_records):
    family, records = family_records
    rec = max(records, key=lambda r: len(r["elements"]))
    # both counts scaled: the same bound on the ratio, a wrong ratio of values
    bad = {**rec, "count_full": 2 * rec["count_full"], "count_deleted": 3 * rec["count_deleted"]}
    assert checks.check_block(bad, family, PRESSURE)


@pytest.fixture(scope="module")
def chain2_sweep():
    fam = builtin_family("chain:2")
    cache = series.BlockCache(None)
    out = {}
    for mode in ("density", "beta"):
        out[mode] = [
            _bracket(mode, b, series.evaluate(fam, MODES[mode], series.TruncationParams(ALPHA, b), cache))
            for b in log_grid(1e4, 1e8, 12)
        ]
    return out


def test_bracket_checks_pass_on_a_real_sweep(chain2_sweep):
    for mode, brackets in chain2_sweep.items():
        assert checks.check_nested(brackets) == []
        for b in brackets:
            assert checks.check_bracket(b) == []
            assert checks.check_mass(b["W"], checks.exact_retained_mass(b["budget"])) == []
            if mode == "density":
                assert checks.check_contains(b, checks.DENSITY_LIMITS["chain:2"]) == []


def test_bracket_check_flags_upper_above_M_at_a_tiny_budget():
    # Below budget 2**10 only (i, d) = (1, 1) is retained, its increment is M,
    # so S = M W and the summation slack lifts upper above M. A known fault of
    # series.evaluate, kept out of the workloads by their smallest budget 1e4.
    est = series.evaluate(builtin_family("chain:2"), solver.DENSITY, series.TruncationParams(ALPHA, 100))
    assert est.S == est.M * est.W
    assert checks.check_bracket(_bracket("density", 100, est))


def test_contains_fails_on_a_bracket_that_excludes_one_half(chain2_sweep):
    b = chain2_sweep["density"][-1]
    assert checks.check_contains({**b, "lower": 0.5 + 1e-9}, Fraction(1, 2))
    assert checks.check_contains({**b, "upper": 0.4999}, Fraction(1, 2))


def test_bracket_check_fails_on_bad_brackets(chain2_sweep):
    b = chain2_sweep["beta"][-1]
    assert checks.check_bracket({**b, "lower": -1e-12})
    assert checks.check_bracket({**b, "upper": b["M"] * 1.01})
    assert checks.check_bracket({**b, "lower": b["upper"] + 1e-9})
    # narrower than the unretained mass allows
    assert checks.check_bracket({**b, "upper": b["lower"] + b["M"] * (1 - b["W"]) / 2})


def test_mass_check_fails_a_few_ulps_away(chain2_sweep):
    b = chain2_sweep["beta"][-1]
    exact = checks.exact_retained_mass(b["budget"])
    off = b["W"] + 16 * math.ulp(b["W"])
    assert checks.check_mass(off, exact)
    # the mass of the next smaller budget is not the mass of this one
    smaller = chain2_sweep["beta"][-2]
    assert checks.check_mass(smaller["W"], exact)


def test_nesting_fails_when_a_bracket_widens(chain2_sweep):
    brackets = [dict(b) for b in chain2_sweep["beta"]]
    brackets[5]["upper"] = brackets[4]["upper"] + 1e-12
    assert checks.check_nested(brackets)
    brackets = [dict(b) for b in chain2_sweep["beta"]]
    brackets[7]["lower"] = brackets[6]["lower"] - 1e-12
    assert checks.check_nested(brackets)


def test_identical_fails_on_one_ulp(chain2_sweep):
    b = chain2_sweep["density"][-1]
    assert checks.check_identical(dict(b), b) == []
    assert checks.check_identical({**b, "upper": math.nextafter(b["upper"], 2.0)}, b)


def test_meets_lebensold():
    est = series.evaluate(
        builtin_family("two-fork"), solver.DENSITY, series.TruncationParams(ALPHA, 1e5)
    )
    b = _bracket("density", 1e5, est)
    assert checks.check_meets(b, checks.LEBENSOLD) == []
    assert checks.check_meets({**b, "upper": 0.6724}, checks.LEBENSOLD)
    assert checks.check_meets({**b, "lower": 0.6737}, checks.LEBENSOLD)


def test_density_limits_are_the_enumerated_maxima():
    # the k-chain-free maximum on {1..n} is n - floor(n / 2**(k-1))
    for family, limit in checks.DENSITY_LIMITS.items():
        k = int(family.split(":")[1])
        for n in (8, 12, 16):
            hist = checks.size_histogram(tuple(range(1, n + 1)), family)
            assert checks.block_values(hist, PRESSURE)["size"] == n - n // 2 ** (k - 1)
        assert limit == 1 - Fraction(1, 2 ** (k - 1))


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_workloads_use_families_the_checks_know():
    for w in WORKLOADS.values():
        assert w.family in checks.CONDITIONS
        assert w.budgets[-1] == w.top_budget


def test_tracer_counts_agree_with_the_cache():
    fam = builtin_family("two-fork")
    # the search memo is shared by the process; start it empty so that nodes are searched
    solver.clear_caches()
    tracer = Tracer()
    tracer.install(series, solver)
    try:
        cache = series.BlockCache(None)
        est = series.evaluate(fam, solver.COUNTING, series.TruncationParams(ALPHA, 1e7), cache)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["solver.blocks"] == m["series.cache_misses"] == cache.misses == est.blocks
    assert m["series.segments"] == m["series.cache_hits"] + m["series.cache_misses"]
    assert m["solver.nodes"] > 0 and 0 < m["patterns.accept_ratio"] < 1
    spans = tracer.spans
    assert spans["solve"].total == pytest.approx(spans["solve"].self_time + spans["admissible"].total)
    assert spans["evaluate"].self_time < spans["evaluate"].total
