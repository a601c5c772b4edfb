import json
import logging
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import divbound
from divbound import numtheory, series
from divbound.cli import main
from divbound.numtheory import canonical_key, primes_up_to, rooted_component
from divbound.patterns import builtin_family
from divbound.series import (
    BlockCache,
    SeriesEstimate,
    TruncationParams,
    block_weight,
    block_weight_exact,
    collect_blocks,
    enumerate_triples,
    euler_factor,
    euler_factor_exact,
    evaluate,
    retained_pairs,
    term_weight_exact,
)
from divbound.solver import COUNTING, DENSITY, ResourceLimitError, clear_caches, local_increment, partition_mode

TWO_FORK = builtin_family("two-fork")
CHAIN2 = builtin_family("chain:2")
# the directory divbound was imported from, so child processes run the same code
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(divbound.__file__)))


def test_truncation_params_validation():
    TruncationParams(1.0, 1.0)
    with pytest.raises(ValueError):
        TruncationParams(0.5, 100.0)
    with pytest.raises(ValueError):
        TruncationParams(10.0, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            TruncationParams(bad, 100.0)
        with pytest.raises(ValueError):
            TruncationParams(10.0, bad)


def test_d_limit_exact_at_integer_alpha():
    p = TruncationParams(10.0, 1e10)
    # d * i^10 <= B, exact integer thresholds
    assert p.d_limit(1) == 10 ** 10
    assert p.d_limit(2) == 10 ** 10 // 2 ** 10
    assert p.d_limit(10) == 1
    assert p.d_limit(11) == 0


def test_huge_alpha_retains_only_the_identity_pair():
    # 2**int(1e308) must never be built: it would not fit in memory
    assert list(retained_pairs(TruncationParams(1e308, 1e4))) == [(1, 1)]
    # a fractional alpha whose float power overflows keeps nothing past i = 1
    assert TruncationParams(1024.5, 1.7e308).d_limit(2) == 0


def test_euler_factor_values():
    assert euler_factor_exact(1) == 1
    assert euler_factor_exact(2) == Fraction(1, 2)
    assert euler_factor_exact(3) == Fraction(1, 3)
    assert euler_factor_exact(4) == Fraction(1, 3)
    assert euler_factor_exact(5) == Fraction(4, 15)
    assert euler_factor(5) == pytest.approx(4 / 15, rel=1e-15)


def test_term_weight_examples():
    assert term_weight_exact(1, 1, 1) == Fraction(1, 2)
    assert term_weight_exact(2, 1, 2) == Fraction(1, 12)
    assert term_weight_exact(2, 2, 4) == Fraction(1, 40)


def test_block_weight_examples():
    assert block_weight_exact(1, 1) == Fraction(1, 2)
    assert block_weight_exact(2, 1) == Fraction(1, 12)
    assert block_weight_exact(2, 2) == Fraction(1, 24)
    assert block_weight(2, 2) == pytest.approx(1 / 24, rel=1e-15)


def test_weight_identity_small_range():
    # sum over the t-window telescopes to the closed block weight
    for i in range(1, 21):
        for d in range(1, 21):
            total = sum(Fraction(1, t * (t + 1)) for t in range(i * d, (i + 1) * d))
            assert total == Fraction(1, i * (i + 1) * d)
            window = sum(term_weight_exact(i, d, t) for t in range(i * d, (i + 1) * d))
            assert window == block_weight_exact(i, d)


def test_mass_normalization_identity():
    # W is evaluate's correctly rounded sum of the retained block weights: within
    # 4 ulps of the exact sum, below 1, and never falling as B grows
    previous = 0.0
    for budget in (1.0, 1e2, 1e4, 1e6, 1e8):
        params = TruncationParams(10.0, budget)
        W = evaluate(CHAIN2, DENSITY, params).W
        exact = sum((block_weight_exact(i, d) for i, d in retained_pairs(params)), Fraction(0))
        assert abs(Fraction(W) - exact) <= 4 * Fraction(math.ulp(float(exact))), budget
        assert previous <= W < 1.0, budget
        previous = W


def test_enumerate_triples_examples():
    assert list(enumerate_triples(TruncationParams(10.0, 1.0))) == [(1, 1, 1)]
    triples = list(enumerate_triples(TruncationParams(10.0, 1024.0)))
    assert triples == [(1, 1, 1), (2, 1, 2)]


def test_enumerate_triples_order_and_membership():
    params = TruncationParams(3.0, 500.0)
    triples = list(enumerate_triples(params))
    assert triples == sorted(triples)

    def smooth(d, i):
        for p in primes_up_to(i):
            while d % p == 0:
                d //= p
        return d == 1

    for i, d, t in triples:
        assert smooth(d, i)
        assert i * d <= t < (i + 1) * d
        assert d * i ** 3 <= 500
    # no retained triple missing: rebuild directly
    direct = []
    i = 1
    while d_max := int(500 / i ** 3) if i ** 3 <= 500 else 0:
        for d in range(1, d_max + 1):
            if smooth(d, i):
                direct.extend((i, d, t) for t in range(i * d, (i + 1) * d))
        i += 1
    assert triples == direct


def test_retained_mass_never_exceeds_one():
    # alpha kept >= 2 so the index range stays small enough for exact sums
    rng = random.Random(2024)
    for _ in range(20):
        alpha = 2.0 + 8.0 * rng.random()
        budget = 10 ** rng.uniform(0, 3)
        params = TruncationParams(alpha, budget)
        pair_mass = sum(block_weight_exact(i, d) for i, d in retained_pairs(params))
        assert 0 <= pair_mass <= 1
    params = TruncationParams(3.0, 150.0)
    mass = sum(term_weight_exact(i, d, t) for i, d, t in enumerate_triples(params))
    assert mass == sum(block_weight_exact(i, d) for i, d in retained_pairs(params))


def test_evaluate_single_triple_density():
    est = evaluate(TWO_FORK, DENSITY, TruncationParams(10.0, 1.0))
    assert est.S == pytest.approx(0.5, abs=0)
    assert est.W == pytest.approx(0.5, abs=0)
    assert est.lower == pytest.approx(0.5, abs=1e-15)
    assert est.upper == pytest.approx(1.0, abs=1e-12)
    assert est.blocks == 1
    assert est.terms == 1
    assert est.id_pairs == 1


def test_evaluate_single_triple_counting():
    est = evaluate(TWO_FORK, COUNTING, TruncationParams(10.0, 1.0))
    assert est.S == pytest.approx(math.log(2) / 2, rel=1e-15)
    assert est.W == pytest.approx(0.5, abs=0)
    assert math.exp(est.lower) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert est.M == pytest.approx(math.log(2), rel=1e-15)


def test_evaluate_partition_mode_brackets():
    mode = partition_mode(Fraction(3, 2))
    est = evaluate(TWO_FORK, mode, TruncationParams(10.0, 100.0))
    assert est.M == pytest.approx(math.log(2.5), rel=1e-15)
    assert 0 < est.S <= est.upper
    assert est.lower <= est.upper


def test_estimate_invariants_random_params():
    rng = random.Random(31337)
    for _ in range(12):
        params = TruncationParams(3.0 + 7 * rng.random(), 10 ** rng.uniform(0, 4))
        fam = rng.choice((TWO_FORK, CHAIN2))
        mode = rng.choice((DENSITY, COUNTING))
        est = evaluate(fam, mode, params)
        assert 0.0 <= est.W <= 1.0
        assert est.lower <= est.upper
        assert est.lower == est.S
        assert est.slack >= 0.0


def test_monotone_refinement_in_budget():
    budgets = [1.0, 10.0, 1e2, 1e3, 1e4, 1e5]
    for mode in (DENSITY, COUNTING):
        prev = None
        for b in budgets:
            est = evaluate(TWO_FORK, mode, TruncationParams(10.0, b))
            if prev is not None:
                assert est.S >= prev.S - 1e-15
                assert est.W >= prev.W - 1e-15
                assert est.lower >= prev.lower - 1e-15
                assert est.upper <= prev.upper + 1e-12
            prev = est


@pytest.mark.parametrize(
    "family, mode, S, upper, slack",
    [
        ("two-fork", COUNTING, "0x1.131d38f395e32p-1", "0x1.4fad8ffdb4ae4p-1", "0x1.5e80000000000p-43"),
        ("chain:3", partition_mode(2), "0x1.c31d1fe47c555p-1", "0x1.118d7606937f9p+0", "0x1.5e80000000000p-43"),
        # S > 1, so the magnitude factor of the slack is above one
        ("chain:2", partition_mode(10), "0x1.5521f01531c45p+0", "0x1.bde40a3261d6ap+0", "0x1.d30ef73504a36p-43"),
    ],
)
def test_reduction_bits_are_pinned(family, mode, S, upper, slack):
    est = evaluate(builtin_family(family), mode, TruncationParams(10.0, 1e8))
    assert est.id_pairs == 92
    assert est.W.hex() == "0x1.a89ff72fc0dbfp-1"
    assert est.S.hex() == S
    assert est.lower.hex() == S
    assert est.upper.hex() == upper
    assert est.slack.hex() == slack


def test_evaluate_matches_exact_reference():
    from divbound.oracle import exact_reference_series

    for budget in (1.0, 32.0, 1e3, 1e4):
        params = TruncationParams(10.0, budget)
        est = evaluate(TWO_FORK, DENSITY, params)
        S_ref, W_ref = exact_reference_series(TWO_FORK, DENSITY, params)
        assert est.S == pytest.approx(float(S_ref), abs=1e-9)
        assert est.W == pytest.approx(float(W_ref), abs=1e-9)
        # blocks and terms, counted per triple outside the segment planner
        triples = list(enumerate_triples(params))
        assert est.blocks == len({canonical_key(rooted_component(d, t)) for _, d, t in triples})
        assert est.terms == len(triples)


def test_evaluate_aborts_on_resource_error():
    clear_caches()
    with pytest.raises(ResourceLimitError):
        evaluate(TWO_FORK, COUNTING, TruncationParams(10.0, 1e6), node_limit=3)
    clear_caches()


def test_malformed_node_limit_fails_on_a_filled_cache(monkeypatch):
    params = TruncationParams(10.0, 1e4)
    cache = BlockCache(None)
    evaluate(TWO_FORK, DENSITY, params, cache)
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", "abc")
    for run in (evaluate, collect_blocks):
        with pytest.raises(ValueError, match="DIVBOUND_NODE_LIMIT must be a positive integer"):
            run(TWO_FORK, DENSITY, params, cache)
    assert cache.misses == len(cache)


def test_cold_evaluate_skips_connectivity_checks(monkeypatch):
    # every key evaluate meets comes from rooted_component, connected by search, so
    # a cache miss builds its component without the O(n^2) re-check
    calls = []
    real = numtheory.divisor_connected_component
    monkeypatch.setattr(numtheory, "divisor_connected_component", lambda *a: calls.append(a) or real(*a))
    clear_caches()
    cache = BlockCache(None)
    est = evaluate(builtin_family("chain:3"), COUNTING, TruncationParams(10.0, 1e8), cache)
    assert cache.misses == est.blocks > 20
    assert calls == []
    clear_caches()


def test_counting_increment_needs_no_fraction():
    # math.log takes a Fraction through the same correctly rounded integer division
    # that count_full / count_deleted performs, so both forms give the same bits
    cache = BlockCache(None)
    evaluate(TWO_FORK, COUNTING, TruncationParams(10.0, 1e8), cache)
    records = list(cache._records.values())
    assert len(records) > 20
    for rec in records:
        ratio = Fraction(rec.count_full, rec.count_deleted)
        assert local_increment(rec, COUNTING) == math.log(ratio), rec.key


def test_cache_hit_avoids_resolve():
    cache = BlockCache(None)
    key = canonical_key(rooted_component(2, 5))
    cache.lookup_or_solve(key, TWO_FORK, DENSITY)
    misses_after_first = cache.misses
    cache.lookup_or_solve(key, TWO_FORK, DENSITY)
    assert cache.misses == misses_after_first
    assert cache.hits >= 1


def test_cache_separates_families_and_modes():
    cache = BlockCache(None)
    key = canonical_key(rooted_component(2, 5))
    cache.lookup_or_solve(key, TWO_FORK, DENSITY)
    assert cache.misses == 1
    cache.lookup_or_solve(key, CHAIN2, DENSITY)
    assert cache.misses == 2
    cache.lookup_or_solve(key, TWO_FORK, COUNTING)
    assert cache.misses == 3
    assert len(cache) == 3


def test_scaled_components_share_one_solve():
    cache = BlockCache(None)
    k1 = canonical_key(rooted_component(2, 5))  # {2,4}
    k2 = canonical_key(rooted_component(3, 7))  # {3,6}
    assert k1 == k2
    cache.lookup_or_solve(k1, TWO_FORK, DENSITY)
    cache.lookup_or_solve(k2, TWO_FORK, DENSITY)
    assert cache.misses == 1
    assert cache.hits == 1


def test_cache_round_trip_through_file(tmp_path):
    path = str(tmp_path / "blocks.tsv")
    params = TruncationParams(10.0, 2000.0)
    cache = BlockCache(path)
    est1 = evaluate(TWO_FORK, DENSITY, params, cache)
    assert cache.misses > 0

    reloaded = BlockCache(path)
    est2 = evaluate(TWO_FORK, DENSITY, params, reloaded)
    assert reloaded.misses == 0
    assert reloaded.hits > 0
    assert est2.S == est1.S
    assert est2.W == est1.W
    assert est2.upper == est1.upper


def test_cache_file_format(tmp_path):
    path = str(tmp_path / "blocks.tsv")
    cache = BlockCache(path)
    cache.lookup_or_solve(canonical_key(rooted_component(2, 5)), TWO_FORK, DENSITY)
    cache.lookup_or_solve(canonical_key(rooted_component(2, 5)), TWO_FORK, COUNTING)
    lines = open(path).read().splitlines()
    assert len(lines) == 2
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 8
        fam_hash, mode_tag, elements, root = fields[:4]
        assert fam_hash == TWO_FORK.family_hash
        assert mode_tag in ("density", "counting")
        assert elements == "1,2"
        assert root == "1"
    dens = lines[0].split("\t")
    assert dens[4:6] == ["2", "1"] and dens[6:] == ["-", "-"]
    cnt = lines[1].split("\t")
    assert cnt[4:6] == ["-", "-"] and cnt[6:] == ["4", "2"]


def test_cache_skips_corrupt_lines(tmp_path, caplog):
    path = str(tmp_path / "blocks.tsv")
    cache = BlockCache(path)
    evaluate(TWO_FORK, DENSITY, TruncationParams(10.0, 500.0), cache)
    written = len(open(path).read().splitlines())
    with open(path, "a") as fh:
        fh.write("garbage line without tabs\n")
        fh.write("a\tb\tc\n")
        fh.write("deadbeefdeadbeef\tdensity\t1,2\t9\t2\t1\t-\t-\n")  # root not in elements
    with caplog.at_level(logging.WARNING):
        reloaded = BlockCache(path)
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 2
    assert f"cache line {written + 1} in {path}" in warned[0]
    assert f"cache line {written + 2} in {path}" in warned[1]
    # the third line reads as a record, but its text is no key the writer formats
    assert len(reloaded) == written + 1
    est = evaluate(TWO_FORK, DENSITY, TruncationParams(10.0, 500.0), reloaded)
    clean = evaluate(TWO_FORK, DENSITY, TruncationParams(10.0, 500.0))
    assert est.S == clean.S
    assert est.upper == clean.upper
    assert reloaded.misses == 0


# Run in a fresh interpreter started with -S, so that no .pth file of the site
# directories can load a module before divbound does; nothing configures logging.
_FOOTPRINT_SCRIPT = """
import json, sys
from divbound.patterns import builtin_family
from divbound.series import BlockCache, TruncationParams, evaluate
from divbound.solver import COUNTING

path = sys.argv[1]
cache = BlockCache(path)
evaluate(builtin_family("two-fork"), COUNTING, TruncationParams(10.0, 1e5), cache)
loaded = sorted(m for m in ("hashlib", "_hashlib", "logging") if m in sys.modules)
with open(path, "a") as fh:
    fh.write("garbage line without tabs\\n")
print(json.dumps({"loaded": loaded, "written": len(cache), "reloaded": len(BlockCache(path))}))
"""


def test_evaluate_imports_neither_hashlib_nor_logging(tmp_path):
    path = tmp_path / "blocks.tsv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["written"] > 0 and out["reloaded"] == out["written"]
    # the warning names the appended last line and reaches stderr through
    # logging's last-resort handler
    lineno = len(path.read_text().splitlines())
    [warning] = proc.stderr.splitlines()
    assert warning.startswith(f"skipping unreadable cache line {lineno} in {path} (")


SAFETY_PARAMS = TruncationParams(10.0, 2000.0)
SAFETY_MODES = (DENSITY, COUNTING)


def _solved_blocks():
    """(mode, record) for every block of a small two-fork run in density and beta."""
    cache = BlockCache(None)
    return [
        (mode, cache.lookup_or_solve(key, TWO_FORK, mode))
        for mode in SAFETY_MODES
        for key, _, _ in collect_blocks(TWO_FORK, mode, SAFETY_PARAMS, cache)
    ]


def _pair(mode, rec):
    if mode is DENSITY:
        return rec.size_full, rec.size_deleted
    return rec.count_full, rec.count_deleted


def _wrong_pair(mode, rec):
    """A pair that loads without warning but changes the record's increment."""
    full, deleted = _pair(mode, rec)
    if mode is DENSITY:
        return (deleted + 1, deleted) if full == deleted else (deleted, deleted)
    return (2 * deleted, deleted) if full == deleted else (deleted, deleted)


def _line(mode, elements: str, root: str, pair) -> str:
    values = [*map(str, pair), "-", "-"] if mode is DENSITY else ["-", "-", *map(str, pair)]
    return "\t".join([TWO_FORK.family_hash, mode.tag, elements, root, *values]) + "\n"


def _csv(values) -> str:
    return ",".join(map(str, values))


# each spells a real key in a text that the cache writer never produces
NON_CANONICAL = {
    "unsorted": lambda els, root: (_csv(reversed(els)), str(root)) if len(els) > 1 else None,
    "leading-zero": lambda els, root: ("0" + _csv(els), str(root)),
    "root-outside": lambda els, root: (_csv(els), str(max(els) + 1)),
    "not-normalized": lambda els, root: (_csv(2 * v for v in els), str(2 * root)),
}


def _run(path=None):
    """Density and beta estimates of the small run, on a cache opened from path."""
    cache = BlockCache(path)
    return [evaluate(TWO_FORK, mode, SAFETY_PARAMS, cache) for mode in SAFETY_MODES], cache


def test_cache_serves_canonical_lines_as_written(tmp_path):
    # control for the tests below: these wrong pairs, written under the canonical
    # text, are read and do change the result
    path = tmp_path / "blocks.tsv"
    with open(path, "w") as fh:
        for mode, rec in _solved_blocks():
            key = rec.key
            fh.write(_line(mode, _csv(key.normalized_elements), str(key.root_value), _wrong_pair(mode, rec)))
    (dens, beta), cache = _run(str(path))
    (clean_dens, clean_beta), _ = _run()
    assert cache.misses == 0
    assert dens.S != clean_dens.S
    assert beta.S != clean_beta.S


@pytest.mark.parametrize("kind", sorted(NON_CANONICAL))
def test_cache_never_serves_non_canonical_text(tmp_path, caplog, kind):
    path = tmp_path / "blocks.tsv"
    spell = NON_CANONICAL[kind]
    written = 0
    with open(path, "w") as fh:
        for mode, rec in _solved_blocks():
            text = spell(rec.key.normalized_elements, rec.key.root_value)
            if text is not None:
                fh.write(_line(mode, *text, _wrong_pair(mode, rec)))
                written += 1
    assert written > 0
    with caplog.at_level(logging.WARNING):
        warm, cache = _run(str(path))
    clean, clean_cache = _run()
    assert not caplog.records
    assert warm == clean
    assert cache.hits == clean_cache.hits
    assert cache.misses == clean_cache.misses


def test_cache_skips_out_of_range_pairs(tmp_path, caplog):
    path = tmp_path / "blocks.tsv"
    with open(path, "w") as fh:
        for mode, rec in _solved_blocks():
            full, deleted = _pair(mode, rec)
            # the root adds at most one element, and at most doubles the count
            pairs = [(deleted + 2, deleted) if mode is DENSITY else (2 * deleted + 1, deleted)]
            if mode is DENSITY:
                # no size is negative, though this difference is in range and
                # flips the block's increment between 0 and 1
                pairs.append((-3 - (full - deleted), -4))
            for pair in pairs:
                fh.write(_line(mode, _csv(rec.key.normalized_elements), str(rec.key.root_value), pair))
    lines = len(open(path).read().splitlines())
    with caplog.at_level(logging.WARNING):
        warm, cache = _run(str(path))
    clean, clean_cache = _run()
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == lines
    for lineno, message in enumerate(warned, start=1):
        assert f"cache line {lineno} in {path}" in message
    assert any("size pair out of range" in m for m in warned)
    assert any("count pair out of range" in m for m in warned)
    assert warm == clean
    assert cache.misses == clean_cache.misses


def test_cache_skips_bytes_that_are_not_utf8(tmp_path, caplog, capsys):
    # a 0xff byte in a value field makes that line unreadable, so it is warned about
    # by number; in the elements it makes the key text non-canonical, so it is inert
    path = tmp_path / "blocks.tsv"
    _run(str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    fields = lines[0].split(b"\t")
    assert fields[1] == b"density"
    fields[4] += b"\xff"
    bad_value = b"\t".join(fields)
    fields = lines[1].split(b"\t")
    fields[2] = b"\xff" + fields[2]
    bad_key = b"\t".join(fields)
    path.write_bytes(bad_value + bad_key + b"".join(lines))
    with caplog.at_level(logging.WARNING):
        warm, cache = _run(str(path))
    clean, _ = _run()
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1 and f"cache line 1 in {path}" in warned[0]
    assert warm == clean
    assert cache.misses == 0
    size = path.stat().st_size
    for mode in ("density", "beta"):
        argv = ["bound", "--family", "two-fork", "--mode", mode, "--budget", "2000", "--cache", str(path)]
        assert main(argv) == 0, capsys.readouterr().err
    assert path.stat().st_size == size


def test_cache_warm_reload_reads_density_and_beta_and_solves_pressure(tmp_path):
    path = str(tmp_path / "blocks.tsv")
    pressure = partition_mode(2)
    cache = BlockCache(path)
    cold = [evaluate(TWO_FORK, mode, SAFETY_PARAMS, cache) for mode in (*SAFETY_MODES, pressure)]
    reloaded = BlockCache(path)
    warm = [evaluate(TWO_FORK, mode, SAFETY_PARAMS, reloaded) for mode in SAFETY_MODES]
    assert reloaded.misses == 0
    assert warm == cold[:2]
    warm_pressure = evaluate(TWO_FORK, pressure, SAFETY_PARAMS, reloaded)
    assert reloaded.misses == warm_pressure.blocks > 0
    assert warm_pressure == cold[2]


def test_cache_partition_records_stay_in_memory(tmp_path):
    path = str(tmp_path / "blocks.tsv")
    cache = BlockCache(path)
    mode = partition_mode(2)
    cache.lookup_or_solve(canonical_key(rooted_component(2, 5)), TWO_FORK, mode)
    import os

    if os.path.exists(path):
        assert [ln for ln in open(path).read().splitlines() if ln.strip()] == []
    # still cached in memory
    cache.lookup_or_solve(canonical_key(rooted_component(2, 5)), TWO_FORK, mode)
    assert cache.hits == 1


def test_cache_unwritable_path_degrades(tmp_path, caplog):
    bad = str(tmp_path / "no_such_dir" / "blocks.tsv")
    with caplog.at_level(logging.WARNING):
        cache = BlockCache(bad)
        cache.lookup_or_solve(canonical_key(rooted_component(2, 5)), TWO_FORK, DENSITY)
        cache.lookup_or_solve(canonical_key(rooted_component(2, 5)), TWO_FORK, DENSITY)
    assert cache.hits == 1
    [record] = caplog.records
    assert (record.name, record.levelno, record.funcName) == ("divbound.series", logging.WARNING, "_append")
    assert record.getMessage().startswith(f"cannot append to cache file {bad} (")
    assert record.getMessage().endswith("); continuing in memory")


def test_cache_unreadable_path_degrades(tmp_path, caplog):
    # a directory cannot be opened as a file
    with caplog.at_level(logging.WARNING):
        cache = BlockCache(str(tmp_path))
        cache.lookup_or_solve(canonical_key(rooted_component(2, 5)), TWO_FORK, DENSITY)
    assert cache.path is None and len(cache) == 1
    [record] = caplog.records
    assert (record.name, record.levelno, record.funcName) == ("divbound.series", logging.WARNING, "_load")
    assert record.getMessage().startswith(f"cannot read cache file {tmp_path} (")


def test_collect_blocks_top_entry_and_total():
    params = TruncationParams(10.0, 1e4)
    rows = collect_blocks(TWO_FORK, DENSITY, params)
    key, weight, inc = rows[0]
    assert key.normalized_elements == (1,)
    assert key.root_value == 1
    assert weight == pytest.approx(0.5, rel=1e-12)
    assert inc == 1
    assert all(rows[i][1] >= rows[i + 1][1] for i in range(len(rows) - 1))
    est = evaluate(TWO_FORK, DENSITY, params)
    assert sum(w for _, w, _ in rows) == pytest.approx(est.W, abs=1e-12)
    assert sum(w * g for _, w, g in rows) == pytest.approx(est.S, abs=1e-12)
    assert len(rows) == est.blocks
    for _, _, g in rows:
        assert g in (0, 1)


def test_series_estimate_is_frozen():
    est = evaluate(TWO_FORK, DENSITY, TruncationParams(10.0, 1.0))
    assert isinstance(est, SeriesEstimate)
    with pytest.raises(AttributeError):
        est.S = 0.0


def test_each_block_is_solved_once(monkeypatch):
    clear_caches()
    calls = 0
    solve = series.solve_block

    def counting_solve(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(series, "solve_block", counting_solve)
    cache = BlockCache(None)
    # at B=1e8 (29 blocks) a thread pool racing on shared keys solved some twice
    est = evaluate(TWO_FORK, COUNTING, TruncationParams(10.0, 1e8), cache)
    assert calls == cache.misses == est.blocks


def test_pair_plans_are_reused_across_evaluations(monkeypatch):
    evaluate(TWO_FORK, COUNTING, TruncationParams(10.0, 1e8))
    calls = []
    real = series.rooted_component
    monkeypatch.setattr(series, "rooted_component", lambda *a: calls.append(a) or real(*a))
    # every pair retained at 1e6 is retained at 1e8, whatever the family and mode
    evaluate(CHAIN2, DENSITY, TruncationParams(10.0, 1e6))
    collect_blocks(CHAIN2, DENSITY, TruncationParams(10.0, 1e6))
    assert calls == []


def _bits(est: SeriesEstimate) -> dict:
    return {name: v.hex() if isinstance(v, float) else v for name, v in vars(est).items()}


@pytest.mark.parametrize("fam, mode", [(CHAIN2, DENSITY), (TWO_FORK, COUNTING)], ids=["chain2-density", "twofork-beta"])
def test_reused_plans_give_the_same_bits(fam, mode):
    budgets = [10.0**k for k in range(2, 9)]
    cache = BlockCache(None)
    series._pair_segments.cache_clear()
    swept = [evaluate(fam, mode, TruncationParams(10.0, b), cache) for b in budgets]
    for budget, est in zip(budgets, swept):
        series._pair_segments.cache_clear()
        assert _bits(est) == _bits(evaluate(fam, mode, TruncationParams(10.0, budget), cache)), budget
