"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the status lines
inline). The full-scale density run is expensive and only executes when
DIVBOUND_LONG_TESTS=1 is set.
"""

import math
import os
import time
from fractions import Fraction

import pytest

from divbound.oracle import exact_reference_series, telescope_check
from divbound.patterns import builtin_family
from divbound.series import (
    BlockCache,
    TruncationParams,
    block_weight_exact,
    collect_blocks,
    evaluate,
    retained_pairs,
    term_weight_exact,
)
from divbound.solver import COUNTING, DENSITY, partition_mode, size_polynomial

TWO_FORK = builtin_family("two-fork")
IN_FORK2 = builtin_family("in-fork:2")

TELESCOPE_FAMILIES = ("two-fork", "r-fork:3", "in-fork:2", "chain:2", "chain:3", "forest")


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def beta_run_1e10():
    cache = BlockCache(None)
    t0 = time.perf_counter()
    est = evaluate(TWO_FORK, COUNTING, TruncationParams(10.0, 1e10), cache)
    elapsed = time.perf_counter() - t0
    return est, cache, elapsed


@pytest.fixture(scope="module")
def density_run_1e8():
    cache = BlockCache(None)
    est = evaluate(TWO_FORK, DENSITY, TruncationParams(10.0, 1e8), cache)
    return est, cache


@pytest.fixture(scope="module")
def infork_runs_1e9():
    cache = BlockCache(None)
    params = TruncationParams(10.0, 1e9)
    dens = evaluate(IN_FORK2, DENSITY, params, cache)
    beta = evaluate(IN_FORK2, COUNTING, params, cache)
    return dens, beta, cache


def test_criterion_1_beta_bracket(beta_run_1e10):
    est, _, elapsed = beta_run_1e10
    exp_lower = math.exp(est.lower)
    exp_upper = math.exp(est.upper)
    ok = (
        1.729 <= exp_lower <= 1.733
        and 1.871 <= exp_upper <= 1.875
        and elapsed < 3600
    )
    _report(
        "criterion 1 counting-rate bracket at budget 1e10",
        ok,
        f"exp_lower={exp_lower:.6f} exp_upper={exp_upper:.6f} "
        f"blocks={est.blocks} id_pairs={est.id_pairs} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_density_lower_bound(density_run_1e8):
    est, _ = density_run_1e8
    ok = 0.64 <= est.lower <= 0.6736
    _report(
        "criterion 2 density lower bound at budget 1e8",
        ok,
        f"lower={est.lower:.10f}",
    )


@pytest.mark.skipif(
    os.environ.get("DIVBOUND_LONG_TESTS") != "1",
    reason="full-scale run, set DIVBOUND_LONG_TESTS=1 to enable",
)
def test_criterion_2_density_lower_bound_full_scale(monkeypatch):
    # the widest block at this budget has 410 elements and needs far more than
    # the default per-block search budget; needs tens of GB of memory and hours
    monkeypatch.setenv("DIVBOUND_NODE_LIMIT", str(10**9))
    est = evaluate(TWO_FORK, DENSITY, TruncationParams(10.0, 1e13))
    ok = est.lower >= 0.6729
    _report(
        "criterion 2 (long) density lower bound at budget 1e13",
        ok,
        f"lower={est.lower:.10f} blocks={est.blocks}",
    )


def test_criterion_3_in_fork_intervals(infork_runs_1e9):
    dens, beta, _ = infork_runs_1e9
    dens_overlap = dens.lower <= 0.788 and dens.upper >= 0.7195
    exp_lower, exp_upper = math.exp(beta.lower), math.exp(beta.upper)
    beta_overlap = exp_lower <= 1.91 and exp_upper >= 1.82
    ok = dens_overlap and beta_overlap
    _report(
        "criterion 3 in-fork:2 intervals intersect targets at budget 1e9",
        ok,
        f"density=[{dens.lower:.4f},{dens.upper:.4f}] "
        f"beta=[{exp_lower:.4f},{exp_upper:.4f}]",
    )


def test_criterion_4_telescoping_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for label in TELESCOPE_FAMILIES:
        fam = builtin_family(label)
        for n in range(1, 19):
            rep = telescope_check(n, fam)
            assert rep["pass"], (label, n, rep.get("failure"))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 6 * 18 and elapsed < 300
    _report(
        "criterion 4 telescoping oracle equivalence n<=18",
        ok,
        f"{checked} reports elapsed={elapsed:.1f}s",
    )


def test_criterion_5_weight_identities():
    for i in range(1, 51):
        for d in range(1, 51):
            window = sum(
                Fraction(1, t * (t + 1)) for t in range(i * d, (i + 1) * d)
            )
            assert window == Fraction(1, i * (i + 1) * d), (i, d)

    worst = 0.0
    for budget in (1e2, 1e3, 1e4):
        params = TruncationParams(10.0, budget)
        est = evaluate(TWO_FORK, DENSITY, params)
        S_ref, W_ref = exact_reference_series(TWO_FORK, DENSITY, params)
        worst = max(worst, abs(est.W - float(W_ref)), abs(est.S - float(S_ref)))
    ok = worst <= 1e-9
    _report(
        "criterion 5 weight identities and float-vs-rational agreement",
        ok,
        f"max |float - exact| = {worst:.3e}",
    )


def test_criterion_6_increment_ranges(beta_run_1e10, density_run_1e8, infork_runs_1e9):
    _, beta_cache, _ = beta_run_1e10
    _, dens_cache = density_run_1e8
    _, _, infork_cache = infork_runs_1e9
    log2 = math.log(2)
    violations = 0
    scanned = 0

    rows = collect_blocks(TWO_FORK, COUNTING, TruncationParams(10.0, 1e10), beta_cache)
    for _, _, h in rows:
        scanned += 1
        if not (-1e-12 <= h <= log2 + 1e-12):
            violations += 1
    rows = collect_blocks(TWO_FORK, DENSITY, TruncationParams(10.0, 1e8), dens_cache)
    for _, _, g in rows:
        scanned += 1
        if g not in (0, 1):
            violations += 1
    for mode in (DENSITY, COUNTING):
        rows = collect_blocks(IN_FORK2, mode, TruncationParams(10.0, 1e9), infork_cache)
        for _, _, inc in rows:
            scanned += 1
            if mode is DENSITY:
                if inc not in (0, 1):
                    violations += 1
            elif not (-1e-12 <= inc <= log2 + 1e-12):
                violations += 1

    for label in TELESCOPE_FAMILIES:
        fam = builtin_family(label)
        rep = telescope_check(18, fam)
        for g in rep["g_sequence"]:
            scanned += 1
            if g not in (0, 1):
                violations += 1
        for h in rep["h_sequence"]:
            scanned += 1
            if not (-1e-12 <= h <= log2 + 1e-12):
                violations += 1

    ok = violations == 0 and scanned > 600
    _report(
        "criterion 6 increment ranges across criteria 1-4 blocks",
        ok,
        f"{scanned} increments scanned, {violations} violations",
    )


def test_criterion_7_interval_lower_bounds():
    from divbound.oracle import brute_max_size

    failures = []
    for r in (2, 3):
        for label in (f"r-fork:{r}", f"in-fork:{r}"):
            fam = builtin_family(label)
            for n in range(1, 21):
                if brute_max_size(n, fam) < math.ceil(r * n / (r + 1)):
                    failures.append((label, n))
    for k in (2, 3, 4):
        fam = builtin_family(f"chain:{k}")
        for n in range(1, 21):
            f_val = brute_max_size(n, fam)
            if f_val < n - n // 2 ** (k - 1):
                failures.append((f"chain:{k}", n))
            if k == 2 and f_val != (n + 1) // 2:
                failures.append((f"chain:2 exact", n))
    ok = not failures
    _report(
        "criterion 7 interval lower bounds for forks and chains",
        ok,
        f"failures={failures}" if failures else "all n<=20",
    )


def test_criterion_8_repeat_determinism(beta_run_1e10):
    # a repeat on the filled block cache and one on a fresh cache, whose lookups all
    # miss and go back to the solver's memo, must both give the same bits
    est1, cache, _ = beta_run_1e10
    params = TruncationParams(10.0, 1e10)
    repeats = [evaluate(TWO_FORK, COUNTING, params, c) for c in (cache, BlockCache(None))]
    ok = all(
        (est1.S, est1.W, est1.lower, est1.upper) == (est.S, est.W, est.lower, est.upper)
        for est in repeats
    )
    _report(
        "criterion 8 determinism across repeated evaluations",
        ok,
        f"S={est1.S!r} matches to the last bit" if ok else
        f"S {est1.S!r} vs {[est.S for est in repeats]!r}",
    )


def test_beta_1e10_bits_are_pinned(beta_run_1e10):
    # the only tier-1 run with blocks of more than 64 elements, whose searches
    # pack polynomials in slots of 96 bits
    est, _, _ = beta_run_1e10
    assert (est.S.hex(), est.W.hex(), est.upper.hex(), est.slack.hex()) == (
        "0x1.18abd08e69b80p-1",
        "0x1.c55e73310bacep-1",
        "0x1.414fa4577c6d4p-1",
        "0x1.0610000000000p-40",
    )
    assert (est.blocks, est.id_pairs) == (522, 368)


def test_criterion_9_pressure_surrogate():
    n = 14
    step = 0.25
    ts = [round(-3 + k * step, 10) for k in range(25)]
    kaps = [
        math.log(partition_mode(math.exp(t)).value(size_polynomial(range(1, n + 1), TWO_FORK))) / n
        for t in ts
    ]
    convex_ok = all(
        kaps[j + 1] - 2 * kaps[j] + kaps[j - 1] >= -1e-9
        for j in range(1, len(kaps) - 1)
    )
    lipschitz_ok = all(
        abs(kaps[j + 1] - kaps[j]) <= step * (1 + 1e-9)
        for j in range(len(kaps) - 1)
    )
    ok = convex_ok and lipschitz_ok
    _report(
        "criterion 9 pressure curve convex and 1-Lipschitz at n=14",
        ok,
        f"grid [-3,3] step {step}, kappa(0)={kaps[12]:.6f}",
    )
