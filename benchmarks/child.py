"""One round of a workload, in a fresh process, with its result as a JSON line.

    python3 benchmarks/child.py '{"workload": ..., "kind": ..., "cache": ..., ...}'

Kinds:
- `setup`: import divbound, parse the family and modes, open the cache; report
  the time that took.
- `fill`: evaluate every mode at the top budget into a fresh cache file; this
  is how a warm workload's cache is made, by the code under test.
- `round`: set up as `setup` does, then time the workload's evaluations, with
  the per-layer wrappers installed when `trace` is set. With `check` set, the
  round then runs the checks that need the run's live cache.

A bracket computation that exceeds the solver's node budget is reported under
`failures`; any other error ends the process with a traceback and a nonzero
exit code.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
from tracing import Tracer
from workloads import ALPHA, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# Blocks of at most this many elements are all recomputed by enumeration; the
# cost of enumeration grows about 1.8x per element.
BLOCK_CAP = 18
# A seeded sample of this many larger blocks, of at most SAMPLE_CAP elements,
# is recomputed as well.
SAMPLE_COUNT = 3
SAMPLE_CAP = 22
# Size of {1..n} for oracle.telescope_check.
TELESCOPE_N = 18
# Budget of the two-fork density bracket held against Lebensold's bounds.
LEBENSOLD_BUDGET = 1e6


def _mode(solver, text: str):
    if text == "density":
        return solver.DENSITY
    if text == "beta":
        return solver.COUNTING
    head, _, z = text.partition(":")
    if head == "pressure":
        return solver.partition_mode(Fraction(z))
    raise ValueError(f"unknown mode {text!r}")


def _bracket(mode: str, budget: float, est, misses: int) -> dict:
    return {
        "mode": mode,
        "budget": budget,
        "S": est.S,
        "W": est.W,
        "M": est.M,
        "lower": est.lower,
        "upper": est.upper,
        "blocks": est.blocks,
        "id_pairs": est.id_pairs,
        "misses": misses,
    }


def record_fields(rec) -> dict:
    """The solved fields of a BlockRecord, by name."""
    fields = {}
    for name in ("size", "count", "partition"):
        for part in ("full", "deleted"):
            value = getattr(rec, f"{name}_{part}")
            if value is not None:
                fields[f"{name}_{part}"] = value
    return fields


def block_checks(series, w, fam, modes, cache, seed: int) -> tuple[list[str], dict]:
    """Recompute the run's blocks by enumeration, reading them through
    collect_blocks and lookup_or_solve hits on the run's own cache."""
    problems = []
    records: dict = {}
    params = series.TruncationParams(ALPHA, w.top_budget)
    for text, mode in modes:
        misses = cache.misses
        for key, _weight, _increment in series.collect_blocks(fam, mode, params, cache):
            rec = cache.lookup_or_solve(key, fam, mode)
            entry = records.setdefault(
                key, {"elements": key.normalized_elements, "root": key.root_value}
            )
            entry.update(record_fields(rec))
        if cache.misses != misses:
            problems.append(f"{text}: {cache.misses - misses} blocks were solved again, not read from the run's cache")
    pressures = {mode.pressure for _, mode in modes if mode.pressure is not None}
    pressure = pressures.pop() if pressures else Fraction(2)
    small = [k for k in records if len(k.normalized_elements) <= BLOCK_CAP]
    larger = sorted(
        (k for k in records if BLOCK_CAP < len(k.normalized_elements) <= SAMPLE_CAP),
        key=lambda k: (k.normalized_elements, k.root_value),
    )
    sample = random.Random(seed).sample(larger, min(SAMPLE_COUNT, len(larger)))
    for key in small + sample:
        problems += checks.check_block(records[key], w.family, pressure)
    info = {
        "blocks": len(records),
        "enumerated": len(small) + len(sample),
        "sampled": [len(k.normalized_elements) for k in sample],
    }
    return problems, info


def main() -> int:
    spec = json.loads(sys.argv[1])
    w = WORKLOADS[spec["workload"]]
    if "cpu" in spec:
        os.sched_setaffinity(0, {spec["cpu"]})

    t_setup = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from divbound import oracle, series, solver
    from divbound.patterns import builtin_family

    fam = builtin_family(w.family)
    modes = [(text, _mode(solver, text)) for text in w.modes]
    budgets = w.budgets
    if spec["kind"] == "fill":
        budgets = (w.top_budget,)
    warm_reads = w.warm and spec["kind"] != "fill"
    cache = None if warm_reads else series.BlockCache(spec["cache"])
    setup_s = time.perf_counter() - t_setup
    out: dict = {"setup_s": setup_s}
    if spec["kind"] == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install(series, solver)
        if cache is not None:
            tracer.register_cache(cache)

    brackets = []
    failures = []
    t0 = time.perf_counter()
    for text, mode in modes:
        for budget in budgets:
            c = series.BlockCache(spec["cache"]) if warm_reads else cache
            misses = c.misses
            try:
                est = series.evaluate(fam, mode, series.TruncationParams(ALPHA, budget), c)
            except solver.ResourceLimitError as exc:
                failures.append({"mode": text, "budget": budget, "error": str(exc)})
                continue
            brackets.append(_bracket(text, budget, est, c.misses - misses))
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["brackets"] = brackets
    out["failures"] = failures
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()

    if spec.get("check"):
        t_check = time.perf_counter()
        check_cache = series.BlockCache(spec["cache"]) if warm_reads else cache
        problems, info = block_checks(series, w, fam, modes, check_cache, spec["seed"])
        report = oracle.telescope_check(TELESCOPE_N, fam)
        if not report["pass"]:
            problems.append(f"telescope_check at n={TELESCOPE_N} failed: {report['failure']}")
        if w.family == "two-fork":
            est = series.evaluate(fam, solver.DENSITY, series.TruncationParams(ALPHA, LEBENSOLD_BUDGET))
            problems += checks.check_meets(
                _bracket("density", LEBENSOLD_BUDGET, est, 0), checks.LEBENSOLD
            )
        info["seconds"] = time.perf_counter() - t_check
        out["checks"] = {"problems": problems, **info}

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
