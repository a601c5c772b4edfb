"""Benchmark divbound end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload twofork-beta --seed 1 --seconds 30 --trace 0

Each round of the workload runs in a fresh single-threaded process
(benchmarks/child.py), in one lane per CPU (two at most), and new rounds start
until `--seconds` have passed. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics; with `--trace 1`, rounds
alternate between untraced and traced, and it holds the per-layer metrics of
the traced rounds and the tracing overhead. Every metric is the median over
the run's rounds.

Outputs are checked against computations made apart from the solver; a full
record of the run goes to .bench_out/BENCH_<workload>[_trace].json. The
process exits nonzero, printing no result, when the divbound sources are
missing or a round fails outright.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from pathlib import Path

import checks
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"

# set-up is short and noisy, so it is sampled at least this many times a run
SETUP_SAMPLES = 15
# The machine's speed drifts by about 15% over tens of seconds, separately on
# each CPU, so rounds run in one lane per CPU: a run's median then draws on
# independent samples from more than one CPU. Each round is still one
# single-threaded process.
LANES = 2
# a run, with its set-up and checks, must end within this many seconds
RUN_DEADLINE = 175.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "bracket_width": "width"}
LAYER_UNITS = {
    "numtheory.component_s": "s",
    "numtheory.component_calls": "count",
    "numtheory.max_component": "elements",
    "numtheory.key_s": "s",
    "series.segments": "count",
    "series.cache_load_s": "s",
    "series.cache_records": "count",
    "series.cache_hits": "count",
    "series.cache_misses": "count",
    "series.lookup_self_s": "s",
    "series.reduce_self_s": "s",
    "solver.blocks": "count",
    "solver.solve_self_s": "s",
    "solver.max_block_s": "s",
    "solver.nodes": "count",
    "patterns.admissible_s": "s",
    "patterns.accept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class RoundError(RuntimeError):
    pass


def run_child(spec: dict, deadline: float) -> dict:
    # rounds run with the solver's default node budget and read bytecode
    # compiled once per checkout, whatever the caller's environment says
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVBOUND_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RoundError(f"{spec['kind']} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bracket_problems(w, rounds: list[dict], fill: dict | None) -> tuple[list[str], int]:
    """Checks on every bracket of every round; returns the problems and the
    number of bracket computations that failed a check."""
    limit = checks.DENSITY_LIMITS.get(w.family)
    masses: dict = {}
    first = {(b["mode"], b["budget"]): b for b in rounds[0]["brackets"]}
    problems = []
    failed = 0
    for rnd in rounds:
        for b in rnd["brackets"]:
            found = checks.check_bracket(b)
            if limit is not None and b["mode"] == "density":
                found += checks.check_contains(b, limit)
            if b["budget"] not in masses:
                masses[b["budget"]] = checks.exact_retained_mass(b["budget"])
            found += checks.check_mass(b["W"], masses[b["budget"]])
            found += checks.check_identical(b, first[(b["mode"], b["budget"])])
            if w.warm and b["misses"]:
                found.append(f"{checks.label(b)}: {b['misses']} blocks solved on a warm cache")
            if found:
                failed += 1
                problems += found
    if w.warm:
        for mode in w.modes:
            problems += checks.check_nested([b for b in first.values() if b["mode"] == mode])
        for b in fill["brackets"]:
            problems += checks.check_identical(first[(b["mode"], b["budget"])], b)
    return problems, failed


def run_rounds(seconds: float, spec, cleanup, deadline: float) -> list[dict]:
    """Run whole rounds, one lane per CPU (at most LANES), until `seconds` have
    passed since the first began; at least two rounds, so that a traced run
    has an untraced round (even index) and a traced one (odd index)."""
    cpus = sorted(os.sched_getaffinity(0))[:LANES]
    lock = threading.Lock()
    stop = threading.Event()
    indices = count()
    rounds: dict[int, dict] = {}
    t0 = time.monotonic()

    def lane(cpu: int) -> None:
        while not stop.is_set():
            with lock:
                r = next(indices)
                if r >= 2 and time.monotonic() - t0 >= seconds:
                    return
            round_spec = spec(r, cpu)
            try:
                rnd = run_child(round_spec, deadline)
            except BaseException:
                stop.set()
                raise
            finally:
                cleanup(r)
            rnd["traced"] = round_spec["trace"]
            with lock:
                rounds[r] = rnd

    with ThreadPoolExecutor(len(cpus)) as pool:
        for future in [pool.submit(lane, cpu) for cpu in cpus]:
            future.result()
    return [rounds[r] for r in sorted(rounds)]


def median_of(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def measure(w, args, tag: str, deadline: float) -> dict:
    cold_cache = lambda r: str(OUT / f"{tag}-r{r}.tsv")  # noqa: E731
    warm_cache = str(OUT / f"{tag}-warm.tsv")
    base = {"workload": w.name, "seed": args.seed}
    # the first import compiles bytecode, which users pay once, not per run
    run_child({**base, "kind": "setup", "cache": cold_cache("setup")}, deadline)

    fill = None
    if w.warm:
        fill = run_child({**base, "kind": "fill", "cache": warm_cache}, deadline)
        if fill["failures"]:
            raise RoundError(f"filling the warm cache failed: {fill['failures']}")

    def spec(r: int, cpu: int) -> dict:
        path = warm_cache if w.warm else cold_cache(r)
        traced = bool(args.trace) and r % 2 == 1
        return {**base, "kind": "round", "cache": path, "trace": traced, "check": r == 0, "cpu": cpu}

    def cleanup(r: int) -> None:
        if not w.warm:
            Path(cold_cache(r)).unlink(missing_ok=True)

    rounds = run_rounds(args.seconds, spec, cleanup, deadline)
    setups = [rnd["setup_s"] for rnd in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child({**base, "kind": "setup", "cache": cold_cache("setup")}, deadline)["setup_s"])

    problems, failed = bracket_problems(w, rounds, fill)
    problems += rounds[0]["checks"]["problems"]
    failed += sum(len(rnd["failures"]) for rnd in rounds)
    attempted = sum(len(rnd["brackets"]) + len(rnd["failures"]) for rnd in rounds)

    plain = [rnd for rnd in rounds if not rnd["traced"]]
    if args.trace:
        traced_rounds = [rnd for rnd in rounds if rnd["traced"]]
        metrics = {
            name: median_of(traced_rounds, lambda rnd: rnd["layers"][name])
            for name in LAYER_UNITS
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = median_of(traced_rounds, lambda rnd: rnd["wall_s"]) / median_of(
            plain, lambda rnd: rnd["wall_s"]
        )
        units = LAYER_UNITS
    else:
        top = [b for b in rounds[0]["brackets"] if b["budget"] == w.top_budget]
        metrics = {
            "wall_s": median_of(plain, lambda rnd: rnd["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median_of(plain, lambda rnd: rnd["peak_rss_mb"]),
            "bracket_width": sum(b["upper"] - b["lower"] for b in top),
        }
        units = END_TO_END_UNITS
    return {
        "workload": w.name,
        "family": w.family,
        "modes": list(w.modes),
        "budgets": list(w.budgets),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "setup_samples": setups,
        "fill": fill,
        "rounds": rounds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE

    if not (ROOT / "src" / "divbound" / "__init__.py").is_file():
        print(f"error: no divbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-{os.getpid()}"
    try:
        record = measure(w, args, tag, deadline)
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in OUT.glob(f"{tag}-*"):
            leftover.unlink()

    suffix = "_trace" if args.trace else ""
    (OUT / f"BENCH_{w.name}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    for name, m in record["metrics"].items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w.name} attempted = {record['attempted']} failed = {record['failed']} rounds = {len(record['rounds'])}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
