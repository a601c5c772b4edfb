"""Command-line surface: certified bounds, brute-force oracles, invariant suites,
and per-block inspection, with JSON or CSV on standard output.

Exit codes: 0 success, 1 failed verification, 2 invalid flags or inputs,
3 solver resource limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

from .numtheory import RootedComponent, canonical_key, divisor_connected_component, rooted_component
from .oracle import EXHAUSTIVE_CAP, exact_reference_series, telescope_check
from .patterns import AdmissibleFamily, PatternError, builtin_family, family_from_file, is_admissible
from .series import (
    BlockCache,
    TruncationParams,
    block_weight_exact,
    collect_blocks,
    evaluate,
    retained_pairs,
    term_weight_exact,
)
from .solver import (
    COUNTING,
    DENSITY,
    Mode,
    ResourceLimitError,
    clear_caches,
    partition_mode,
    size_polynomial,
)

CACHE_DIR_ENV = "DIVBOUND_CACHE_DIR"


def _parse_family(text: str) -> AdmissibleFamily:
    if text.startswith("file:"):
        return family_from_file(text[len("file:") :])
    return builtin_family(text)


def _parse_mode(text: str) -> Mode:
    if text == "density":
        return DENSITY
    if text == "beta":
        return COUNTING
    if text.startswith("pressure:"):
        raw = text[len("pressure:") :]
        try:
            z = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"pressure must be a positive decimal, got {raw!r}") from None
        return partition_mode(z)
    raise ValueError(f"unknown mode {text!r} (expected density, beta, or pressure:Z)")


def _resolve_cache_path(arg: str | None) -> str | None:
    if arg:
        return arg
    env_dir = os.environ.get(CACHE_DIR_ENV)
    if env_dir:
        os.makedirs(env_dir, exist_ok=True)
        return os.path.join(env_dir, "blocks.tsv")
    return None


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "csv":
        keys = sorted(payload)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow([payload[k] for k in keys])
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_bound(args: argparse.Namespace) -> int:
    fam = _parse_family(args.family)
    mode = _parse_mode(args.mode)
    params = TruncationParams(alpha=args.alpha, budget_B=args.budget)
    started = time.perf_counter()
    est = evaluate(fam, mode, params, BlockCache(_resolve_cache_path(args.cache)))
    elapsed = time.perf_counter() - started
    payload = {
        "family": fam.name,
        "mode": args.mode,
        "alpha": args.alpha,
        "budget": args.budget,
        "S": est.S,
        "W": est.W,
        "M": est.M,
        "lower": est.lower,
        "upper": est.upper,
        "blocks": est.blocks,
        "id_pairs": est.id_pairs,
        "terms": est.terms,
        "slack": est.slack,
        "elapsed_seconds": elapsed,
    }
    if args.mode == "beta":
        # libm's exp is within one ulp of e**x, so one step outward encloses it
        payload["exp_lower"] = math.nextafter(math.exp(est.lower), 0.0)
        payload["exp_upper"] = math.nextafter(math.exp(est.upper), math.inf)
    _emit(payload, args.format)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    fam = _parse_family(args.family)
    report = telescope_check(args.n, fam)
    payload = {
        "f": report["f"],
        "q": int(report["q_decimal"]),
        "telescope_pass": report["pass"],
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_blocks(args: argparse.Namespace) -> int:
    fam = _parse_family(args.family)
    mode = _parse_mode(args.mode)
    params = TruncationParams(alpha=args.alpha, budget_B=args.budget)
    if args.top < 0:
        raise ValueError(f"--top must be nonnegative, got {args.top}")
    rows = collect_blocks(fam, mode, params)
    print("elements\troot\tweight\tincrement")
    for key, weight, increment in rows[: args.top]:
        shown = str(increment) if isinstance(increment, int) else format(increment, ".12g")
        print(f"{','.join(map(str, key.normalized_elements))}\t{key.root_value}\t{weight:.12g}\t{shown}")
    return 0


class _VerifyFailure(Exception):
    pass


def _suite_weight_identity(limit: int) -> int:
    checks = 0
    for i in range(1, limit + 1):
        for d in range(1, limit + 1):
            lhs = sum(term_weight_exact(i, d, t) for t in range(i * d, (i + 1) * d))
            rhs = block_weight_exact(i, d)
            if lhs != rhs:
                raise _VerifyFailure(f"weight identity fails at i={i}, d={d}: {lhs} != {rhs}")
            checks += 1
    return checks


def _suite_mass_normalization(budgets: list[float]) -> int:
    """evaluate's retained mass W, against the exact sum of the retained block weights:
    within 4 ulps of it, below 1, and never falling as the budget grows. W does not
    depend on the family or the mode."""
    fam = builtin_family("chain:2")
    previous = 0.0
    for budget in budgets:
        params = TruncationParams(alpha=10.0, budget_B=budget)
        W = evaluate(fam, DENSITY, params).W
        exact = sum((block_weight_exact(i, d) for i, d in retained_pairs(params)), Fraction(0))
        if abs(Fraction(W) - exact) > 4 * Fraction(math.ulp(float(exact))):
            raise _VerifyFailure(f"W = {W!r} at B={budget} is off the exact retained mass {float(exact)!r}")
        if not previous <= W < 1.0:
            raise _VerifyFailure(f"W = {W!r} at B={budget} is not in [{previous!r}, 1)")
        previous = W
    return len(budgets)


def _suite_dilation(cases: int) -> int:
    rng = random.Random(0x5EED)
    fams = [builtin_family("two-fork"), builtin_family("chain:2")]
    for _ in range(cases):
        d = rng.randint(1, 12)
        t = d + rng.randint(0, 40)
        m = rng.randint(2, 5)
        comp = rooted_component(d, t)
        scaled = divisor_connected_component([m * v for v in range(d, t + 1)], m * d)
        if tuple(m * v for v in comp.elements) != scaled:
            raise _VerifyFailure(f"scaled component mismatch for d={d}, t={t}, m={m}")
        scaled_comp = RootedComponent(elements=scaled, root_index=scaled.index(m * d))
        if canonical_key(comp) != canonical_key(scaled_comp):
            raise _VerifyFailure(f"canonical key changes under dilation: d={d}, t={t}, m={m}")
        fam = fams[rng.randrange(len(fams))]
        # the scaled set's search builds its masks over the scaled integers and
        # divides every key by a gcd of at least m; each search runs on a cleared
        # memo, which the other's entries, under the same keys, would answer
        for part, elements in (("full", comp.elements), ("root-deleted", [v for v in comp.elements if v != d])):
            clear_caches()
            P = size_polynomial(elements, fam)
            clear_caches()
            if size_polynomial([m * v for v in elements], fam) != P:
                raise _VerifyFailure(f"{part} size polynomial changes under dilation: d={d}, t={t}, m={m}")
        sample = [v for v in range(1, 31) if rng.random() < 0.3]
        if is_admissible(sample, fams[0]) != is_admissible([m * v for v in sample], fams[0]):
            raise _VerifyFailure(f"admissibility changes under dilation of {sample} by {m}")
    return cases


def _suite_telescoping(families: list[str], n_max: int) -> int:
    checks = 0
    for name in families:
        fam = builtin_family(name)
        for n in range(1, n_max + 1):
            report = telescope_check(n, fam)
            if not report["pass"]:
                raise _VerifyFailure(f"telescoping fails for {name}, n={n}: {report.get('failure')}")
            checks += 1
    return checks


def _suite_float_vs_rational(cases: list[tuple[float, float]]) -> int:
    checks = 0
    fam = builtin_family("two-fork")
    for alpha, budget in cases:
        params = TruncationParams(alpha=alpha, budget_B=budget)
        for mode in (DENSITY, COUNTING):
            est = evaluate(fam, mode, params)
            ref_s, ref_w = exact_reference_series(fam, mode, params)
            if abs(est.S - float(ref_s)) > 1e-9:
                raise _VerifyFailure(
                    f"S mismatch at alpha={alpha}, B={budget}, mode={mode.tag}: {est.S} vs {float(ref_s)}"
                )
            if abs(est.W - float(ref_w)) > 1e-9:
                raise _VerifyFailure(
                    f"W mismatch at alpha={alpha}, B={budget}, mode={mode.tag}: {est.W} vs {float(ref_w)}"
                )
            checks += 1
    return checks


def _suite_cache_robustness() -> int:
    fam = builtin_family("two-fork")
    params = TruncationParams(alpha=10.0, budget_B=64.0)
    clean = evaluate(fam, DENSITY, params)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blocks.tsv")
        lines = [
            "not a record",
            "bad\tfields",
            "deadbeef\tdensity\t1,2\t1\t9\t9\t-\t-",
            # the family's own hash and a key the run looks up, with a size pair
            # no block can have (the root adds at most one element)
            f"{fam.family_hash}\tdensity\t1\t1\t3\t1\t-\t-",
            # the same key with negative sizes, whose difference alone is in range
            f"{fam.family_hash}\tdensity\t1\t1\t-1\t-1\t-\t-",
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        cache = BlockCache(path)
        est = evaluate(fam, DENSITY, params, cache)
        if (est.S, est.W) != (clean.S, clean.W):
            raise _VerifyFailure("corrupted cache changed the evaluation result")
        warm = evaluate(fam, DENSITY, params, BlockCache(path))
        if (warm.S, warm.W) != (clean.S, clean.W):
            raise _VerifyFailure("reloaded cache changed the evaluation result")
    return len(lines)


_TELESCOPE_FAMILIES = ["two-fork", "r-fork:3", "in-fork:2", "chain:2", "chain:3", "forest"]


def cmd_verify(args: argparse.Namespace) -> int:
    full = args.level == "full"
    suites = [
        ("weight-identity", lambda: _suite_weight_identity(50 if full else 20)),
        (
            "mass-normalization",
            lambda: _suite_mass_normalization([1.0, 1e2, 1e4, 1e6, 1e8] + ([1e10] if full else [])),
        ),
        ("dilation", lambda: _suite_dilation(60 if full else 15)),
        (
            "telescoping",
            lambda: _suite_telescoping(
                _TELESCOPE_FAMILIES if full else ["two-fork", "chain:2", "forest"],
                18 if full else 8,
            ),
        ),
        (
            "float-vs-rational",
            lambda: _suite_float_vs_rational(
                [(10.0, 1e4), (3.0, 1e3)] if full else [(10.0, 100.0), (3.0, 200.0)]
            ),
        ),
        ("cache-robustness", _suite_cache_robustness),
    ]
    for name, run in suites:
        try:
            checks = run()
        except _VerifyFailure as exc:
            print(f"{name}: FAIL: {exc}")
            return 1
        print(f"{name}: pass ({checks} checks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbound",
        description="Certified bounds for divisor-graph pattern avoidance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate the truncated series and print the certified interval")
    bound.add_argument("--family", required=True, help="two-fork | r-fork:R | in-fork:R | chain:K | forest | file:PATH")
    bound.add_argument("--mode", default="density", help="density | beta | pressure:Z")
    bound.add_argument("--alpha", type=float, default=10.0, help="truncation exponent (default 10)")
    bound.add_argument("--budget", type=float, default=1e8, help="truncation budget B (default 1e8)")
    bound.add_argument("--cache", default=None, help="block cache file (TSV, append-only)")
    bound.add_argument("--format", choices=("json", "csv"), default="json")
    bound.set_defaults(func=cmd_bound)

    oracle = sub.add_parser("oracle", help="brute-force f and q plus the telescoping gate")
    oracle.add_argument("--n", type=int, required=True, help=f"interval endpoint, at most {EXHAUSTIVE_CAP}")
    oracle.add_argument("--family", required=True)
    oracle.set_defaults(func=cmd_oracle)

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument("--level", choices=("quick", "full"), default="quick")
    verify.set_defaults(func=cmd_verify)

    blocks = sub.add_parser("blocks", help="show the highest-weight blocks of a truncation")
    blocks.add_argument("--family", required=True)
    blocks.add_argument("--mode", default="density")
    blocks.add_argument("--alpha", type=float, default=10.0)
    blocks.add_argument("--budget", type=float, default=1e8)
    blocks.add_argument("--top", type=int, default=10)
    blocks.set_defaults(func=cmd_blocks)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PatternError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
