"""The benchmark's workloads: family, modes, budgets and how a round runs them.

Every workload is deterministic: the same family, modes and budgets in every
run, whatever the seed. The seed only picks the larger blocks that the checks
recompute by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHA = 10.0


def log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    """`points` budgets spaced evenly in log from lo to hi, both ends included."""
    ratio = hi / lo
    grid = [lo * ratio ** (k / (points - 1)) for k in range(points - 1)]
    return tuple(grid + [hi])


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    # spelled as the CLI's --mode: density, beta or pressure:Z
    modes: tuple[str, ...]
    # evaluated for every mode, mode by mode, in this order
    budgets: tuple[float, ...]
    # False: a round writes one fresh cache file shared by all its evaluations.
    # True: the cache file is filled at the top budget before the rounds, and
    # each evaluation opens it anew and only reads it.
    warm: bool

    @property
    def top_budget(self) -> float:
        return max(self.budgets)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's beta_2, the solver kernel's target; search is ~90% of the run.
        Workload("twofork-beta", "two-fork", ("beta",), (3e9,), warm=False),
        # A path pattern, three value kinds (small ints, big-int counts, exact
        # Fractions) and few heavy blocks, sharing one cache file.
        Workload("modes-chain3", "chain:3", ("density", "beta", "pressure:2"), (3e8,), warm=False),
        # The repeat-run path: cache loading, component building, lookups and
        # the reduction, with no block solved.
        Workload("sweep-warm", "chain:2", ("density", "beta"), log_grid(1e4, 1e10, 100), warm=True),
    )
}
