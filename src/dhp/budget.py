"""Work budgets for the exponential scans and searches.

A budget turns "this might run forever" into a distinct, catchable outcome.
Checkers meter subsets examined; solvers meter search-tree nodes.  Passing
one WorkBudget object through several calls makes them share a single cap.
"""

from __future__ import annotations

from .errors import BudgetExceededError, ConfigError

__all__ = ["WorkBudget", "SUBSET_BUDGET_DEFAULT", "NODE_BUDGET_DEFAULT"]

SUBSET_BUDGET_DEFAULT = 1 << 24
NODE_BUDGET_DEFAULT = 10**8
# Size cap of randlab's exact measures, which exports it.  It is defined here,
# with the other CLI defaults, so that building the CLI parser imports no randlab.
EXACT_MEASURE_LIMIT = 16


class WorkBudget:
    __slots__ = ("remaining", "label")

    def __init__(self, limit: int, label: str = "work"):
        if limit < 0:
            # a ValueError too, so callers that catch that keep working
            raise ConfigError(f"{label} budget must be non-negative, got {limit}")
        self.remaining = limit
        self.label = label

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError(f"{self.label} budget exhausted")

    def __repr__(self) -> str:
        return f"WorkBudget({self.remaining} {self.label} units left)"


def as_budget(value: "int | WorkBudget | None", default: int, label: str) -> WorkBudget:
    """Normalize a user-facing budget argument.

    ints become fresh budgets, None picks the default, and an existing
    WorkBudget is passed through so callers can share one cap.
    """
    if value is None:
        return WorkBudget(default, label)
    if isinstance(value, WorkBudget):
        return value
    return WorkBudget(int(value), label)
