"""Desk-scale enumeration guard and deterministic work accounting.

Every operation whose cost grows with the size of a product group checks the
global point budget before enumerating.  Points actually touched accumulate
in a work counter; sweep CSVs report that counter as ``cost_points`` because
it is a deterministic function of the inputs, unlike wall-clock time.
"""

from __future__ import annotations

DEFAULT_POINT_BUDGET = 1 << 24

_point_budget = DEFAULT_POINT_BUDGET
_work_points = 0


class BudgetExceededError(RuntimeError):
    """An enumeration would touch more points than the configured budget."""


def point_budget() -> int:
    return _point_budget


def set_point_budget(n: int) -> None:
    global _point_budget
    if int(n) < 1:
        raise ValueError("point budget must be positive")
    _point_budget = int(n)


def ensure(points: int, what: str = "enumeration") -> None:
    """Refuse rather than thrash: raise if a single pass needs too many points."""
    if points > _point_budget:
        try:
            need = str(points)
        except ValueError:  # past Python's int-to-str digit limit
            need = f"at least 2^{points.bit_length() - 1}"
        raise BudgetExceededError(
            f"{what} needs {need} points, over the budget of {_point_budget}"
        )


def charge(points: int, what: str = "enumeration") -> None:
    """Like ensure(), but also record the points in the work counter."""
    global _work_points
    ensure(points, what)
    _work_points += points


def work_points() -> int:
    return _work_points


def reset_work() -> None:
    global _work_points
    _work_points = 0
