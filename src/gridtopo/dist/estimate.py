"""Closed-form threshold estimates for the pre-simplification threshold.

Two criteria bound the threshold lambda from below:

- **Memory.** With ``n`` vertices over ``ranks`` ranks, a rank can receive
  at most ``(n - n/ranks) / (lambda + 1)`` attachment points, since every
  retained point carries more than ``lambda`` vertices from outside its
  own block.  At ``bytes_per_ap`` bytes each they must fit in what the
  rank has left after its base footprint.
- **Communication.** Attachment-point traffic stops dominating once
  lambda reaches ``c * N**(1/3)``, the side length of a cubic volume.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DataError, UsageError


def _check_finite(name: str, value: float) -> None:
    """Raise ``UsageError`` for NaN, an infinity or an int beyond float range."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise UsageError(f"{name} is too large for a float") from None
    if not finite:
        raise UsageError(f"{name} must be a finite number, got {value!r}")


def attachment_point_bound(n: int, ranks: int, lam: float) -> float:
    """Most attachment points one rank can receive: ``(n - n/ranks)/(lam+1)``."""
    if n < 1 or ranks < 1:
        raise UsageError("n and ranks must be positive")
    _check_finite("n", n)
    _check_finite("lambda", lam)
    if lam < 0:
        raise UsageError("lambda must be non-negative")
    return (n - n / ranks) / (lam + 1)


def estimate_lambda_min_memory(
    n: int, ranks: int, mem_per_rank: float, bytes_per_ap: float, base_mem: float
) -> int:
    """Least integer lambda whose attachment points fit beside the base memory.

    That is the least ``lambda >= 0`` with
    ``bytes_per_ap * (n - n/ranks) / (lambda + 1) < mem_per_rank - base_mem``
    (strictly less), solved in exact rationals, so neither float rounding
    nor a huge result can go wrong.  Raises ``DataError`` when the base
    footprint alone fills the budget.
    """
    attachment_point_bound(n, ranks, 0)  # validates n and ranks
    _check_finite("memory per rank", mem_per_rank)
    _check_finite("bytes per attachment point", bytes_per_ap)
    _check_finite("base memory", base_mem)
    if bytes_per_ap < 0:
        raise UsageError("bytes per attachment point must be non-negative")
    budget = Fraction(mem_per_rank) - Fraction(base_mem)
    if budget <= 0:
        raise DataError(
            f"base memory {base_mem:g} B leaves no room in {mem_per_rank:g} B per rank"
        )
    # need / (lambda + 1) < budget  <=>  lambda > need / budget - 1.
    need = Fraction(bytes_per_ap) * n * (ranks - 1) / ranks
    return math.floor(need / budget)


def estimate_bytes_per_ap(
    run_a: tuple[float, int], run_b: tuple[float, int]
) -> float:
    """Memory per attachment point: the slope between two ``(bytes, points)`` runs."""
    (mem_a, count_a), (mem_b, count_b) = run_a, run_b
    if count_a == count_b:
        raise UsageError("the two runs must receive different attachment-point counts")
    return (mem_a - mem_b) / (count_a - count_b)


def _integer_cube_root(n: int) -> int:
    """Largest integer r with ``r**3 <= n``."""
    r = round(n ** (1.0 / 3.0))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def communication_lambda_floor(n: int, c: float = 1.0) -> int:
    """``ceil(c * n**(1/3))``, the communication criterion's smallest lambda.

    The cube root of a perfect cube is taken exactly in integers: the
    floating-point root can land just above the integer (the float cube
    root of 27 is 3.0000000000000004), which the ceiling would turn into
    the next integer.
    """
    if n < 1:
        raise UsageError("n must be positive")
    _check_finite("n", n)
    _check_finite("the communication constant", c)
    if c < 0:
        raise UsageError("the communication constant must be non-negative")
    root = _integer_cube_root(n)
    floor = c * (root if root**3 == n else math.cbrt(n))
    _check_finite("the communication floor", floor)
    return math.ceil(floor)


def lambda_advisor_report(
    n: int,
    ranks: int,
    mem_per_rank: float,
    bytes_per_ap: float,
    base_mem: float,
    c: float = 1.0,
    lambda_cap: float | None = None,
) -> dict:
    """Both criteria and the smallest lambda that satisfies them.

    ``lambda_cap`` is the volume of the smallest feature that must stay
    exact, so it cannot be negative; the recommendation is feasible when
    it lies below it.
    """
    if lambda_cap is not None:
        _check_finite("lambda cap", lambda_cap)
        if lambda_cap < 0:
            raise UsageError("lambda cap must be non-negative")
    memory_min = estimate_lambda_min_memory(n, ranks, mem_per_rank, bytes_per_ap, base_mem)
    floor = communication_lambda_floor(n, c)
    recommended = max(memory_min, floor)
    return {
        "n": n,
        "ranks": ranks,
        "memory_criterion_lambda_min": memory_min,
        "communication_criterion_floor": floor,
        "recommended_min": recommended,
        "attachment_point_bound": attachment_point_bound(n, ranks, recommended),
        "lambda_cap": lambda_cap,
        "feasible": lambda_cap is None or recommended < lambda_cap,
    }
