import pytest

from gridtopo.dist.estimate import (
    attachment_point_bound,
    communication_lambda_floor,
    estimate_bytes_per_ap,
    estimate_lambda_min_memory,
    lambda_advisor_report,
)
from gridtopo.errors import DataError, UsageError

GIB = 1024**3


def test_bound_formula():
    assert attachment_point_bound(1000, 10, 9) == (1000 - 100) / 10 == 90


def test_lambda_min_reference_configuration():
    # 2048^3 over 16 ranks, 512 GB budget, 209.02 bytes per point,
    # 133.26 GiB base footprint: the minimum threshold is 4.
    lam = estimate_lambda_min_memory(
        2048**3, 16, 512e9, 209.02, 133.26 * GIB
    )
    assert lam == 4


def test_lambda_min_huge_budget_is_zero():
    assert estimate_lambda_min_memory(10**6, 8, 1e18, 200.0, 1e6) == 0


def test_lambda_min_infeasible():
    with pytest.raises(DataError):
        estimate_lambda_min_memory(10**6, 8, 1e9, 200.0, 2e9)


def test_lambda_min_monotone_in_memory():
    previous = None
    for mem in (2e9, 4e9, 8e9, 16e9, 64e9, 512e9):
        lam = estimate_lambda_min_memory(2048**3, 16, mem, 209.02, 1e9)
        if previous is not None:
            assert lam <= previous
        previous = lam


def test_lambda_min_strictness():
    # Exact boundary: bound equal to budget is not enough, strictly less.
    n, r = 1000, 10
    # external = 1.0 * 900; budget 90 -> lambda+1 > 10 -> lambda = 10
    assert estimate_lambda_min_memory(n, r, 100.0, 1.0, 10.0) == 10


def test_bytes_per_ap_reference_runs():
    got = estimate_bytes_per_ap(
        (574.66 * GIB, 697_320_285), (439.17 * GIB, 1_288_810)
    )
    assert abs(got - 209.02) < 0.5


def test_bytes_per_ap_zero_when_memory_equal():
    assert estimate_bytes_per_ap((5e9, 100), (5e9, 50)) == 0.0


def test_bytes_per_ap_linear_slope():
    slope = 150.0
    runs = [(1e9 + slope * n, n) for n in (1_000, 750_000)]
    assert estimate_bytes_per_ap(runs[0], runs[1]) == pytest.approx(150.0)


def test_bytes_per_ap_equal_counts_rejected():
    with pytest.raises(UsageError):
        estimate_bytes_per_ap((1e9, 5), (2e9, 5))


def test_comm_floor_cube_roots():
    assert communication_lambda_floor(10**6, 1.0) == 100
    assert communication_lambda_floor(2048**3, 1.0) == 2048


def test_comm_floor_rounds_up():
    assert communication_lambda_floor(10, 1.0) == 3  # 10^(1/3) = 2.154...


def test_comm_floor_scaling():
    base = communication_lambda_floor(10**6, 1.0)
    doubled = communication_lambda_floor(2 * 10**6, 1.0)
    assert doubled == pytest.approx(base * 2 ** (1 / 3), abs=1)


def test_advisor_report_composes():
    report = lambda_advisor_report(
        2048**3, 16, 512e9, 209.02, 133.26 * GIB, c=1.0, lambda_cap=5000
    )
    assert report["memory_criterion_lambda_min"] == estimate_lambda_min_memory(
        2048**3, 16, 512e9, 209.02, 133.26 * GIB
    )
    assert report["communication_criterion_floor"] == communication_lambda_floor(
        2048**3, 1.0
    )
    assert report["recommended_min"] == 2048
    assert report["feasible"] is True


def test_advisor_report_infeasible_cap():
    report = lambda_advisor_report(10**6, 8, 1e12, 200.0, 1e6, lambda_cap=10)
    assert report["feasible"] is False


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_lambda_min_rejects_non_finite(bad):
    for args in (
        (10**6, 8, bad, 200.0, 1e6),
        (10**6, 8, 1e12, bad, 1e6),
        (10**6, 8, 1e12, 200.0, bad),
    ):
        with pytest.raises(UsageError):
            estimate_lambda_min_memory(*args)


def test_lambda_min_overflowing_product_is_exact():
    # bytes_per_ap * points overflows a float; the exact answer does not.
    lam = estimate_lambda_min_memory(10**10, 2, 2.0, 1e308, 1.0)
    assert lam == int(1e308) * 10**10 // 2


def test_lambda_min_beyond_float_precision():
    # lambda + 1 == lambda in floats here; the exact solution still ends.
    assert estimate_lambda_min_memory(10**6, 2, 2.0, 1e20, 1.0) == 5 * 10**25


@pytest.mark.parametrize("c", [float("nan"), float("inf"), 1e308])
def test_comm_floor_rejects_non_finite(c):
    with pytest.raises(UsageError):
        communication_lambda_floor(10**10, c)


def test_comm_floor_rejects_n_beyond_float_range():
    with pytest.raises(UsageError):
        communication_lambda_floor(10**400, 1.0)


@pytest.mark.parametrize("cap", [float("nan"), float("inf"), -3])
def test_advisor_report_rejects_non_finite_cap(cap):
    with pytest.raises(UsageError):
        lambda_advisor_report(10**6, 8, 1e12, 200.0, 1e6, lambda_cap=cap)


def test_advisor_report_rejects_lambda_beyond_float_range():
    with pytest.raises(UsageError):
        lambda_advisor_report(10**10, 2, 2.0, 1e308, 1.0)
