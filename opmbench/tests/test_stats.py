import math

import pytest

import stats


@pytest.mark.parametrize("n, q", [(20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
                                  (1000, 99.0), (25, 60.0)])
def test_tail_is_the_percentile_with_ten_jobs_beyond(n, q):
    got, is_tail = stats.tail_percentile(n)
    assert is_tail and got == pytest.approx(q)
    assert stats.beyond(n, got) == stats.TAIL_MIN_BEYOND


@pytest.mark.parametrize("n", [1, 7, 19])
def test_too_few_jobs_fall_back_to_the_median(n):
    assert stats.tail_percentile(n) == (50.0, False)


def test_every_job_count_keeps_exactly_ten_beyond():
    for n in range(20, 5000):
        q, _ = stats.tail_percentile(n)
        assert stats.beyond(n, q) == 10, n


def test_failed_jobs_are_infinitely_slow():
    latencies = [0.1] * 30 + [None] * 11
    summary = stats.summarise_jobs(latencies, elapsed=3.0)
    assert summary["failed"] == 11 and summary["attempted"] == 41
    assert summary["ok_ratio"] == pytest.approx(30 / 41)
    assert summary["jobs_per_s"] == pytest.approx(10.0)
    assert summary["job_p50_s"] == pytest.approx(0.1)
    # eleven failures: the job with ten beyond it is itself a failure
    assert summary["job_tail_s"] == stats.FAILED_LATENCY_S


def test_refused_jobs_are_unserved_but_not_failed():
    latencies = [0.1] * 30 + [stats.REFUSED] * 2 + [None]
    summary = stats.summarise_jobs(latencies, elapsed=3.0)
    assert summary["attempted"] == 33
    assert summary["failed"] == 1 and summary["refused"] == 2
    assert summary["ok_ratio"] == pytest.approx(30 / 33)
    assert summary["jobs_per_s"] == pytest.approx(10.0)
    assert stats.percentile(latencies, 100.0) == stats.FAILED_LATENCY_S
    assert [stats.served(v) for v in (0.1, None, stats.REFUSED)] == [True, False, False]


def test_digits_caps_exact_agreement_and_flags_non_finite():
    ref = [1.0, -2.0, 4.0]
    assert stats.digits(ref, ref) == stats.DIGITS_CAP
    assert stats.digits([1.0, -2.0, 4.0 + 4e-6], ref) == pytest.approx(6.0)
    assert stats.digits([math.nan, 0.0, 0.0], ref) == 0.0
    with pytest.raises(ValueError):
        stats.digits([1.0], ref)


def test_exponent_fit_recovers_a_power_law():
    sizes = [1000, 2000, 4000, 8000] * 2
    times = [1e-9 * s**2 for s in sizes]
    assert stats.fit_exponent(sizes, times) == pytest.approx(2.0)
    assert stats.fit_exponent([5, 5], [1.0, 2.0]) == 0.0
