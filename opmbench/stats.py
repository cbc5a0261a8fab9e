"""Latency summaries, accuracy digits and cost-model exponent fits."""

from __future__ import annotations

import math

#: Jobs that must lie beyond a percentile for it to count as the tail.
TAIL_MIN_BEYOND = 10

#: A percentile that lands on a failed job (infinite latency) reads as
#: this many seconds: JSON has no infinity.
FAILED_LATENCY_S = 1e9

#: Latency entry of a job the program turned away at a documented input
#: limit (the daemon's 64 KiB request line).  It was not served, so it
#: counts against ``ok_ratio`` and sorts as infinitely slow, but it is a
#: known defect of the program, not a failed operation.
REFUSED = math.inf

#: Relative error floor of :func:`digits` (double precision).
DIGITS_CAP = 16.0


def served(latency) -> bool:
    """Whether a latency entry is a served job (not failed or refused)."""
    return latency is not None and not math.isinf(latency)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; ``None`` (failed) and
    :data:`REFUSED` entries sort as infinitely slow."""
    ordered = sorted(math.inf if v is None else v for v in values)
    if not ordered:
        raise ValueError("no values")
    rank = _rank(q, len(ordered))
    value = ordered[rank - 1]
    return FAILED_LATENCY_S if math.isinf(value) else value


def beyond(n: int, q: float) -> int:
    """Jobs strictly beyond the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(q, n)


def _rank(q: float, n: int) -> int:
    # the 1e-9 keeps q = 100 k / n on rank k despite float rounding
    return min(n, max(1, math.ceil(q / 100.0 * n - 1e-9)))


def tail_percentile(n: int) -> tuple[float, bool]:
    """The highest percentile with at least ten of ``n`` jobs beyond it.

    That is the eleventh-slowest job, at ``q = 100 (n - 10) / n``; the
    percentile moves smoothly with ``n``, so a run that completes one job
    more or less does not jump to another rank.  Returns ``(q, True)``;
    below twenty jobs no percentile at or above the median qualifies and
    the median is returned as ``(50.0, False)``.
    """
    if n < 2 * TAIL_MIN_BEYOND:
        return 50.0, False
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, True


def digits(value, reference) -> float:
    """Correct significant digits of ``value`` against ``reference``:
    ``-log10`` of the max-norm error relative to the reference's max norm,
    capped at :data:`DIGITS_CAP`."""
    import numpy as np

    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        raise ValueError(f"shape {value.shape} != reference shape {reference.shape}")
    if not np.all(np.isfinite(value)):
        return 0.0
    scale = float(np.max(np.abs(reference))) or 1.0
    err = float(np.max(np.abs(value - reference))) / scale
    return min(DIGITS_CAP, -math.log10(max(err, 10.0 ** -DIGITS_CAP)))


def fit_exponent(sizes, times) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``, using
    the median time per distinct size; 0 with fewer than two sizes."""
    groups: dict[float, list[float]] = {}
    for s, t in zip(sizes, times):
        if s > 0 and t > 0:
            groups.setdefault(s, []).append(t)
    if len(groups) < 2:
        return 0.0
    xs = [math.log(s) for s in groups]
    ys = [math.log(median(ts)) for ts in groups.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def summarise_jobs(latencies, elapsed: float) -> dict:
    """The latency/throughput/failure figures of one timed phase.

    ``latencies`` holds one entry per attempted job: seconds, ``None``
    for a failed job, or :data:`REFUSED`.  Refused jobs are not served
    but are not counted in ``failed``.
    """
    n = len(latencies)
    ok = sum(1 for v in latencies if served(v))
    refused = sum(1 for v in latencies if v is not None and math.isinf(v))
    q, is_tail = tail_percentile(n)
    return {
        "attempted": n,
        "failed": n - ok - refused,
        "refused": refused,
        "job_p50_s": percentile(latencies, 50.0),
        "job_tail_s": percentile(latencies, q),
        "tail_percentile": q,
        "tail_is_median_fallback": not is_tail,
        "jobs_per_s": ok / elapsed,
        "ok_ratio": ok / n,
    }
