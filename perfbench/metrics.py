"""Metric rules of the meshpram benchmark (pure functions, no I/O).

run.py applies them to the raw measurements the driver binary prints;
tests/test_metrics.py checks them.
"""

import math
import statistics

# serve-tcp service-level objective: a rung qualifies for slo_rps only when
# its p99 latency, timed from each request's due send time, is at most this.
SLO_P99_MS = 20.0
# A rung is invalid (the generator, not the server, fell behind) when the
# p99 of its send lag exceeds this.
LAG_LIMIT_MS = 1.0
# A rung has a growing backlog when the requests outstanding at the end of
# its schedule exceed those at its start by more than this.
BACKLOG_LIMIT = 32

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else None


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it. None for no samples."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that still has at least `beyond` samples above
    it. Returns (value, percentile, sample_count), or None when there are
    too few samples for any such percentile."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    rank = n - beyond  # 1-based; exactly `beyond` samples sit above it
    pct = math.floor(1000.0 * rank / n) / 10.0
    return ordered[rank - 1], pct, n


def failed_share(failed, attempted):
    """(failed + refused + mismatched) / attempted. A run that attempted
    nothing measured nothing, so it counts as wholly failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def rung_verdict(rung, limit_ms=SLO_P99_MS, lag_limit_ms=LAG_LIMIT_MS,
                 backlog_limit=BACKLOG_LIMIT):
    """Judges one open-loop rate step. Returns a dict with p99_ms, lag_p99_ms,
    valid (the generator kept its schedule), meets (the rung qualifies for
    slo_rps) and reason (why it does not)."""
    p99 = percentile(rung["latency_ms"], 99)
    lag = percentile(rung["lag_ms"], 99)
    growth = rung["backlog_end"] - rung["backlog_start"]
    valid = lag is not None and lag <= lag_limit_ms
    reason = ""
    if not valid:
        reason = "generator fell behind (lag p99 %s ms)" % _fmt(lag)
    elif rung["refused"] > 0 or rung["mismatched"] > 0:
        reason = "refused or wrong responses"
    elif rung["answered"] < rung["sent"]:
        reason = "unanswered requests"
    elif growth > backlog_limit:
        reason = "backlog grew by %d" % growth
    elif p99 is None or p99 > limit_ms:
        reason = "p99 %s ms over the %s ms limit" % (_fmt(p99), _fmt(limit_ms))
    return {"p99_ms": p99, "lag_p99_ms": lag, "valid": valid,
            "meets": reason == "", "reason": reason}


def slo_rps(rungs, **limits):
    """The highest offered rate of an ascending ladder that meets the limit
    with no valid rung below it missing. An invalid rung (the generator fell
    behind, so the offered rate is unknown) neither qualifies nor ends the
    walk. 0 when no rung qualifies."""
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        verdict = rung_verdict(rung, **limits)
        if verdict["meets"]:
            best = rung["rate"]
        elif verdict["valid"]:
            break
    return best


def segment_median(segments, stat):
    """Median over segments (each a list of samples) of stat(samples); a
    statistic one unlucky segment cannot decide. None for no samples."""
    values = [stat(s) for s in segments if s]
    return statistics.median(values) if values else None


def exact_failures(checks):
    """Names of exact checks whose two sequences differ or are empty."""
    return [c["name"] for c in checks if not c["a"] or c["a"] != c["b"]]


def _fmt(x):
    return "n/a" if x is None else "%.3g" % x
