"""Percentiles and closed-loop accounting of benchmark request rows.

Pure functions over the driver's raw rows (dicts), so they are unit-tested
in perfbench/tests/test_stats.py without building anything.
"""

import math
import statistics

# Percentiles the summary may report, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile position."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values, wanted=90):
    """(p, value, beyond) for `wanted` when at least ten samples lie beyond
    it, else for the highest lower percentile that has ten; None when even
    the median has fewer than ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if p <= wanted and samples_beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p), samples_beyond(n, p)
    return None


def check_closed_loop(spans):
    """One client, closed loop: each request starts only after the previous
    one ended.  `spans` are (t0_s, dur_s) of the request spans in issue
    order.  Returns the number of overlapping pairs (0 when the loop is
    closed)."""
    overlaps = 0
    end = -math.inf
    for t0, dur in spans:
        if t0 < end - 1e-9:
            overlaps += 1
        end = max(end, t0 + dur)
    return overlaps


def accounting(rows):
    """attempted / failed / failed_frac over request rows."""
    attempted = len(rows)
    failed = sum(1 for r in rows if not r["ok"])
    return {"attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 0.0}


def mlups(rows):
    """Lattice-site updates over advance() seconds, summed over rows."""
    seconds = sum(r["advance_s"] for r in rows)
    lups = sum(r["lups"] for r in rows)
    return lups / seconds / 1e6 if seconds > 0 else 0.0


def rate(row):
    """One request's own MLUP/s."""
    return row["lups"] / row["advance_s"] / 1e6


def by_key(rows):
    """Rows grouped by request key: (operator, variant)."""
    groups = {}
    for r in rows:
        groups.setdefault((r["op"], r["variant"]), []).append(r)
    return groups


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def keyed(rows, value):
    """Geometric mean over request keys of each key's median `value(row)`.

    Every key moves it: a factor x on one of k keys moves it by x^(1/k),
    whichever key it is, so neither the schedule whose rate happens to be
    the middle one nor the slowest one alone decides it, and the medians
    damp one key's outlying requests."""
    return geomean(statistics.median(value(r) for r in g)
                   for g in by_key(rows).values())


def keyed_rate(rows):
    return keyed(rows, rate)


def keyed_wall(rows):
    return keyed(rows, lambda r: r["wall_s"])


def tracing_overhead(rows):
    """1 - traced over untraced rate, compared within each request key
    (median rate of its traced rows over that of its untraced ones) and
    combined over the keys that have both by geometric mean."""
    ratios = []
    for g in by_key(rows).values():
        on = [rate(r) for r in g if r["traced"]]
        off = [rate(r) for r in g if not r["traced"]]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    return 1.0 - geomean(ratios) if ratios else 0.0


def setup_seconds(rows, load_s):
    """Median over rounds of the first-request costs: scenario load plus,
    for every request key first seen in the round, wall minus advance()."""
    per_round = {}
    for r in rows:
        per_round.setdefault(r["round"], load_s)
        if r["first"]:
            per_round[r["round"]] += r["wall_s"] - r["advance_s"]
    return statistics.median(per_round.values())


def ratio(num, den):
    return num / den if den else 0.0


def reg_sum(rows, name):
    return sum(r["reg"].get(name, 0.0) for r in rows)
