"""Statistics helpers of the serving benchmark, in one place so every
run and every later comparison reduces samples the same way.

As a program it applies the paired-comparison rule to two sets of
result lines (the last line `run.py` prints, one run per line, pairs
in the order they were run):

    python3 perfbench/stats.py compare PARENT.jsonl CHANGE.jsonl
"""

import json
import math
import os
import statistics
import sys

# Percentiles `tail_percentile` considers, lowest first.
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First quartile, median and third quartile, as
    `statistics.quantiles(xs, n=4)` gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least a
    share `p` of the samples at or below it."""
    s = sorted(xs)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def beyond(n, p):
    """Samples above the `p` percentile of `n` samples."""
    return n - math.ceil(p * n)


def tail_percentile(xs, min_beyond=10):
    """The highest percentile of `TAIL_LADDER` with at least
    `min_beyond` samples beyond it: `(p, value, sample_count)`, or
    `None` when not even the median has that many."""
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= min_beyond:
            best = (p, percentile(xs, p), n)
    return best


def reduce(stat, xs, windows=1):
    """One metric value from raw samples: `median`, `p50` or `p99`.
    A percentile needs at least ten samples beyond it. With
    `windows > 1`, `xs` (in the order taken) splits into that many
    equal runs and the value is the median of the statistic over them."""
    if not xs:
        raise ValueError("no samples")
    if windows > 1:
        size = len(xs) // windows
        return median([reduce(stat, xs[i * size:(i + 1) * size]) for i in range(windows)])
    if stat == "median":
        return median(xs)
    p = {"p50": 0.5, "p99": 0.99}[stat]
    if beyond(len(xs), p) < 10:
        raise ValueError(f"{stat} needs 10 samples beyond it, have {len(xs)} samples")
    return percentile(xs, p)


def run_order(pairs):
    """Which side runs first in each pair: alternating, parent first."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent") for i in range(pairs)]


def paired_compare(parent, change, better):
    """The paired-comparison rule: at least ten pairs run in alternating
    order; the change wins at least nine tenths of them (ties count for
    neither); and the medians differ, in the better direction, by more
    than the parent's own spread (the distance between its quartiles).
    `parent[i]` and `change[i]` are pair `i`."""
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    gap = sign * (median(change) - pmed)
    iqr = pq3 - pq1
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent_median": pmed,
        "change_median": median(change),
        "parent_iqr": iqr,
        "gap": gap,
        "gain": len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > iqr,
    }


def regressed(parent, change, better, bound):
    """Whether the change's median is worse than the parent's by more
    than `bound`, a share of the parent's median."""
    sign = 1 if better == "higher" else -1
    pmed = median(parent)
    return sign * (median(change) - pmed) < -bound * abs(pmed)


def verdict(parent, change, better, bound):
    """The paired comparison of one metric plus its verdict: `unresolved`
    when the parent's own spread exceeds the bound (its runs cannot
    tell a regression of that size from noise), else `regressed`,
    `gain` or `same`."""
    v = paired_compare(parent, change, better)
    v["parent_spread"] = spread(parent)
    if v["parent_spread"] > bound:
        v["verdict"] = "unresolved"
    elif regressed(parent, change, better, bound):
        v["verdict"] = "regressed"
    else:
        v["verdict"] = "gain" if v["gain"] else "same"
    return v


def split_key(key, names):
    """`(workload, metric)` of a result key: a bare metric name, or
    `<workload>.<metric>` as `run.py --workload all` prints it. The
    workload is `None` for a bare name, and both are `None` when the
    key names none of `names`."""
    if key in names:
        return None, key
    for name in names:
        if key.endswith("." + name):
            return key[: -len(name) - 1], name
    return None, None


def compare(parent, change, spec):
    """Verdicts for every end-to-end metric of `spec` (BENCHMARK.json)
    found in both sets of result lines, keyed as the lines key them."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for key in parent[0]["metrics"]:
        _, name = split_key(key, metrics)
        if name is None or key not in change[0]["metrics"]:
            continue
        m = metrics[name]
        a = [r["metrics"][key]["value"] for r in parent]
        b = [r["metrics"][key]["value"] for r in change]
        out[key] = verdict(a, b, m["better"], m["bound"])
    return out


def _load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _compare(parent_path, change_path):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, v in compare(_load(parent_path), _load(change_path), spec).items():
        print(
            f"{key}: {v['verdict']}: parent {v['parent_median']:.6g} change {v['change_median']:.6g} "
            f"wins {v['wins']}/{v['pairs']} gap {v['gap']:.6g} parent IQR {v['parent_iqr']:.6g} "
            f"parent spread {v['parent_spread']:.3f}"
        )


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "compare":
        sys.exit(__doc__)
    _compare(sys.argv[2], sys.argv[3])
