"""Comparing sets of runs: spreads, the self-check and the parent/change verdict.

A *set* is ``{workload: {metric: [one value per run]}}`` with the runs in
seed order, as ``run.py --repeat`` writes it.  The spread of a metric is the
distance between the first and third quartile of its values as a share of
their median -- the same statistic the driver's noise check uses.
"""

from __future__ import annotations

import statistics

from perf.metrics import END_TO_END, WALL_CLOCK

#: the self-check is stricter than the driver: a spread this wide, measured
#: on a calm box, would not survive the gate host
MAX_SPREAD_WALL = 0.10
MAX_SPREAD_EXACT = 0.02


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(old: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``old``, positive when it is worse."""
    change = (new - old) / old
    return change if better == "lower" else -change


def selfcheck(first: dict, second: dict) -> tuple[list[dict], list[str]]:
    """Rows and failures of two sets of runs of the same code."""
    rows, failures = [], []
    for workload in first:
        for name, _unit, better, bound in END_TO_END:
            a, b = first[workload][name], second[workload][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            row = {
                "workload": workload,
                "metric": name,
                "median_1": median_a,
                "median_2": median_b,
                "spread_1": spread(a),
                "spread_2": spread(b),
                "medians_differ": abs(median_b - median_a) / median_a,
                "worse_by": worse_by(median_a, median_b, better),
            }
            rows.append(row)
            limit = MAX_SPREAD_WALL if name in WALL_CLOCK else MAX_SPREAD_EXACT
            for key in ("spread_1", "spread_2"):
                if row[key] > limit:
                    failures.append(f"{workload}/{name}: {key} {row[key]:.3f} exceeds {limit}")
            if row["medians_differ"] > bound / 2:
                failures.append(
                    f"{workload}/{name}: medians differ by {row['medians_differ']:.3f}, "
                    f"more than half the bound {bound}"
                )
    return rows, failures


def compare(old: dict, new: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) with a verdict.

    ``unresolved``: either side spreads wider than the bound, so nothing can
    be said.  ``regressed``: the new median is worse by more than the bound.
    ``improved``: the change wins at least nine tenths of the seed-matched
    pairs (ties count for neither) and the medians differ by more than the
    old runs' own inter-quartile distance.  Otherwise ``unchanged``.
    """
    rows = []
    for workload in old:
        if workload not in new:
            continue
        for name, _unit, better, bound in END_TO_END:
            a, b = old[workload][name], new[workload][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = spread(a), spread(b)
            worse = worse_by(median_a, median_b, better)
            pairs = [(x, y) for x, y in zip(a, b) if x != y]
            wins = sum(1 for x, y in pairs if worse_by(x, y, better) < 0)
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif pairs and wins >= 0.9 * len(pairs) and -worse > spread_a:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append({
                "workload": workload,
                "metric": name,
                "median_old": median_a,
                "median_new": median_b,
                "spread_old": spread_a,
                "spread_new": spread_b,
                "worse_by": worse,
                "wins": f"{wins}/{len(pairs)}",
                "verdict": verdict,
            })
    return rows


def table(rows: list[dict]) -> str:
    """Rows as a GitHub-flavoured markdown table (floats to 4 significant digits)."""
    if not rows:
        return ""
    columns = list(rows[0])

    def cell(value) -> str:
        return f"{value:.4g}" if isinstance(value, float) else str(value)

    lines = ["| " + " | ".join(columns) + " |", "|" + " --- |" * len(columns)]
    lines += ["| " + " | ".join(cell(row[c]) for c in columns) + " |" for row in rows]
    return "\n".join(lines)
