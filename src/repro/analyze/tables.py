"""Publishable text/markdown tables: from aggregates to conclusions.

The last rung of the pipeline: a memoized :class:`AggregateResult` or a
regression pass renders as an aligned plain-text table (terminal) or a
markdown table (docs/PR bodies).  Formatting is deliberately deterministic
— sorted groups, fixed float formats — so golden-fixture tests can
byte-pin the output and tables regenerate identically across runs.

``campaign_table`` is the E2–E8 workhorse (one row per grid group per
metric, with the replicate CI); ``e1_table`` and ``micro_table`` render
the paper's E1 scaling evidence and the micro-bench trajectory verdicts
straight from the committed ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from .cache import AggregateResult
from .regression import RegressionReport


def _fmt(value: Any) -> str:
    """Deterministic cell formatting (6 significant digits for floats)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) < 1e15 and value == int(value):  # inf falls through
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Aligned plain-text table (numbers right-aligned, labels left)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def is_num(cell: str) -> bool:
        if cell == "-":
            return True
        try:
            float(cell.lstrip("±"))
            return True
        except ValueError:
            return False

    numeric = [
        bool(cells) and all(is_num(r[i]) for r in cells)
        for i in range(len(headers))
    ]

    def line(row: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The same rows as a GitHub-flavoured markdown table."""
    out = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    out.extend(
        "| " + " | ".join(_fmt(c) for c in row) + " |" for row in rows
    )
    return "\n".join(out) + "\n"


#: Headers of the campaign (grid-aggregate) table.
CAMPAIGN_HEADERS = (
    "group", "metric", "n", "failed", "mean", "ci", "lo", "hi", "min", "max",
)


def campaign_rows(
    result: AggregateResult, confidence: float = 0.95
) -> List[List[Any]]:
    """One row per (group, metric) with the replicate CI attached."""
    rows: List[List[Any]] = []
    for key in sorted(result.groups):
        group = result.groups[key]
        intervals = group.intervals(confidence)
        for metric in sorted(intervals):
            ci = intervals[metric]
            acc = group.metrics[metric]
            rows.append(
                [
                    key or "(all)",
                    metric,
                    ci.n,
                    group.failed,
                    ci.mean,
                    f"±{_fmt(ci.half_width)}",
                    ci.lo,
                    ci.hi,
                    acc.min,
                    acc.max,
                ]
            )
    return rows


def campaign_table(
    result: AggregateResult, confidence: float = 0.95, markdown: bool = False
) -> str:
    """The grid-aggregate table of one memoized campaign aggregation."""
    render = markdown_table if markdown else format_table
    return render(CAMPAIGN_HEADERS, campaign_rows(result, confidence))


#: Headers of the trajectory-regression table.
REGRESSION_HEADERS = (
    "bench", "workload", "metric", "value", "best", "ratio", "pi_lower",
    "n", "status",
)


def regression_rows(report: RegressionReport) -> List[List[Any]]:
    """One row per checked trajectory series, findings first."""
    ordered = sorted(
        report.checked,
        key=lambda c: (c.ok, not c.rules_violated, c.bench, c.workload, c.metric),
    )
    return [
        [
            c.bench,
            c.workload,
            c.metric,
            c.value,
            c.best,
            c.ratio_vs_best,
            c.pi_lower,
            c.n_history,
            ("REGRESSION(" + ",".join(c.rules_violated) + ")")
            if (c.gated and c.rules_violated)
            else ("drift(" + ",".join(c.rules_violated) + ")")
            if c.rules_violated
            else ("ok" if c.gated else "watch"),
        ]
        for c in ordered
    ]


def regression_table(report: RegressionReport, markdown: bool = False) -> str:
    """The human half of the regression report (pairs the JSON)."""
    render = markdown_table if markdown else format_table
    return render(REGRESSION_HEADERS, regression_rows(report))


def e1_table(
    runs: Sequence[Mapping[str, Any]], markdown: bool = False
) -> str:
    """The paper's E1 scaling table from the latest ``BENCH_e1.json`` entry."""
    if not runs:
        return "(no recorded E1 runs)\n"
    latest = runs[-1]
    headers = ("side", "partitions", "n_nodes", "wall_s", "tx_per_s", "commit")
    rows: List[List[Any]] = []
    workloads = latest.get("workloads", {})
    for name in ("e1_deployed_scaling", "e1_partitioned"):
        for row in workloads.get(name, []) or []:
            rows.append(
                [
                    row.get("side"),
                    row.get("partitions", 1),
                    row.get("n_nodes"),
                    row.get("wall_s"),
                    row.get("tx_per_s"),
                    latest.get("commit", "unknown"),
                ]
            )
    render = markdown_table if markdown else format_table
    return render(headers, rows)


def micro_table(
    runs: Sequence[Mapping[str, Any]],
    markdown: bool = False,
    keys: Optional[Sequence[str]] = None,
) -> str:
    """Latest micro-suite rates with their best recorded values."""
    if not runs:
        return "(no recorded micro runs)\n"
    latest = runs[-1]
    headers = ("workload", "metric", "latest", "best", "ratio")
    rows: List[List[Any]] = []
    workloads: Dict[str, Any] = latest.get("workloads", {})
    for name in sorted(workloads):
        row = workloads[name]
        if not isinstance(row, Mapping):
            continue
        for metric in sorted(row):
            if not metric.endswith("_per_s"):
                continue
            if keys is not None and metric not in keys:
                continue
            best = max(
                (
                    r["workloads"][name][metric]
                    for r in runs
                    if isinstance(r.get("workloads", {}).get(name), Mapping)
                    and isinstance(
                        r["workloads"][name].get(metric), (int, float)
                    )
                ),
                default=None,
            )
            value = row[metric]
            rows.append(
                [
                    name,
                    metric,
                    value,
                    best,
                    (value / best) if best else None,
                ]
            )
    render = markdown_table if markdown else format_table
    return render(headers, rows)
