"""Ledger analytics and self-contained HTML run reports.

The ledger (:mod:`repro.obs.ledger`) accumulates one JSONL record per
wrapped run; this module turns those records into answers:

* :func:`aggregate_runs` — group records by entry point, solver, game
  fingerprint or git revision and compute count, error rate and latency
  percentiles (nearest-rank p50/p95) per group;
* :func:`metric_trends` — per-entry-point trends across records, oldest
  first (durations plus selected convergence gauges: the double-oracle
  certified gap, the fictitious-play residual);
* :func:`rev_deltas` — duration deltas between consecutive git
  revisions, the "did this PR slow solve X down" query;
* :func:`render_report_html` / :func:`render_report_markdown` — a
  **self-contained** HTML report (one file, inline CSS and inline SVG
  sparklines, light/dark via CSS custom properties, no external
  resources) and its markdown twin;
* :func:`write_report` — the one-call face behind
  ``repro-defender ledger report``: read a ledger directory, fold in the
  watchdog trajectory from ``BENCH_KERNELS.json`` when present, fold in
  an SLO report (``repro.obs/slo-report/v1``, see :mod:`repro.obs.slo`)
  when given one, write both renderings.

Everything here is read-only over the ledger files and pure stdlib.
"""

from __future__ import annotations

import html
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.obs.metrics as _metrics
from repro.obs.ledger import read_runs
from repro.obs.log import get_logger

__all__ = [
    "GROUP_KEYS",
    "aggregate_runs",
    "metric_trends",
    "rev_deltas",
    "render_report_html",
    "render_report_markdown",
    "write_report",
]

_log = get_logger("repro.obs.report")

#: Supported ``group_by`` dimensions for :func:`aggregate_runs`.
GROUP_KEYS = ("entry_point", "solver", "fingerprint", "git_rev")

#: Convergence gauges surfaced as trends when present in run metrics.
_CONVERGENCE_GAUGES = (
    ("double_oracle.gap", "double-oracle certified gap"),
    ("fictitious_play.residual", "fictitious-play residual"),
)


def _group_key(record: Dict[str, Any], group_by: str) -> str:
    if group_by == "entry_point":
        return str(record.get("entry_point", "?"))
    if group_by == "solver":
        entry = str(record.get("entry_point", "?"))
        return entry.split(".", 1)[1] if entry.startswith("solvers.") \
            else entry
    if group_by == "fingerprint":
        sha = (record.get("fingerprint") or {}).get("sha256", "")
        return sha[:12] if sha else "(no fingerprint)"
    if group_by == "git_rev":
        return str((record.get("env") or {}).get("git_rev", "unknown"))
    raise ValueError(
        f"unknown group_by {group_by!r}; expected one of {GROUP_KEYS}"
    )


def aggregate_runs(
    records: Sequence[Dict[str, Any]], group_by: str = "entry_point"
) -> List[Dict[str, Any]]:
    """Aggregate ledger records along one :data:`GROUP_KEYS` dimension.

    Returns one dict per group, sorted by key: ``{"key", "count",
    "errors", "error_rate", "duration_s": {"p50", "p95", "mean", "min",
    "max"}}``.
    """
    with _metrics.timer("report.aggregate.seconds"):
        groups: Dict[str, List[Dict[str, Any]]] = {}
        for record in records:
            groups.setdefault(_group_key(record, group_by), []).append(record)
        rows = []
        for key in sorted(groups):
            members = groups[key]
            durations = sorted(
                float(r.get("duration_s", 0.0)) for r in members
            )
            errors = sum(1 for r in members if r.get("status") == "error")
            rows.append({
                "key": key,
                "count": len(members),
                "errors": errors,
                "error_rate": errors / len(members),
                "duration_s": {
                    "p50": _metrics.nearest_rank(durations, 50),
                    "p95": _metrics.nearest_rank(durations, 95),
                    "mean": sum(durations) / len(durations),
                    "min": durations[0],
                    "max": durations[-1],
                },
            })
    return rows


def _gauge(record: Dict[str, Any], name: str) -> Optional[float]:
    value = ((record.get("metrics") or {}).get("gauges") or {}).get(name)
    return float(value) if isinstance(value, (int, float)) else None


def metric_trends(
    records: Sequence[Dict[str, Any]],
) -> Dict[str, Dict[str, List[float]]]:
    """Per-entry-point value series across records, oldest first.

    Returns ``{entry_point: {"duration_s": [...], <gauge>: [...]}}`` —
    the series the report's sparklines draw.  Convergence gauges are
    included only for entry points whose records carry them.
    """
    with _metrics.timer("report.trends.seconds"):
        trends: Dict[str, Dict[str, List[float]]] = {}
        ordered = sorted(records, key=lambda r: r.get("started_at", 0.0))
        for record in ordered:
            entry = str(record.get("entry_point", "?"))
            series = trends.setdefault(entry, {"duration_s": []})
            series["duration_s"].append(float(record.get("duration_s", 0.0)))
            for gauge_name, _ in _CONVERGENCE_GAUGES:
                value = _gauge(record, gauge_name)
                if value is not None:
                    series.setdefault(gauge_name, []).append(value)
    return trends


def rev_deltas(
    records: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Mean-duration deltas between consecutive git revisions.

    Revisions are ordered by the earliest run recorded under each; one
    row per (entry point, rev -> next rev) transition with the mean
    duration on both sides and the relative change.
    """
    with _metrics.timer("report.rev_deltas.seconds"):
        first_seen: Dict[str, float] = {}
        by_rev_entry: Dict[Tuple[str, str], List[float]] = {}
        for record in records:
            rev = str((record.get("env") or {}).get("git_rev", "unknown"))
            entry = str(record.get("entry_point", "?"))
            started = float(record.get("started_at", 0.0))
            if rev not in first_seen or started < first_seen[rev]:
                first_seen[rev] = started
            by_rev_entry.setdefault((rev, entry), []).append(
                float(record.get("duration_s", 0.0))
            )
        revs = sorted(first_seen, key=lambda r: first_seen[r])
        deltas = []
        for prev, curr in zip(revs, revs[1:]):
            entries = sorted({
                entry for rev, entry in by_rev_entry if rev in (prev, curr)
            })
            for entry in entries:
                a = by_rev_entry.get((prev, entry))
                b = by_rev_entry.get((curr, entry))
                if not a or not b:
                    continue
                mean_a = sum(a) / len(a)
                mean_b = sum(b) / len(b)
                deltas.append({
                    "entry_point": entry,
                    "rev_a": prev,
                    "rev_b": curr,
                    "mean_a_s": mean_a,
                    "mean_b_s": mean_b,
                    "delta_s": mean_b - mean_a,
                    "ratio": (mean_b / mean_a) if mean_a > 0 else None,
                })
    return deltas


# --------------------------------------------------------------------------
# rendering


def _sparkline_svg(values: Sequence[float], width: int = 140,
                   height: int = 28) -> str:
    """One inline-SVG sparkline polyline (series color via CSS token)."""
    if len(values) < 2:
        values = list(values) * 2 if values else [0.0, 0.0]
    low, high = min(values), max(values)
    spread = (high - low) or 1.0
    pad = 2.0
    step = (width - 2 * pad) / (len(values) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - low) / spread * (height - 2 * pad):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend of {len(values)} values">'
        f'<polyline points="{points}" fill="none" '
        'stroke="var(--series-1)" stroke-width="2" '
        'stroke-linejoin="round" stroke-linecap="round"/></svg>'
    )


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000:.1f} ms"


_REPORT_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --series-1: #2a78d6;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #2c2c2a;
    --series-1: #3987e5;
    --border: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --grid: #2c2c2a;
  --series-1: #3987e5;
  --border: rgba(255,255,255,0.10);
}
body {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px; line-height: 1.45;
}
main { max-width: 960px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.kpis { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.kpi {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.kpi .v { font-size: 26px; font-weight: 600; }
.kpi .l { color: var(--text-secondary); font-size: 12px; }
table {
  border-collapse: collapse; width: 100%;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; font-size: 13px;
}
th, td {
  text-align: left; padding: 6px 10px;
  border-bottom: 1px solid var(--grid);
}
th { color: var(--text-secondary); font-weight: 600; }
td.num { font-variant-numeric: tabular-nums; text-align: right; }
th.num { text-align: right; }
tr:last-child td { border-bottom: none; }
.spark { display: block; }
.status { font-weight: 600; }
.status.ok { color: var(--status-good); }
.status.regressed { color: var(--status-critical); }
footer { color: var(--muted); font-size: 12px; margin-top: 28px; }
"""


def _kpi(value: str, label: str) -> str:
    return (f'<div class="kpi"><div class="v">{html.escape(value)}</div>'
            f'<div class="l">{html.escape(label)}</div></div>')


def _latency_table(rows: List[Dict[str, Any]],
                   trends: Dict[str, Dict[str, List[float]]]) -> str:
    cells = [
        "<table><thead><tr><th>entry point</th>"
        '<th class="num">runs</th><th class="num">errors</th>'
        '<th class="num">p50</th><th class="num">p95</th>'
        "<th>latency trend</th></tr></thead><tbody>"
    ]
    for row in rows:
        series = trends.get(row["key"], {}).get("duration_s", [])
        cells.append(
            f"<tr><td>{html.escape(row['key'])}</td>"
            f'<td class="num">{row["count"]}</td>'
            f'<td class="num">{row["errors"]}</td>'
            f'<td class="num">{_fmt_s(row["duration_s"]["p50"])}</td>'
            f'<td class="num">{_fmt_s(row["duration_s"]["p95"])}</td>'
            f"<td>{_sparkline_svg(series)}</td></tr>"
        )
    cells.append("</tbody></table>")
    return "".join(cells)


def _convergence_section(
    trends: Dict[str, Dict[str, List[float]]],
) -> str:
    rows = []
    for gauge_name, label in _CONVERGENCE_GAUGES:
        for entry in sorted(trends):
            values = trends[entry].get(gauge_name)
            if not values:
                continue
            rows.append(
                f"<tr><td>{html.escape(entry)}</td>"
                f"<td>{html.escape(label)}</td>"
                f'<td class="num">{values[-1]:.3g}</td>'
                f"<td>{_sparkline_svg(values)}</td></tr>"
            )
    if not rows:
        return "<p class='sub'>No convergence gauges recorded.</p>"
    return (
        "<table><thead><tr><th>entry point</th><th>gauge</th>"
        '<th class="num">latest</th><th>trend across runs</th></tr>'
        "</thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def _watchdog_section(watchdog_doc: Optional[Dict[str, Any]]) -> str:
    if not watchdog_doc:
        return "<p class='sub'>No benchmark trajectory file available.</p>"
    history = [
        entry for entry in watchdog_doc.get("history", [])
        if isinstance(entry.get("cases"), dict)
    ]
    cases = sorted({
        name for entry in history for name in entry["cases"]
    })
    if not cases:
        return "<p class='sub'>Benchmark trajectory has no history.</p>"
    rows = []
    for case in cases:
        values = [
            float(entry["cases"][case]) for entry in history
            if entry["cases"].get(case) is not None
        ]
        if not values:
            continue
        trailing = sorted(values[:-1]) or values
        median = _metrics.nearest_rank(trailing, 50)
        regressed = median > 0 and values[-1] > median * 1.5
        status = (
            '<span class="status regressed">&#9650; regressed</span>'
            if regressed else '<span class="status ok">&#10003; ok</span>'
        )
        rows.append(
            f"<tr><td>{html.escape(case)}</td>"
            f'<td class="num">{_fmt_s(values[-1])}</td>'
            f'<td class="num">{_fmt_s(median)}</td>'
            f"<td>{_sparkline_svg(values)}</td><td>{status}</td></tr>"
        )
    return (
        "<table><thead><tr><th>benchmark case</th>"
        '<th class="num">latest</th><th class="num">trailing median</th>'
        "<th>timing history</th><th>watchdog</th></tr></thead><tbody>"
        + "".join(rows) + "</tbody></table>"
    )


def _slo_section_html(slo_report: Optional[Dict[str, Any]]) -> str:
    results = (slo_report or {}).get("results") or []
    if not results:
        return ("<p class='sub'>No SLO report — pass an access log and "
                "objectives (<code>--slo-config</code>) to evaluate "
                "budgets.</p>")
    rows = []
    for res in results:
        breached = bool(res.get("breached"))
        status = (
            '<span class="status regressed">&#9650; breach</span>'
            if breached else '<span class="status ok">&#10003; ok</span>'
        )
        burn = res.get("burn_rate")
        target = (res.get("objective") or {}).get("latency_p95_s")
        rows.append(
            f"<tr><td>{html.escape(str(res.get('name', '?')))}</td>"
            f"<td>{html.escape(str(res.get('endpoint', '*')))}</td>"
            f'<td class="num">{int(res.get("requests", 0))}</td>'
            f'<td class="num">{float(res.get("error_rate", 0.0)) * 100:.2f}%'
            "</td>"
            f'<td class="num">'
            f'{"-" if burn is None else f"{float(burn):.2f}x"}</td>'
            f'<td class="num">{_fmt_s(float(res.get("latency_p95_s", 0.0)))}'
            "</td>"
            f'<td class="num">'
            f'{"-" if target is None else _fmt_s(float(target))}</td>'
            f"<td>{status}</td></tr>"
        )
    return (
        "<table><thead><tr><th>objective</th><th>endpoint</th>"
        '<th class="num">requests</th><th class="num">error rate</th>'
        '<th class="num">burn rate</th><th class="num">p95</th>'
        '<th class="num">target p95</th><th>status</th></tr></thead>'
        "<tbody>" + "".join(rows) + "</tbody></table>"
    )


def render_report_html(
    records: Sequence[Dict[str, Any]],
    watchdog_doc: Optional[Dict[str, Any]] = None,
    title: str = "repro-defender run report",
    slo_report: Optional[Dict[str, Any]] = None,
) -> str:
    """Render ledger records as one self-contained HTML document.

    No external resources: styles are inline CSS custom properties
    (light and dark), charts are inline SVG sparklines.  ``watchdog_doc``
    is a parsed ``BENCH_KERNELS.json`` (schema v2) folded into a
    benchmark-history section when given; ``slo_report`` is an evaluated
    ``repro.obs/slo-report/v1`` document (:func:`repro.obs.slo
    .evaluate_slos`) rendered as a service-level-objective panel.
    """
    with _metrics.timer("report.render_html.seconds"):
        rows = aggregate_runs(records, group_by="entry_point")
        trends = metric_trends(records)
        revs = aggregate_runs(records, group_by="git_rev")
        total = sum(r["count"] for r in rows)
        errors = sum(r["errors"] for r in rows)
        fingerprints = len({
            (r.get("fingerprint") or {}).get("sha256")
            for r in records
            if (r.get("fingerprint") or {}).get("sha256")
        })
        deltas = rev_deltas(records)
        delta_rows = "".join(
            f"<tr><td>{html.escape(d['entry_point'])}</td>"
            f"<td>{html.escape(d['rev_a'])} &#8594; "
            f"{html.escape(d['rev_b'])}</td>"
            f'<td class="num">{_fmt_s(d["mean_a_s"])}</td>'
            f'<td class="num">{_fmt_s(d["mean_b_s"])}</td>'
            f'<td class="num">{d["delta_s"]:+.3f} s</td></tr>'
            for d in deltas
        )
        delta_table = (
            "<table><thead><tr><th>entry point</th><th>revisions</th>"
            '<th class="num">mean before</th><th class="num">mean after</th>'
            '<th class="num">delta</th></tr></thead><tbody>'
            + delta_rows + "</tbody></table>"
        ) if delta_rows else (
            "<p class='sub'>Only one git revision in the ledger — "
            "no cross-revision deltas yet.</p>"
        )
        document = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_REPORT_CSS}</style>
</head>
<body>
<main>
<h1>{html.escape(title)}</h1>
<p class="sub">Aggregated from {total} ledger record{"s" if total != 1 else ""}
across {len(rows)} entry point{"s" if len(rows) != 1 else ""} and
{len(revs)} git revision{"s" if len(revs) != 1 else ""}.</p>
<div class="kpis">
{_kpi(str(total), "runs recorded")}
{_kpi(f"{(errors / total * 100) if total else 0.0:.1f}%", "error rate")}
{_kpi(str(fingerprints), "distinct games")}
{_kpi(str(len(revs)), "git revisions")}
</div>
<h2>Latency by entry point</h2>
{_latency_table(rows, trends)}
<h2>Service-level objectives</h2>
{_slo_section_html(slo_report)}
<h2>Convergence trends</h2>
{_convergence_section(trends)}
<h2>Cross-revision duration deltas</h2>
{delta_table}
<h2>Benchmark watchdog history</h2>
{_watchdog_section(watchdog_doc)}
<footer>Generated by repro-defender ledger report &middot;
schema repro.obs/ledger-report/v1 &middot; self-contained (inline CSS + SVG,
no external resources).</footer>
</main>
</body>
</html>
"""
    return document


def render_report_markdown(
    records: Sequence[Dict[str, Any]],
    watchdog_doc: Optional[Dict[str, Any]] = None,
    title: str = "repro-defender run report",
    slo_report: Optional[Dict[str, Any]] = None,
) -> str:
    """The markdown twin of :func:`render_report_html` (tables, no SVG)."""
    with _metrics.timer("report.render_md.seconds"):
        rows = aggregate_runs(records, group_by="entry_point")
        total = sum(r["count"] for r in rows)
        errors = sum(r["errors"] for r in rows)
        lines = [
            f"# {title}",
            "",
            f"- runs recorded: **{total}**",
            f"- error rate: **{(errors / total * 100) if total else 0.0:.1f}%**",
            f"- entry points: **{len(rows)}**",
            "",
            "## Latency by entry point",
            "",
            "| entry point | runs | errors | p50 | p95 |",
            "|---|---:|---:|---:|---:|",
        ]
        for row in rows:
            lines.append(
                f"| {row['key']} | {row['count']} | {row['errors']} "
                f"| {_fmt_s(row['duration_s']['p50'])} "
                f"| {_fmt_s(row['duration_s']['p95'])} |"
            )
        results = (slo_report or {}).get("results") or []
        if results:
            lines += [
                "",
                "## Service-level objectives",
                "",
                "| objective | endpoint | requests | error rate "
                "| burn rate | p95 | status |",
                "|---|---|---:|---:|---:|---:|---|",
            ]
            for res in results:
                burn = res.get("burn_rate")
                lines.append(
                    f"| {res.get('name', '?')} | {res.get('endpoint', '*')} "
                    f"| {int(res.get('requests', 0))} "
                    f"| {float(res.get('error_rate', 0.0)) * 100:.2f}% "
                    f"| {'-' if burn is None else f'{float(burn):.2f}x'} "
                    f"| {_fmt_s(float(res.get('latency_p95_s', 0.0)))} "
                    f"| {'BREACH' if res.get('breached') else 'ok'} |"
                )
        deltas = rev_deltas(records)
        if deltas:
            lines += [
                "",
                "## Cross-revision duration deltas",
                "",
                "| entry point | revisions | mean before | mean after | delta |",
                "|---|---|---:|---:|---:|",
            ]
            for d in deltas:
                lines.append(
                    f"| {d['entry_point']} | {d['rev_a']} -> {d['rev_b']} "
                    f"| {_fmt_s(d['mean_a_s'])} | {_fmt_s(d['mean_b_s'])} "
                    f"| {d['delta_s']:+.3f} s |"
                )
        if watchdog_doc and watchdog_doc.get("history"):
            lines += ["", "## Benchmark watchdog",
                      "",
                      f"- history entries: "
                      f"{len(watchdog_doc.get('history', []))}"]
    return "\n".join(lines) + "\n"


def write_report(
    ledger_dir: os.PathLike,
    output_html: os.PathLike,
    output_md: Optional[os.PathLike] = None,
    bench_file: Optional[os.PathLike] = None,
    title: str = "repro-defender run report",
    slo_report: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Read a ledger directory and write the HTML (+ markdown) report.

    ``bench_file`` points at a ``BENCH_KERNELS.json`` trajectory; when it
    exists its watchdog history is folded in.  ``slo_report`` is an
    evaluated ``repro.obs/slo-report/v1`` document rendered as the SLO
    panel.  Returns a small summary dict (record/entry-point counts and
    the paths written).
    """
    with _metrics.timer("report.write.seconds"):
        records = read_runs(directory=ledger_dir)
        watchdog_doc = None
        if bench_file is not None and Path(bench_file).exists():
            from repro.obs.watchdog import load_history_document

            try:
                watchdog_doc = load_history_document(bench_file)
            except (ValueError, json.JSONDecodeError) as exc:
                _log.warning("report.bench_file.unreadable",
                             path=str(bench_file),
                             error=type(exc).__name__)
        html_text = render_report_html(records, watchdog_doc, title=title,
                                       slo_report=slo_report)
        html_path = Path(output_html)
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(html_text, encoding="utf-8")
        written = [str(html_path)]
        if output_md is not None:
            md_path = Path(output_md)
            md_path.parent.mkdir(parents=True, exist_ok=True)
            md_path.write_text(
                render_report_markdown(records, watchdog_doc, title=title,
                                       slo_report=slo_report),
                encoding="utf-8",
            )
            written.append(str(md_path))
        _metrics.counter("report.written.count").inc()
    return {
        "records": len(records),
        "entry_points": len({r.get("entry_point") for r in records}),
        "written": written,
    }
