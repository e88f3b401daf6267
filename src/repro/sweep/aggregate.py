"""Aggregation of sweep records into ``BENCH_*.json``-style summaries.

One sweep's JSONL records collapse into a per-grid-point summary dict
(count, failures, min/mean/max of every numeric metric, distinct
fingerprints across replicates), and that summary is appended as one
per-commit entry to a schema-2 trajectory document —
``{"bench": ..., "schema": 2, "runs": [{"commit", "date", "workloads"}]}``.
:func:`append_entry` is the one writer of that layout: the sweep summaries
and :mod:`repro.bench`'s ``BENCH_micro.json`` / ``BENCH_e1.json`` both go
through it, so every trajectory accumulates across commits the same way.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from typing import Any, Dict, List, Optional

from .spec import SweepSpec

#: Version tag of the trajectory-document layout.
SUMMARY_SCHEMA = 2


def git_commit() -> str:
    """Short hash of the checked-out commit (``"unknown"`` outside git).

    Suffixed ``-dirty`` when tracked files differ from that commit, so
    numbers measured on uncommitted changes never pass for the commit's.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{head}-dirty" if dirty else head


def point_key(params: Dict[str, Any]) -> str:
    """Canonical label of one grid point: ``k=v`` pairs in sorted order."""
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Collapse records into one summary block per grid point.

    Audit duplicates are excluded (they exist to check determinism, not to
    bias the statistics); failures are counted, never averaged in.
    """
    by_point: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("audit"):
            continue
        by_point.setdefault(point_key(record.get("params", {})), []).append(record)

    summary: Dict[str, Any] = {}
    for key in sorted(by_point):
        group = by_point[key]
        ok = [r for r in group if r.get("status") == "ok"]
        metrics: Dict[str, Dict[str, float]] = {}
        names = sorted({m for r in ok for m in r.get("metrics", {})})
        for name in names:
            values = [
                float(r["metrics"][name])
                for r in ok
                if isinstance(r["metrics"].get(name), (int, float))
            ]
            if values:
                metrics[name] = {
                    "mean": sum(values) / len(values),
                    "min": min(values),
                    "max": max(values),
                }
        summary[key] = {
            "runs": len(ok),
            "failed": len(group) - len(ok),
            "distinct_fingerprints": len({r["fingerprint"] for r in ok}),
            "metrics": metrics,
        }
    return summary


def make_entry(records: List[Dict[str, Any]], spec: SweepSpec) -> Dict[str, Any]:
    """One trajectory entry: today's commit + the per-point summary."""
    return {
        "commit": git_commit(),
        "date": datetime.date.today().isoformat(),
        "spec_hash": spec.spec_hash(),
        "spec": spec.to_dict(),
        "workloads": summarize(records),
    }


def append_entry(path: str, bench: str, entry: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``entry`` to the ``bench`` trajectory document at ``path``.

    A missing file starts a fresh document; an existing entry for the
    same commit is replaced (re-runs supersede).  A document that is not
    valid JSON, belongs to another bench or is not a schema-2 trajectory
    raises ``ValueError`` and is left untouched: a trajectory is history
    that no writer may silently discard.  Returns the written document.
    """
    runs: List[Dict[str, Any]] = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON, refusing to overwrite: {exc}") from exc
        found = doc.get("bench") if isinstance(doc, dict) else None
        if found != bench:
            raise ValueError(
                f"{path}: holds bench {found!r}, not {bench!r}; refusing to overwrite"
            )
        if doc.get("schema") != SUMMARY_SCHEMA or not isinstance(doc.get("runs"), list):
            raise ValueError(
                f"{path}: not a schema-{SUMMARY_SCHEMA} trajectory; refusing to overwrite"
            )
        runs = [r for r in doc["runs"] if r.get("commit") != entry.get("commit")]
    runs.append(entry)
    doc = {"bench": bench, "schema": SUMMARY_SCHEMA, "runs": runs}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def write_summary(
    path: str, records: List[Dict[str, Any]], spec: SweepSpec,
    bench_name: Optional[str] = None,
) -> Dict[str, Any]:
    """Append this sweep's entry to the trajectory document at ``path``.

    The bench name defaults to ``sweep:<spec name>``; see
    :func:`append_entry` for the replace and refuse rules.  Returns the
    written document.
    """
    return append_entry(
        path, bench_name or f"sweep:{spec.name}", make_entry(records, spec)
    )
