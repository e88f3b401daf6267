"""Steadiness check: run the benchmark over several seeds and report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workload serve_stream --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10          # every workload

It runs ``run.py --trace 0`` once per seed and workload, one run at a
time with seeds outermost, then each workload once more on the first
seed.  Per end-to-end metric it prints
the median and the quartile spread ``(Q3 - Q1) / median`` over the seeds
(``statistics.quantiles(values, n=4)``) next to the metric's bound, and a
third of it, the target.  It fails (exit 1) when a run fails, when the
repeated seed's deterministic-statistics digest differs from the first
run's, or when any spread exceeds its bound, ``setup_s``'s included.
A summary is written to ``perfbench/results/steadiness-<workload>.json``.
``--baseline DIR`` compares every median with the summary of an earlier
set kept in ``DIR``, and fails when one got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    result["digest"] = next(
        line.split()[1] for line in lines if line.startswith("digest ")
    )
    return result


def run_all(names: List[str], seeds: List[int], seconds: int) -> Dict[str, List[Dict]]:
    """Every seed of every workload, seeds outermost, so that a slow spell
    of the host spreads over all workloads instead of hitting the seeds
    of one."""
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    for seed in seeds + seeds[:1]:
        for name in names:
            result = run_once(name, seed, seconds)
            runs[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: {values}", flush=True)
    return runs


def check_workload(workload: str, runs: List[Dict], seeds: List[int], spec: Dict,
                   seconds: int, baseline: Optional[Path]) -> bool:
    """Spreads over the seeds' runs; the last run repeats the first seed.

    With ``baseline`` (the results directory of an earlier set), each
    median is also compared with that set's: ``worse`` is the share by
    which it got worse in the metric's own direction, and it fails the
    check when it exceeds the bound.
    """
    runs, repeat = runs[:-1], runs[-1]
    same = repeat["digest"] == runs[0]["digest"]
    print(f"== {workload}: digest of seed {seeds[0]} repeated "
          f"{'identical' if same else 'DIFFERENT'} ({runs[0]['digest'][:16]})")
    ok = same and all(r["correct"] and r["failed"] == 0 for r in runs + [repeat])
    summary = {}
    before = {}
    if baseline is not None:
        before = json.loads((baseline / f"steadiness-{workload}.json").read_text())["metrics"]
    print(f"{'metric':<24}{'median':>14}{'spread':>10}{'bound':>8}{'target':>8}"
          f"{'worse':>10}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
        worse = ""
        if name in before:
            old = before[name]["median"]
            change = (median - old) / old
            change = -change if metric["better"] == "higher" else change
            worse = f"{change:+.4f}"
            if change > bound:
                flag += " MOVED"
        if "OVER" in flag or "MOVED" in flag:
            ok = False
        summary[name] = {"values": values, "median": median, "spread": spread,
                         "bound": bound}
        print(f"{name:<24}{median:>14.6g}{spread:>10.4f}{bound:>8}{bound / 3:>8.4f}"
              f"{worse:>10}  {flag}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"steadiness-{workload}.json").write_text(
        json.dumps({"seeds": seeds, "seconds": seconds, "metrics": summary,
                    "digest_repeat_identical": same}, indent=1)
    )
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path,
                        help="results directory of an earlier set to compare medians with")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs = run_all(names, seeds, args.seconds)
    results = [check_workload(name, runs[name], seeds, spec, args.seconds, args.baseline)
               for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
