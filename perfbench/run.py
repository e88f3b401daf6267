"""End-to-end benchmark of the deployed WSN stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload deploy_e2e --seed 1 --seconds 30 --trace 0

Runs whole passes of one workload (see ``workloads.py``) until the next
pass would overrun ``--seconds``, checks every pass, and prints a table
followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the self
time of every span, and the tracing overhead.  Spans, per-pass samples
and provenance are written under ``perfbench/results/``.  The exit code
is 1 when any correctness check fails and 2, with no result printed,
when the program cannot be imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


# -- metric assembly ----------------------------------------------------------------


def end_to_end(passes, peak_rss_mb: float) -> Dict[str, float]:
    """The BENCHMARK.json end-to-end metrics from untraced passes.

    Host times are best-of-passes.  The host's contention only ever adds
    time: it slows interpreted code by up to 1.7x, switching on and off
    within a second, in a share that drifts over minutes.  A median of a
    run follows that share; the fastest repeat of a short unit of work
    does not.  ``setup_s`` is the fastest pass's set-up, and ``run_s``
    sums, over the units of the run phase, each unit's fastest time.
    Virtual-time and energy metrics come from the first pass: every pass
    replays the same seed, and the digest check proves they are identical.
    """
    from workloads import quantile

    first = passes[0]
    setup_s = min(p.setup_s for p in passes)
    run_s = sum(min(units) for units in zip(*(p.run_units for p in passes)))
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "total_s": setup_s + run_s,
        "tx_per_s": first.transmissions / (setup_s + run_s),
        "queries_per_s": first.queries / run_s,
        "query_latency_p50_vt": quantile(first.query_latencies_vt, 0.50),
        "query_latency_p99_vt": quantile(first.query_latencies_vt, 0.99),  # unbounded
        "round_latency_vt": statistics.median(first.round_latencies_vt),
        "energy_per_query": first.query_energy / first.queries,
        "round_energy": statistics.median(first.round_energies),
        "peak_rss_mb": peak_rss_mb,
    }


#: Layer span -> the short name of the layer it reports into, for the
#: per-parent split of simulator time.
SIM_PARENTS = (
    ("runtime.emulate", "emulate"),
    ("runtime.bind", "bind"),
    ("runtime.run_application", "app"),
    ("serve.engine_init", "serve"),
    ("serve.run_batch", "serve"),
)


def per_layer(tracer, traced, untraced) -> Dict[str, float]:
    """Per-layer metrics, self times included, from the traced passes.

    Layer times are summed over one pass's spans (per repeat of the run
    phase), then the median over traced passes is taken.  Only spans
    under the ``bench.setup`` and ``bench.run`` roots count toward layer
    times, so checks and the serial probe do not leak into them.  Self
    times cover every span of the pass, so they add up to the pass.
    """
    from tracing import SPAN_NAMES
    from workloads import quantile

    self_s = tracer.self_seconds()
    pass_ids = tracer.passes()
    repeats = [p.run_repeats for p in traced]
    per_pass: Dict[int, Dict[str, float]] = {i: {} for i in pass_ids}
    self_by_pass: Dict[int, Dict[str, float]] = {i: {} for i in pass_ids}
    wire: Dict[str, float] = {}
    batch_s: List[float] = []

    def add(table: Dict[str, float], key: str, value: float) -> None:
        table[key] = table.get(key, 0.0) + value

    for span in tracer.spans:
        root = tracer.root_of(span).name
        # a run phase repeated k times reports per repeat
        scale = 1.0 / repeats[span.pass_index] if root == "bench.run" else 1.0
        add(self_by_pass[span.pass_index], span.name, self_s[span.sid] * scale)
        if span.name == "serve.fingerprint":
            add(per_pass[span.pass_index], span.name, span.duration_s)
        if root not in ("bench.setup", "bench.run"):
            continue
        for key, value in span.attrs.items():
            if key.startswith("wire."):
                add(wire, key, value)
        table = per_pass[span.pass_index]
        add(table, span.name, span.duration_s * scale)
        if span.name == "serve.run_batch":
            batch_s.append(span.duration_s)
        if span.name == "simulator.run":
            add(table, "sim.events", span.attrs.get("events", 0) * scale)
            layer = next(
                (short for a in tracer.ancestors(span)
                 for name, short in SIM_PARENTS if a.name == name),
                "other",
            )
            add(table, "sim.run_s." + layer, span.duration_s * scale)

    def med(key: str) -> float:
        return statistics.median(per_pass[i].get(key, 0.0) for i in pass_ids)

    n_traced = len(pass_ids)
    stats = traced[0].stats
    app_s = med("runtime.run_application")
    probe = [p.probe for p in traced if p.probe]
    serial_ratio = (
        statistics.median(p["partitioned_round_s"] / p["serial_round_s"] for p in probe)
        if probe else 0.0
    )
    get = stats.get
    metrics = {
        "deployment.build_s": med("deployment.build"),
        "deployment.precheck_s": med("deployment.precheck"),
        "deployment.nodes": get("deployment.nodes", 0),
        "deployment.avg_degree": get("deployment.avg_degree", 0.0),
        "emulate.s": med("runtime.emulate"),
        "emulate.tx": get("emulate.tx", 0),
        "emulate.energy": get("emulate.energy", 0.0),
        "emulate.setup_vt": get("emulate.setup_vt", 0.0),
        "bind.s": med("runtime.bind"),
        "bind.tx": get("bind.tx", 0),
        "bind.energy": get("bind.energy", 0.0),
        "bind.setup_vt": get("bind.setup_vt", 0.0),
        "synth.s": med("core.synthesize"),
        "model.latency_steps": get("model.latency_steps", 0.0),
        "model.energy": get("model.energy", 0.0),
        "app.latency_vt": get("app.latency_vt", 0.0),
        "app.energy": get("app.energy", 0.0),
        "model.latency_ratio": get("model.latency_ratio", 0.0),
        "model.energy_ratio": get("model.energy_ratio", 0.0),
        "app.s": app_s,
        "app.tx": get("app.tx", 0),
        "app.events": get("app.events", 0),
        "app.delivered": get("app.delivered", 0),
        "app.drops": get("app.drops", 0),
        "app.useful_ratio": get("app.delivered", 0) / max(get("app.tx", 0), 1),
        "app.events_per_s": get("app.events", 0) / app_s if app_s else 0.0,
        "app.rejected_frames": get("app.rejected_frames", 0),
        "sim.run_s": sum(med("sim.run_s." + short) for short in
                         ("emulate", "bind", "app", "serve", "other")),
        "sim.events": med("sim.events"),
        "sim.run_s.emulate": med("sim.run_s.emulate"),
        "sim.run_s.bind": med("sim.run_s.bind"),
        "sim.run_s.app": med("sim.run_s.app"),
        "sim.run_s.serve": med("sim.run_s.serve"),
        "partition.s": med("partition.run"),
        "partition.plan_s": med("partition.plan"),
        "partition.serial_ratio": serial_ratio,
        "wire.encode_s": wire.get("wire.encode_s", 0.0) / n_traced,
        "wire.decode_s": wire.get("wire.decode_s", 0.0) / n_traced,
        "wire.calls": (wire.get("wire.encode_calls", 0) + wire.get("wire.decode_calls", 0))
        / n_traced,
        "serve.round_s_p50": quantile(batch_s, 0.50) if batch_s else 0.0,
        "serve.round_s_p99": quantile(batch_s, 0.99) if batch_s else 0.0,
        "serve.admit_s": med("serve.admit"),
        "serve.update_s": med("serve.update_field"),
        "serve.fingerprint_s": med("serve.fingerprint"),
        "serve.latency_p99_vt": get("serve.latency_p99_vt", 0.0),
        "serve.cache_hit_rate": get("serve.cache_hit_rate", 0.0),
        "serve.tx_per_query": get("serve.tx_per_query", 0.0),
        "trace.overhead_s": statistics.median(p.setup_s + p.run_s for p in traced)
        - statistics.median(p.setup_s + p.run_s for p in untraced),
        "trace.spans": len(tracer.spans) / n_traced,
    }
    for name in SPAN_NAMES:
        metrics["self." + name + "_s"] = statistics.median(
            self_by_pass[i].get(name, 0.0) for i in pass_ids
        )
    return metrics


# -- provenance and digests ---------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, sizes: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "sizes": sizes,
    }


def digest(stats: Dict[str, Any]) -> str:
    """SHA-256 of the deterministic statistics of one pass."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- pass loop and command line ----------------------------------------------------


def run_passes(workload, seed: int, seconds: float, trace: bool):
    """Run passes until the next one would overrun ``seconds``.

    Untraced: every pass is untraced.  Traced: passes alternate untraced,
    traced, untraced, ... and at least one of each runs.
    """
    from tracing import NullTracer, Tracer

    tracer = Tracer() if trace else None
    null = NullTracer()
    untraced, traced, walls = [], [], []
    start = time.perf_counter()
    while True:
        use_tracer = trace and len(untraced) > len(traced)
        gc.collect()
        t0 = time.perf_counter()
        if use_tracer:
            tracer.install(len(traced))
            try:
                traced.append(workload(seed, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(workload(seed, null))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if trace and not traced:
            continue
        if elapsed + statistics.median(walls) > seconds:
            break
    return untraced, traced, tracer


def print_table(title: str, rows: List[Tuple[str, float, str]]) -> None:
    print(f"== {title}")
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>16.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = {k: v for k, v in vars(workloads).items()
             if k.isupper() and k != "WORKLOADS"}
    prov = provenance(args, sizes)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.workload == "serve_stream":
        print("open loop in virtual time: arrivals are scheduled on the simulator "
              "clock, so the generator never lags the host")

    untraced, traced, tracer = run_passes(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    passes = untraced + traced
    digests = [digest(p.stats) for p in passes]
    attempted = sum(p.checks for p in passes) + len(passes) - 1
    failures = [f for p in passes for f in p.failures]
    failures += [f"pass {i}: digest {d[:12]} != {digests[0][:12]}"
                 for i, d in enumerate(digests) if d != digests[0]]
    e2e = end_to_end(untraced, peak_rss_mb())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"setup_s samples {[round(p.setup_s, 4) for p in untraced]}")
    print(f"digest {digests[0]} (identical across {len(passes)} passes: "
          f"{len(set(digests)) == 1})")
    print_table("end-to-end (untraced passes)",
                [(m["name"], e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]])
    print("== end-to-end, printed but not bounded (see README.md)")
    print(f"  {'query_latency_p99_vt':<28} {e2e['query_latency_p99_vt']:>16.6g} vt "
          f"({len(untraced[0].query_latencies_vt)} samples)")
    print(f"  {'fail_frac':<28} {len(failures) / attempted:>16.6g} ratio "
          f"({len(failures)} of {attempted} checks)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    record = {"provenance": prov, "digest": digests[0], "end_to_end": e2e,
              "failures": failures,
              "samples": [{"setup_s": p.setup_s, "run_s": p.run_s, "traced": traced_flag}
                          for group, traced_flag in ((untraced, False), (traced, True))
                          for p in group]}
    metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        print_table("per-layer (traced passes; self.* = span minus its children)",
                    [(m["name"], metrics[m["name"]], m["unit"]) for m in spec["per_layer"]])
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s "
              f"(traced total_s - untraced total_s)")
        tracer.write_jsonl(str(RESULTS / f"{tag}-spans.jsonl"))
        record["per_layer"] = metrics
        metrics = {m["name"]: metrics[m["name"]] for m in spec["per_layer"]}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
