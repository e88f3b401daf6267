"""Phase-level span recording by wrapping the program's public functions.

The tracer never edits the program: :meth:`Tracer.install` replaces a
fixed list of public functions and methods (module or class attributes)
with thin wrappers that record one span per call, and
:meth:`Tracer.uninstall` puts the originals back.  Only phase-level
entry points are wrapped; the two wire-codec functions are per-hop, so
they add time and call counts to the innermost open span instead of
opening spans of their own.

A span is ``(id, pass, name, parent id, start ns, end ns, attrs)``.
Spans stay in memory until :meth:`Tracer.write_jsonl` at exit.  Self time
is a span's duration minus the durations of its direct children.

Limit: partition worker processes are forked from the traced parent, so
they inherit the wrappers, but the spans they record die with them.
Work inside a worker would be seen only through the parent-side call
(``partition.run`` and the ``runtime.run_application`` span around it).
The workloads run partition shards in-process, so none is hidden.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.deployment
import repro.partition
import repro.partition.runner
import repro.runtime
import repro.runtime.stack
import repro.runtime.wire
from repro.core import VirtualArchitecture
from repro.deployment.topology import RealNetwork
from repro.runtime import DeployedStack
from repro.serve import AdmissionController, QueryEngine
from repro.simulator.engine import Simulator

#: (owner, attribute, span name) of every wrapped phase-level entry point.
#: Module attributes are patched where their caller looks them up:
#: ``deploy`` resolves ``emulate_topology`` / ``bind_processes`` in
#: ``repro.runtime.stack``, the partitioned runner resolves
#: ``plan_stripes`` in ``repro.partition.runner``.
SPAN_TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (repro.deployment, "build_network", "deployment.build"),
    (RealNetwork, "validate_protocol_preconditions", "deployment.precheck"),
    (repro.runtime, "deploy", "runtime.deploy"),
    (repro.runtime.stack, "emulate_topology", "runtime.emulate"),
    (repro.runtime.stack, "bind_processes", "runtime.bind"),
    (VirtualArchitecture, "synthesize", "core.synthesize"),
    (DeployedStack, "run_application", "runtime.run_application"),
    (repro.partition, "run_partitioned_application", "partition.run"),
    (repro.partition.runner, "plan_stripes", "partition.plan"),
    (Simulator, "run", "simulator.run"),
    (QueryEngine, "__init__", "serve.engine_init"),
    (QueryEngine, "serve", "serve.serve"),
    (QueryEngine, "run_batch", "serve.run_batch"),
    (AdmissionController, "admit_round", "serve.admit"),
    (QueryEngine, "update_field", "serve.update_field"),
    (QueryEngine, "fingerprint", "serve.fingerprint"),
)

#: Per-hop codec functions: counted into the enclosing span, not spanned.
COUNTER_TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (repro.runtime.wire, "encode_envelope", "wire.encode"),
    (repro.runtime.wire, "decode_envelope", "wire.decode"),
)

#: Every span name the tracer can emit: the wrapped functions plus the
#: benchmark's own root spans around each phase of a pass.
ROOT_SPANS = ("bench.setup", "bench.run", "bench.check", "bench.serial_probe")
SPAN_NAMES = ROOT_SPANS + tuple(name for _, _, name in SPAN_TARGETS)


class _Span:
    __slots__ = ("sid", "pass_index", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid: int, pass_index: int, name: str, parent: Optional[int]):
        self.sid = sid
        self.pass_index = pass_index
        self.name = name
        self.parent = parent
        self.start = time.perf_counter_ns()
        self.end = 0
        self.attrs: Dict[str, float] = {}

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) / 1e9


class NullTracer:
    """The untraced pass: every hook is a no-op."""

    active = False

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


class Tracer(NullTracer):
    """Records spans of the wrapped entry points while installed."""

    active = True

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self._open: List[_Span] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self.pass_index = 0

    # -- recording -------------------------------------------------------------

    def _enter(self, name: str) -> _Span:
        parent = self._open[-1].sid if self._open else None
        span = _Span(len(self.spans), self.pass_index, name, parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _exit(self, span: _Span) -> None:
        span.end = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        opened = self._enter(name)
        try:
            yield
        finally:
            self._exit(opened)

    def _spanned(self, name: str, fn: Callable) -> Callable:
        is_sim_run = name == "simulator.run"

        def wrapper(*args, **kwargs):
            opened = self._enter(name)
            events0 = args[0].events_processed if is_sim_run else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if is_sim_run:
                    opened.attrs["events"] = args[0].events_processed - events0
                self._exit(opened)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        seconds_key, calls_key = name + "_s", name + "_calls"

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._open:
                    attrs = self._open[-1].attrs
                    attrs[seconds_key] = (
                        attrs.get(seconds_key, 0.0) + (time.perf_counter_ns() - t0) / 1e9
                    )
                    attrs[calls_key] = attrs.get(calls_key, 0) + 1

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, pass_index: int) -> None:
        """Wrap every target; spans recorded now carry ``pass_index``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.pass_index = pass_index
        for owner, attr, name in SPAN_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._spanned(name, original))
        for owner, attr, name in COUNTER_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counted(name, original))

    def uninstall(self) -> None:
        """Restore every original attribute."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def passes(self) -> List[int]:
        return sorted({s.pass_index for s in self.spans})

    def self_seconds(self) -> Dict[int, float]:
        """``span id -> self time``: duration minus direct children."""
        child_total: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] = child_total.get(span.parent, 0.0) + span.duration_s
        return {s.sid: s.duration_s - child_total.get(s.sid, 0.0) for s in self.spans}

    def root_of(self, span: _Span) -> _Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def ancestors(self, span: _Span) -> Iterator[_Span]:
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "pass": s.pass_index,
                            "name": s.name,
                            "parent": s.parent,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "attrs": s.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
