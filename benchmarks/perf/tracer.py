"""Outside-in span tracing of one ``repro.experiments`` CLI invocation.

Run as a script, this module is the traced rep's bootstrap::

    PYTHONPATH=src python benchmarks/perf/tracer.py SPANS_DIR -- tournament --seeds 2 ...

It times ``import repro.experiments.commands``, rebinds the public call
targets of every layer (:data:`TARGETS`) to span-recording wrappers, and
then calls ``repro.experiments.__main__.main(argv)``.  Nothing under
``src/`` knows it is being traced: each wrapper replaces the attribute the
caller looks up at call time (a class attribute, a module global or a
package re-export).

Spans stay in memory and are appended to ``SPANS_DIR/spans-<pid>.jsonl``
whenever a top-level span of the process closes.  Pool workers exit
through ``os._exit`` without running ``atexit``, so the per-job flush is
what gets their spans out.  The pool forks its workers inside
``ParallelRunner.run``; an at-fork hook clears the inherited span stack
and buffer, and roots the child's spans under that batch span.

A target missing from the code under test is reported on stderr and
listed in ``SPANS_DIR/missing-<pid>.json``; the metrics that depend on it
read ``null`` (see :mod:`layers`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Target:
    """One wrapped call target: span name plus where the caller finds it."""

    name: str
    module: str
    qualname: str
    #: ``(args, result) -> dict`` of extra span fields, called on success.
    observe: Callable[[tuple, object], dict] | None = None
    #: ``args -> request id`` for spans that start a request.
    request: Callable[[tuple], str] | None = None
    #: The span is its own request (a batch in the parent process).
    own_request: bool = False


def _store_hit(args: tuple, result: object) -> dict:
    return {"hit": result is not None}


def _kernel_outcome(args: tuple, result: object) -> dict:
    """A kernel returns per-core snapshots, or ``None`` when it declines."""
    if result is None:
        return {"declined": True, "accesses": 0}
    return {
        "declined": False,
        "accesses": sum(getattr(snap, "accesses", 0) for snap in result),
    }


def _job_key(args: tuple) -> str:
    return args[0].cache_key()


#: Span name -> the public entry point of one layer.
TARGETS: tuple[Target, ...] = (
    Target("tournament.run", "repro.experiments.tournament", "run_tournament"),
    Target("runner.batch", "repro.runner.parallel", "ParallelRunner.run", own_request=True),
    Target("store.get", "repro.runner.store", "ResultStore.get", observe=_store_hit),
    Target("store.put", "repro.runner.store", "ResultStore.put"),
    Target("trace.materialise", "repro.trace.shared", "SharedTraceStore.materialise"),
    Target("capture.materialise", "repro.runner.replaystore", "ReplayStore.materialise"),
    Target("capture.kernel", "repro.cpu.capture", "capture_workload"),
    Target("capture.save", "repro.runner.replaystore", "save_bundle"),
    Target("bundle.load", "repro.runner.replaystore", "load_bundle"),
    Target("sim.workload", "repro.runner.jobs", "WorkloadJob.execute", request=_job_key),
    Target("sim.alone", "repro.runner.jobs", "AloneJob.execute", request=_job_key),
    Target("replay", "repro.cpu.replay", "run_replay", observe=_kernel_outcome),
    Target("fused", "repro.cpu.fastpath", "run_fast", observe=_kernel_outcome),
    Target("report.gather", "repro.report.aggregate", "gather"),
    Target("report.aggregate", "repro.report.aggregate", "aggregate"),
    Target("report.render", "repro.report", "render_report"),
    Target("report.snapshot", "repro.report", "build_snapshot"),
    Target("targets.ingest", "repro.targets", "ingest_file"),
    Target("targets.source", "repro.targets.registry", "make_target_source"),
)


class Recorder:
    """In-memory span stack and buffer of one process (and its forks)."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self._seq = 0
        self._stack: list[dict] = []
        self._buffer: list[dict] = []
        #: Parent id and request id of spans opened on an empty stack.
        self._root: str | None = None
        self._root_request: str | None = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self._stack:
            top = self._stack[-1]
            self._root, self._root_request = top["id"], top["req"]
        self.pid = os.getpid()
        self._seq = 0
        self._stack = []
        self._buffer = []

    def open(self, name: str, request: str | None = None, own_request: bool = False) -> dict:
        self._seq += 1
        span_id = f"{self.pid}:{self._seq}"
        if own_request:
            request = span_id
        elif request is None:
            request = self._stack[-1]["req"] if self._stack else self._root_request
        span = {
            "name": name,
            "id": span_id,
            "parent": self._stack[-1]["id"] if self._stack else self._root,
            "pid": self.pid,
            "req": request,
            "start": time.perf_counter_ns(),
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        # Pop through to *span*: a span left open by a non-local exit
        # above it must not stay on the stack.
        while self._stack:
            if self._stack.pop() is span:
                break
        self._buffer.append(span)
        if not self._stack:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self._buffer:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        self._buffer = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            request = target.request(args) if target.request else None
            span = self.open(target.name, request, target.own_request)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if target.observe is not None:
                    span.update(target.observe(args, result))
                return result
            finally:
                self.close(span)

        # Pickle resolves functions by qualified name, which now finds the
        # wrapper itself; copying the identity keeps that lookup working.
        return functools.update_wrapper(wrapper, fn)


def _resolve(target: Target) -> tuple[object, str, Callable]:
    """``(owner, attribute, function)`` for *target*; raises if absent."""
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(recorder: Recorder, targets: tuple[Target, ...] = TARGETS) -> list[str]:
    """Rebind every resolvable target to a wrapper; return the missing names."""
    missing = []
    for target in targets:
        try:
            owner, attr, fn = _resolve(target)
        except (ImportError, AttributeError):
            missing.append(target.name)
            continue
        setattr(owner, attr, recorder.wrap(target, fn))
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_DIR -- <repro.experiments arguments>", file=sys.stderr)
        return 2
    recorder = Recorder(argv[0])
    top = recorder.open("cli.main")
    try:
        start = time.perf_counter_ns()
        import repro.experiments.commands  # noqa: F401  (registers every subcommand)

        span = recorder.open("cli.import")
        span["start"] = start
        recorder.close(span)
        missing = install(recorder)
        for name in missing:
            print(f"tracer: {name} not found; its metrics read null", file=sys.stderr)
        recorder.out_dir.mkdir(parents=True, exist_ok=True)
        (recorder.out_dir / f"missing-{recorder.pid}.json").write_text(json.dumps(missing))
        from repro.experiments.__main__ import main as cli_main

        return cli_main(argv[2:])
    finally:
        recorder.close(top)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
