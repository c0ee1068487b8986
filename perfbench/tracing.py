"""Span recorder for the traced run, and the per-layer metrics built from it.

``install`` replaces the public functions of each fedweave module with
wrappers that record a span (name, start, end, parent) or bump a counter.
Each wrapper is set on the attribute where callers look the name up: the
module global a function calls (``fedweave.engine.step`` as called by
``run_to_convergence``), the names ``fedweave.cli`` and ``fedweave.plan``
import, and the class attribute for methods.  No file of the program is
changed, and a timed run never calls ``install``.

Spans stay in memory in the process that records them; ``Tracer.export``
hands them to the benchmark when an operation ends.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import statistics
import time
from collections import Counter

COMMANDS = ("deploy_bundle", "add_unit", "remove_unit", "set_config", "add_relation")


class Tracer:
    """Spans as ``[id, parent id, name, start, end, info]`` lists, plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span; ``info(args, result)``
        attaches a summary of the call to it."""
        spans, open_ids = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), open_ids[-1] if open_ids else -1, name, 0.0, 0.0, None]
            spans.append(record)
            open_ids.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                open_ids.pop()
            if info is not None:
                record[5] = info(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Wrap ``fn`` so each call adds 1, or ``amount(args, result)``, to a counter."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(args, result)
            return result

        return wrapper

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _patch(owner, attr: str, make) -> None:
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _step_info(args, report) -> list:
    model = args[0]
    return [report.event is not None, bool(model.shadow_check), report.handlers_run,
            report.redelivered, report.emitted, int(report.dropped)]


def install() -> Tracer:
    """Wrap every layer boundary of fedweave in this process."""
    from fedweave import builtin, bundle, charms, cli, engine, federation, plan, provider, quota

    tracer = Tracer()

    def span(owners, attr, name, info=None):
        for owner in owners:
            _patch(owner, attr, lambda fn: tracer.span(name, fn, info))

    def count(owners, attr, name, amount=None):
        for owner in owners:
            _patch(owner, attr, lambda fn: tracer.counter(name, fn, amount))

    # engine: step is looked up by run_to_convergence; commands by cli,
    # plan and deploy_bundle; checkpoint and load_checkpoint only through
    # the engine globals that _shadow_delta uses.
    span([engine], "step", "engine.step", _step_info)
    for name in COMMANDS:
        span([m for m in (engine, cli, plan) if hasattr(m, name)], name, "engine.command")
    span([engine, cli], "state_hash", "engine.state_hash")
    span([engine], "checkpoint", "engine.checkpoint")
    span([engine], "load_checkpoint", "engine.load_checkpoint")
    count([engine.Model], "unit_ids_of", "engine.unit_scans")
    count([engine.Model], "relations_of", "engine.relation_scans")
    # provider
    span([provider.Inventory], "select_machine", "provider.select")
    count([provider.Inventory], "acquire", "provider.acquire_calls")
    count([provider.Inventory], "create_container", "provider.container_calls")
    span([provider.Inventory], "load_yaml", "provider.load")
    span([provider.Inventory], "dump_yaml", "provider.dump")
    # federation and quota
    span([federation.Federation], "load_yaml", "federation.load")
    span([federation.Federation], "dump_yaml", "federation.dump")
    span([federation.Federation], "validate_region", "federation.validate")
    span([quota.ProjectTree], "load_yaml", "quota.load")
    span([quota.ProjectTree], "dump_yaml", "quota.dump")
    count([quota.ProjectTree], "charge", "quota.charge_calls")
    count([quota.ProjectTree], "release", "quota.release_calls")
    # charms, bundle, plan
    span([charms, cli, builtin], "load_charm", "charms.load")
    span([bundle, cli], "parse_bundle", "bundle.parse")
    span([bundle, cli], "validate_bundle", "bundle.validate")
    span([plan, cli], "compile_plan", "plan.compile")
    span([plan, cli], "parse_plan", "plan.parse")
    span([plan, cli], "execute_plan", "plan.execute", lambda args, _: len(args[0].steps))
    # cli: the workspace round trip, and the bytes it moves
    span([cli], "run_command", "cli.command")
    span([cli.Workspace], "load_model", "cli.load_model")
    span([cli.Workspace], "save_model", "cli.save_model")
    span([cli.Workspace], "store", "cli.store")
    count([pathlib.Path], "read_text", "cli.bytes_read",
          lambda _, text: len(text.encode("utf-8")))
    count([pathlib.Path], "write_text", "cli.bytes_written",
          lambda args, _: len(args[1].encode("utf-8")))
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "engine.step_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "engine.step_us_p50": ("us", "lower"),
    "engine.step_us_p99": ("us", "lower"),
    "engine.unit_scans": ("count", "lower"),
    "engine.relation_scans": ("count", "lower"),
    "engine.handlers_run": ("count", "lower"),
    "engine.redelivered": ("count", "lower"),
    "engine.emitted": ("count", "lower"),
    "engine.dropped": ("count", "lower"),
    "engine.useful_event_ratio": ("ratio", "higher"),
    "engine.command_s": ("s", "lower"),
    "engine.shadow_step_us_p50": ("us", "lower"),
    "engine.checkpoint_calls": ("count", "lower"),
    "engine.checkpoint_s": ("s", "lower"),
    "engine.load_checkpoint_s": ("s", "lower"),
    "engine.state_hash_s": ("s", "lower"),
    "engine.state_hash_calls": ("count", "lower"),
    "provider.select_calls": ("count", "lower"),
    "provider.select_s": ("s", "lower"),
    "provider.acquire_calls": ("count", "lower"),
    "provider.container_calls": ("count", "lower"),
    "provider.load_s": ("s", "lower"),
    "provider.dump_s": ("s", "lower"),
    "cli.load_model_s": ("s", "lower"),
    "cli.save_model_s": ("s", "lower"),
    "cli.store_s": ("s", "lower"),
    "cli.commands": ("count", "higher"),
    "cli.bytes_read": ("bytes", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "federation.load_s": ("s", "lower"),
    "federation.dump_s": ("s", "lower"),
    "federation.validate_s": ("s", "lower"),
    "quota.load_s": ("s", "lower"),
    "quota.dump_s": ("s", "lower"),
    "quota.charge_calls": ("count", "lower"),
    "quota.release_calls": ("count", "lower"),
    "charms.load_s": ("s", "lower"),
    "bundle.parse_s": ("s", "lower"),
    "bundle.validate_s": ("s", "lower"),
    "plan.compile_s": ("s", "lower"),
    "plan.parse_s": ("s", "lower"),
    "plan.execute_self_s": ("s", "lower"),
    "plan.steps": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# span name -> metric holding its total time
_TOTALS = {
    "engine.step": "engine.step_s",
    "engine.checkpoint": "engine.checkpoint_s",
    "engine.load_checkpoint": "engine.load_checkpoint_s",
    "engine.state_hash": "engine.state_hash_s",
    "provider.select": "provider.select_s",
    "provider.load": "provider.load_s",
    "provider.dump": "provider.dump_s",
    "cli.load_model": "cli.load_model_s",
    "cli.save_model": "cli.save_model_s",
    "cli.store": "cli.store_s",
    "federation.load": "federation.load_s",
    "federation.dump": "federation.dump_s",
    "federation.validate": "federation.validate_s",
    "quota.load": "quota.load_s",
    "quota.dump": "quota.dump_s",
    "charms.load": "charms.load_s",
    "bundle.parse": "bundle.parse_s",
    "bundle.validate": "bundle.validate_s",
    "plan.compile": "plan.compile_s",
    "plan.parse": "plan.parse_s",
}
# span name -> metric holding its call count
_CALLS = {
    "engine.checkpoint": "engine.checkpoint_calls",
    "engine.state_hash": "engine.state_hash_calls",
    "provider.select": "provider.select_calls",
    "cli.command": "cli.commands",
}


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile; the one value when there is only one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(exports: list[dict], overhead_pct: float) -> dict[str, float]:
    """Aggregate the spans and counters of every traced operation."""
    metrics = {name: 0.0 for name in LAYER_METRICS}
    steps: list[float] = []
    shadow_steps: list[float] = []
    useful = 0
    for export in exports:
        spans = export["spans"]
        for name, value in export["counts"].items():
            metrics[name] += value
        child_time = [0.0] * len(spans)
        under_command = [False] * len(spans)
        for span_id, parent, name, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                under_command[span_id] = (
                    under_command[parent] or spans[parent][2] == "engine.command"
                )
        for span_id, _, name, start, end, info in spans:
            duration = end - start
            if name in _TOTALS:
                metrics[_TOTALS[name]] += duration
            if name in _CALLS:
                metrics[_CALLS[name]] += 1
            if name == "engine.command" and not under_command[span_id]:
                metrics["engine.command_s"] += duration
            elif name == "plan.execute":
                metrics["plan.execute_self_s"] += duration - child_time[span_id]
                metrics["plan.steps"] += info or 0
            elif name == "engine.step" and info is not None:
                has_event, shadow, handlers, redelivered, emitted, dropped = info
                metrics["engine.handlers_run"] += handlers
                metrics["engine.redelivered"] += redelivered
                metrics["engine.emitted"] += emitted
                metrics["engine.dropped"] += dropped
                if has_event:
                    metrics["engine.events"] += 1
                    useful += handlers > 0
                    (shadow_steps if shadow else steps).append(duration * 1e6)
    if steps:
        metrics["engine.step_us_p50"] = statistics.median(steps)
        metrics["engine.step_us_p99"] = percentile(steps, 99)
    if shadow_steps:
        metrics["engine.shadow_step_us_p50"] = statistics.median(shadow_steps)
    if metrics["engine.events"]:
        metrics["engine.useful_event_ratio"] = useful / metrics["engine.events"]
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics
