"""Span tracing of one ``risknet`` command, from outside the program.

Run as a script, this module is a drop-in for the ``risknet`` console
script that also records spans:

    python3 perfbench/tracer.py SPANS.json analyze --input ... --out ...

It imports ``risknet.cli``, replaces the public functions listed in
``TARGETS`` with timing wrappers wherever a ``risknet`` module holds a
reference to them, runs ``risknet.cli.main`` and writes the spans and clock
marks to ``SPANS.json``. A span is ``[name, start, end, parent, counts]``
with ``perf_counter`` times (CLOCK_MONOTONIC on Linux, so they compare with
the parent process's clock) and ``counts`` taken from the call's arguments
and return value. A call nested directly in a span of the same name (a
reader calling itself with an open handle) is not recorded twice.

``op_layers`` turns one command's spans into per-layer numbers: inclusive
time per span name, counts, and self time per layer (span duration minus
the time its child spans cover). The layer is the part of the name before
the first dot, which is the ``risknet`` module the function belongs to.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("panel", "windows", "network", "spectral", "pipeline", "charts", "cli")

DIAGNOSTIC_KINDS = (
    "short_overlap", "degenerate_pair", "inestimable_pair", "degenerate_firm", "inestimable_firm",
)


def _file_bytes(target) -> int:
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    return 0


def _tree_bytes(out_dir, sub: str) -> int:
    return sum(p.stat().st_size for p in Path(out_dir, sub).glob("window_*.json"))


def _directed_counts(result, window, *args) -> dict:
    n = len(result.firms)
    kinds = Counter(d.kind for d in result.diagnostics)
    weighted = int((result.matrix > 0.0).sum())
    counts = {
        "network.pairs_attempted": n * (n - 1),
        "network.pairs_weighted": weighted,
        # every cause of a zero weight, diagnosed or not (kinds below)
        "network.pairs_zeroed": n * (n - 1) - weighted,
        "network.general_windows": int(not window.mask.all()),
    }
    for kind in DIAGNOSTIC_KINDS:
        counts[f"network.diagnostics.{kind}"] = kinds[kind]
    return counts


# (defining module, function, span name, counts from (result, *args))
TARGETS = (
    ("risknet.cli", "main", "cli.main", None),
    ("risknet.panel", "load_returns", "panel.load",
     lambda res, source, *a: {"panel.bytes_read": _file_bytes(source)}),
    ("risknet.windows", "window_panel", "windows.window",
     lambda res, *a: {"windows.count": len(res),
                      "windows.degenerate": sum(w.degenerate for w in res)}),
    ("risknet.network", "build_directed", "network.build_directed", _directed_counts),
    ("risknet.network", "symmetrize", "network.symmetrize", None),
    ("risknet.network", "write_network", "network.write",
     lambda res, net, target, *a: {"network.bytes_written": _file_bytes(target)}),
    ("risknet.spectral", "spectrum", "spectral.spectrum",
     lambda res, *a: {"spectral.spectrum_calls": 1,
                      "spectral.order_cubed_sum": res.n ** 3}),
    ("risknet.spectral", "werc_all", "spectral.werc_all", None),
    ("risknet.spectral", "connected_components", "spectral.components", None),
    ("risknet.spectral", "largest_component", "spectral.components", None),
    ("risknet.spectral", "barrat_clustering", "spectral.clustering", None),
    ("risknet.pipeline", "run_study", "pipeline.run_study",
     lambda res, *a: {"pipeline.windows_analyzed": len(res.reports),
                      "pipeline.windows_skipped": len(res.skipped)}),
    ("risknet.pipeline", "window_report", "pipeline.window_report",
     lambda res, *a: {"spectral.restricted_windows": int(res.component_note is not None)}),
    ("risknet.pipeline", "write_study", "pipeline.write_study", None),
    ("risknet.pipeline", "write_report", "pipeline.write_report",
     lambda res, report, target, *a: {"pipeline.bytes_written": _file_bytes(target)}),
    ("risknet.pipeline", "read_reports", "pipeline.read_reports",
     lambda res, out_dir, *a: {"pipeline.windows_read": len(res),
                               "pipeline.bytes_read": _tree_bytes(out_dir, "reports")}),
    ("risknet.pipeline", "read_networks", "pipeline.read_networks",
     lambda res, out_dir, *a: {"pipeline.bytes_read": _tree_bytes(out_dir, "networks")}),
    ("risknet.pipeline", "rank_firms", "pipeline.rank", None),
    ("risknet.pipeline", "write_rankings", "pipeline.write_rankings", None),
    ("risknet.charts", "emit_charts", "charts.emit",
     lambda res, *a: {"charts.files": len(res)}),
)


class Recorder:
    """Collects spans in memory; ``install`` swaps in the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count):
        spans, open_spans = self.spans, self._open

        def wrapper(*args, **kwargs):
            if open_spans and spans[open_spans[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if count is not None:
                span[4] = count(result, *args)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "risknet"]
        for module_name, attr, name, count in TARGETS:
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, fn, count)
            replaced = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        replaced += 1
            if not replaced:
                raise RuntimeError(f"{module_name}.{attr} is not referenced anywhere")


def op_layers(doc: dict, t_spawn: float, t_end: float) -> tuple[Counter, Counter, Counter]:
    """Inclusive seconds per span name, counts, and self seconds per layer
    for one traced command. ``cli`` also gets interpreter start-up plus
    ``import risknet.cli`` and process exit; the tracer's own bookkeeping
    (installing wrappers, writing spans) goes to ``trace``."""
    spans = doc["spans"]
    marks = doc["marks"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: Counter = Counter()
    counts: Counter = Counter()
    layer_self: Counter = Counter()
    for i, (name, start, end, _, span_counts) in enumerate(spans):
        inclusive[name] += end - start
        layer_self[name.split(".")[0]] += end - start - covered[i]
        counts.update(span_counts or {})
    counts["trace.spans"] = len(spans)
    startup = marks["imported"] - t_spawn
    inclusive["cli.startup"] += startup
    layer_self["cli"] += startup + (t_end - marks["written"])
    layer_self["trace"] += (marks["main"] - marks["imported"]) + (
        marks["written"] - marks["returned"]
    )
    return inclusive, counts, layer_self


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import risknet.cli

    marks = {"imported": time.perf_counter()}
    recorder = Recorder()
    recorder.install()
    marks["main"] = time.perf_counter()
    try:
        code = risknet.cli.main(cli_args)
    finally:
        marks["returned"] = time.perf_counter()
        # serialize first so the "written" mark can count it as tracer time
        body = json.dumps(recorder.spans)
        marks["written"] = time.perf_counter()
        with open(spans_path, "w", encoding="utf-8") as handle:
            handle.write(f'{{"marks": {json.dumps(marks)}, "spans": {body}}}')
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
