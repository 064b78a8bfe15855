"""Benchmark of the risknet study pipeline.

    python3 perfbench/run.py --workload full-observed --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout with the ``risknet`` package under
``src/``; nothing is installed. Set-up builds the workload's inputs from
``--seed`` (``workloads.py``) and the benchmark's own reference results
(``reference.py``). Then, for ``--seconds``, it runs one operation at a
time, each a ``risknet`` command in a subprocess, checks its outputs and
times it. ``--trace 1`` alternates untraced operations with operations run
under ``tracer.py``. The metrics and the method are described in the README.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (machine facts, sample counts, percentiles, layer table).
``--workload all`` runs every workload; ``--smoke`` shrinks every input to
a few firms and months.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import LAYERS, op_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s",
    "windows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# spans recorded by tracer.py whose summed inclusive time is a metric "<span>_s"
TIMED_SPANS = (
    "panel.load",
    "windows.window",
    "network.build_directed",
    "network.symmetrize",
    "network.write",
    "spectral.werc_all",
    "spectral.spectrum",
    "spectral.components",
    "spectral.clustering",
    "pipeline.window_report",
    "pipeline.write_report",
    "pipeline.read_reports",
    "pipeline.read_networks",
    "pipeline.rank",
    "charts.emit",
    "cli.startup",
)
LAYER_COUNTS = {
    "panel.bytes_read": "bytes",
    "windows.count": "count",
    "windows.degenerate": "count",
    "network.pairs_attempted": "count",
    "network.pairs_weighted": "count",
    "network.pairs_zeroed": "count",
    "network.diagnostics.short_overlap": "count",
    "network.diagnostics.degenerate_pair": "count",
    "network.diagnostics.inestimable_pair": "count",
    "network.diagnostics.degenerate_firm": "count",
    "network.diagnostics.inestimable_firm": "count",
    "network.general_windows": "count",
    "network.bytes_written": "bytes",
    "spectral.spectrum_calls": "count",
    "spectral.order_cubed_sum": "count",
    "spectral.restricted_windows": "count",
    "pipeline.windows_analyzed": "count",
    "pipeline.windows_skipped": "count",
    "pipeline.windows_read": "count",
    "pipeline.bytes_written": "bytes",
    "pipeline.bytes_read": "bytes",
    "charts.files": "count",
    "trace.spans": "count",
}


PER_LAYER = {
    **{f"{span}_s": "s" for span in TIMED_SPANS},
    **LAYER_COUNTS,
    "network.pair_yield": "ratio",
    **{f"share.{layer}": "%" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _openblas(name: str, argtypes: list, restype):
    """The C function ``openblas_<name>`` of the OpenBLAS that numpy loaded
    (under whichever symbol prefix and suffix the build uses), or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (f"openblas_{name}", f"openblas_{name}64_",
                       f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
    return None


def machine_facts(blas_threads: int | None) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "platform": platform.platform(),
    }


_UNTRACED = "import sys; from risknet.cli import main; sys.exit(main())"


def run_command(cli_args: list[str], log: Path, spans: Path | None) -> dict:
    """One ``risknet`` command in a subprocess: wall, CPU and peak RSS,
    and with ``spans`` the traced per-layer numbers."""
    if spans is None:
        argv = [sys.executable, "-c", _UNTRACED, *cli_args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "ok": proc.returncode == 0,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if not sample["ok"]:
        sample["error"] = log.read_text(errors="replace")[-500:]
    elif spans is not None:
        with open(spans, encoding="utf-8") as handle:
            sample["layers"] = op_layers(json.load(handle), start, end)
    return sample


def run_op(prepared, work: Path, index: int, traced: bool) -> dict:
    """Run every command of one operation, then check its outputs."""
    op_dir = work / f"op{index}"
    op = {"ok": True, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "traced": traced}
    inclusive, counts, layer_self = Counter(), Counter(), Counter()
    for k, cli_args in enumerate(prepared.commands(op_dir)):
        spans = work / f"spans{index}_{k}.json" if traced else None
        sample = run_command(cli_args, work / "command.log", spans)
        op["wall_s"] += sample["wall_s"]
        op["cpu_s"] += sample["cpu_s"]
        op["peak_rss_mb"] = max(op["peak_rss_mb"], sample["peak_rss_mb"])
        if not sample["ok"]:
            op.update(ok=False, problems=[f"{cli_args[0]} failed: {sample['error']}"])
            break
        if traced:
            for total, part in zip((inclusive, counts, layer_self), sample["layers"]):
                total.update(part)
    if op["ok"]:
        op["problems"] = prepared.check(op_dir)
        op["ok"] = not op["problems"]
    if traced and op["ok"]:
        op["layers"] = layer_metrics(inclusive, counts, layer_self, op["wall_s"])
        op["self_s"] = {layer: layer_self[layer] for layer in (*LAYERS, "trace")}
    shutil.rmtree(op_dir, ignore_errors=True)
    return op


def layer_metrics(inclusive: Counter, counts: Counter, layer_self: Counter, wall: float) -> dict:
    metrics = {f"{span}_s": inclusive[span] for span in TIMED_SPANS}
    metrics.update({name: counts[name] for name in LAYER_COUNTS})
    attempted = counts["network.pairs_attempted"]
    metrics["network.pair_yield"] = counts["network.pairs_weighted"] / attempted if attempted else 0.0
    metrics.update({f"share.{layer}": 100.0 * layer_self[layer] / wall for layer in LAYERS})
    metrics["trace.wall_s"] = wall
    return metrics


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it once that percentile is at least the median (from twenty samples;
    below that the maximum is all there is)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "max": ordered[-1], "values": values}
    if n >= 20:
        out["p_high"] = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return out


def measure(prepared, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Operations until ``seconds`` have passed, and the run's metrics."""
    # a first, untimed operation warms the page cache and the bytecode cache
    # of a fresh checkout; its outputs are checked like every other's
    ops = [dict(run_op(prepared, work, 0, False), warmup=True)]
    start = time.perf_counter()
    while len(ops) == 1 or time.perf_counter() - start < seconds:
        # spread the set-up repeats over the run, so that setup_s is measured
        # under the same machine conditions as the operations
        if (len(prepared.setup_s) < prepared.setup_repeats and time.perf_counter() - start
                >= seconds * len(prepared.setup_s) / prepared.setup_repeats):
            prepared.build_again()
        for traced in ((False, True) if trace else (False,)):
            ops.append(run_op(prepared, work, len(ops), traced))
    measured_s = time.perf_counter() - start
    while len(prepared.setup_s) < prepared.setup_repeats:
        prepared.build_again()

    good = [op for op in ops if op["ok"] and not op["traced"] and not op.get("warmup")]
    samples = {
        "wall_s": [op["wall_s"] for op in good],
        "windows_per_s": [prepared.windows / op["wall_s"] for op in good],
        "cpu_s": [op["cpu_s"] for op in good],
        "peak_rss_mb": [op["peak_rss_mb"] for op in good],
        "setup_s": prepared.setup_s,
    }
    summary = {name: summarize(v) for name, v in samples.items() if v}
    failed = sum(not op["ok"] for op in ops)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured_s,
        "trace": int(trace),
        "inputs": prepared.facts,
        "reference_s": prepared.reference_s,
        "failed_ratio": failed / len(ops),
        "problems": [p for op in ops for p in op.get("problems", [])][:10],
        "summary": {name: dict(s, unit=END_TO_END[name]) for name, s in summary.items()},
    }
    if trace:
        metrics, detail["layers"] = traced_metrics(ops, summary)
    else:
        metrics = {name: {"value": summary[name]["median"] if name in summary else 0.0, "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics, "detail": detail}


def traced_metrics(ops: list[dict], summary: dict) -> tuple[dict, dict]:
    traced = [op for op in ops if op["traced"] and op["ok"]]
    values = {name: statistics.median(op["layers"][name] for op in traced) if traced else 0.0
              for name in PER_LAYER if name not in ("trace.untraced_wall_s", "trace.overhead_s")}
    untraced = summary["wall_s"]["median"] if "wall_s" in summary else 0.0
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced if traced else 0.0
    table = {
        "base": "median traced wall_s of one operation",
        "base_s": values["trace.wall_s"],
        "overhead_s": values["trace.overhead_s"],
        "traced_ops": len(traced),
        "self_s": {layer: statistics.median(op["self_s"][layer] for op in traced) if traced else 0.0
                   for layer in (*LAYERS, "trace")},
        "share_pct": {layer: values[f"share.{layer}"] for layer in LAYERS},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="full-observed, masked-days, rerank-saved or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few firms and months")
    args = parser.parse_args(argv)
    if not (SRC / "risknet" / "__init__.py").is_file():
        print(f"run.py: no risknet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    size = workloads.SIZES["smoke" if args.smoke else "paper"]
    get_threads = _openblas("get_num_threads", [], ctypes.c_int)
    set_threads = _openblas("set_num_threads", [ctypes.c_int], None)
    facts = machine_facts(get_threads() if get_threads else None)
    if set_threads:
        # Idle OpenBLAS workers of this process spin after each reference or
        # check computation and slow the next operation's subprocess; the
        # subprocesses keep the default thread count recorded above.
        set_threads(1)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    results = []
    try:
        for name in names:
            work = work_root / name
            work.mkdir()
            prepared = workloads.prepare(name, size, args.seed, work)
            result = measure(prepared, name, args.seed, args.seconds, bool(args.trace), work)
            result["detail"]["machine"] = facts
            result["detail"]["size"] = "smoke" if args.smoke else "paper"
            print(json.dumps({"detail": result.pop("detail")}))
            results.append((name, result))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{m}": v for n, r in results for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
