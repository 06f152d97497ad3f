"""Benchmark of localfield through its public API, with per-layer times traced from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-padic2 --seed 42 --seconds 25 --trace 0

The workloads are defined and motivated in workloads.py.  One process runs
one workload on one thread; numpy keeps its default threading, and the thread
settings found are recorded with the result.  The workload's unit (one
``localfield verify`` call, or one pass of the large-window subcommand calls)
repeats until --seconds have passed, and at least twice.

--trace 0 reports the end-to-end metrics: setup_s, the median over five fresh
processes of the time from process start until the inputs are ready for the
first timed call; command_s, the median wall time of one unit; peak_rss_mb,
the process's peak resident set.  --trace 1 alternates untraced and traced
units and reports the per-layer metrics of tracer.py: self times are medians
over traced units, counts come from the first traced unit and must repeat
exactly in the others, and trace.overhead_ratio is the median traced unit time
over the median untraced one.

Output checks run outside the timed parts.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the provenance.  Results and the spans of one traced unit
are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_UNITS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NPY_NUM_THREADS")

END_TO_END = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}


def _per_layer() -> dict:
    """Per-layer metric name -> unit, in the order BENCHMARK.json lists them."""
    metrics = {"cli.main.self_s": "s"}
    for stage in ("corpus", "lebesgue", "besov_tl", "l2_weak", "taibleson"):
        metrics[f"verify.{stage}.total_s"] = "s"
    for stage in ("lebesgue", "besov_tl", "l2_weak"):
        metrics[f"verify.{stage}.rows"] = "count"
    metrics["verify.report_bytes"] = "bytes"
    for fn in ("apply_truncated", "apply_atom_operator", "truncation_kernel"):
        metrics[f"operators.{fn}.calls"] = "count"
        metrics[f"operators.{fn}.self_s"] = "s"
    metrics["operators.truncation_kernel.useful_ratio"] = "ratio"
    for fn in ("besov_norm", "triebel_lizorkin_norm", "cz_decompose"):
        metrics[f"decomp.{fn}.calls"] = "count"
        metrics[f"decomp.{fn}.self_s"] = "s"
    metrics["decomp.norms.useful_ratio"] = "ratio"
    metrics["decomp.check_cz_clauses.n4096.self_s"] = "s"
    metrics["decomp.check_cz_clauses.n16384.self_s"] = "s"
    metrics["decomp.cz.balls"] = "count"
    for fn in ("forward", "inverse"):
        metrics[f"fourier.{fn}.calls"] = "count"
        metrics[f"fourier.{fn}.self_s"] = "s"
        metrics[f"fourier.{fn}.cells"] = "count"
    for suffix, unit in (("calls", "count"), ("self_s", "s"), ("cells", "count"),
                         ("direct_calls", "count")):
        metrics[f"functions.convolve.{suffix}"] = unit
    for suffix, unit in (("calls", "count"), ("self_s", "s"), ("cells", "count")):
        metrics[f"functions.lr_norm.{suffix}"] = unit
    for fn in ("shell_piece", "taibleson_modulus", "atomic_decompose", "validate_atom"):
        metrics[f"kernels.{fn}.calls"] = "count"
        metrics[f"kernels.{fn}.self_s"] = "s"
    metrics["field.Ball.intersects.calls"] = "count"
    metrics["field.Window.index_of.calls"] = "count"
    for part in ("transform", "apply_tk", "norms", "cz_decompose"):
        metrics[f"command.{part}_s"] = "s"
    metrics["trace.overhead_ratio"] = "ratio"
    return metrics


PER_LAYER = _per_layer()
# metrics that describe the work done, not its time: they must repeat exactly
COUNT_SUFFIXES = (".calls", ".cells", ".rows", ".direct_calls", ".balls",
                  ".useful_ratio", ".report_bytes")
USEFUL_RATIOS = {
    "operators.truncation_kernel.useful_ratio":
        ("operators.truncation_kernel", ("operators.truncation_kernel",)),
    "decomp.norms.useful_ratio":
        ("decomp.norms", ("decomp.besov_norm", "decomp.triebel_lizorkin_norm")),
}


def tracer_metrics(tracer) -> dict:
    """The per-layer metrics one traced unit yields, by name."""
    out = {}
    for name in PER_LAYER:
        prefix, _, suffix = name.rpartition(".")
        if name in USEFUL_RATIOS:
            out[name] = tracer.useful_ratio(*USEFUL_RATIOS[name])
        elif suffix == "self_s":
            out[name] = tracer.self_s[prefix]
        elif suffix == "total_s":
            out[name] = tracer.total_s[prefix]
        elif suffix == "calls":
            out[name] = tracer.counts[name] if name in tracer.counts else tracer.calls[prefix]
        elif suffix in ("cells", "rows", "direct_calls", "balls"):
            out[name] = tracer.counts[name]
    return out


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process start until a fresh process has its inputs."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up process exited with status {status}")
        times.append(elapsed)
    return statistics.median(times)


def _run_unit(workload, samples: list, totals: list) -> bool:
    """Run one unit; False when it raised, which counts as one failed operation."""
    try:
        times, (attempted, failed) = workload.run_unit()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        totals[0] += 1
        totals[1] += 1
        return False
    samples.append(times)
    totals[0] += attempted
    totals[1] += failed
    return True


def measure(workload, seconds: float, trace: bool) -> tuple:
    """Run units until `seconds` have passed, or until one raises; traced and
    untraced alternate when `trace` is set.  Returns the untraced and traced unit times, the
    per-layer metrics of each traced unit, the tracer of the first traced unit
    (whose spans are kept) and [attempted, failed]."""
    if trace:
        from tracer import Tracer
    untraced, traced, layer_units = [], [], []
    first_tracer = None
    totals = [0, 0]
    deadline = time.perf_counter() + seconds
    units = 0
    ok = True
    while ok and (units < MIN_UNITS or time.perf_counter() < deadline):
        if trace and units % 2 == 1:
            tracer = Tracer()
            with tracer:
                ok = _run_unit(workload, traced, totals)
            layer_units.append(tracer_metrics(tracer))
            first_tracer = first_tracer or tracer
        else:
            ok = _run_unit(workload, untraced, totals)
        units += 1
    return untraced, traced, layer_units, first_tracer, totals


def _median(samples: list, key: str) -> float:
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else 0.0


def layer_report(workload, untraced, traced, layer_units) -> tuple:
    """(per-layer metrics, whether every count repeated across traced units)."""
    metrics = {}
    repeatable = True
    for name in PER_LAYER:
        values = [m[name] for m in layer_units if name in m]
        if not values:
            continue
        if name.endswith(COUNT_SUFFIXES):
            metrics[name] = values[0]
            repeatable = repeatable and all(v == values[0] for v in values)
        else:
            metrics[name] = statistics.median(values)
    metrics.update(workload.layer_values())
    for part in ("transform", "apply_tk", "norms", "cz_decompose"):
        metrics[f"command.{part}_s"] = _median(untraced, f"{part}_s")
    base = _median(untraced, "command_s")
    metrics["trace.overhead_ratio"] = _median(traced, "command_s") / base if base else 0.0
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    return metrics, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (set-up timing)")
    args = parser.parse_args(argv)

    if not (SRC / "localfield" / "__init__.py").is_file():
        print(f"error: no localfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        untraced, traced, layer_units, first_tracer, totals = measure(
            workload, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            attempted, failed = workload.check_run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted, failed = 1, 1
        totals[0] += attempted
        totals[1] += failed

    correct = totals[1] == 0 and bool(untraced)
    if args.trace:
        values, repeatable = layer_report(workload, untraced, traced, layer_units)
        correct = correct and repeatable and first_tracer is not None
        reported = PER_LAYER
        if first_tracer is not None:
            first_tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = {"setup_s": setup_s, "command_s": _median(untraced, "command_s"),
                  "peak_rss_mb": peak_rss_mb}
        reported = END_TO_END
    result = {
        "correct": correct,
        "attempted": totals[0],
        "failed": totals[1],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported.items()},
    }
    prov = provenance()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "untraced_units": untraced,
              "traced_units": traced, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
