"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  The
repetition test runs every workload twice, traced, for about two minutes in
all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import localfield.decomp  # noqa: E402
from localfield.field import FieldConfig  # noqa: E402
from localfield.functions import TestFunction  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings():
    """Every module-level name of localfield, and every counted method."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "localfield" or name.startswith("localfield."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls, attr, _ in tracer.COUNTED_METHODS:
        out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    t = tracer.Tracer()
    with t:
        during = _bindings()
        patched = {key for key in before if during[key] is not before[key]}
    after = _bindings()
    # each target is replaced in its home module and where it was imported
    assert ("localfield.fourier", "inverse") in patched
    assert ("localfield.decomp", "inverse") in patched
    assert ("localfield.cli", "main") in patched
    assert ("Ball", "intersects") in patched
    assert all(after[key] is before[key] for key in before)


def test_self_times_partition_the_traced_interval():
    f = TestFunction(FieldConfig("padic", 2), -3, 3,
                     [complex(i % 5, 1) for i in range(64)])
    t = tracer.Tracer()
    with t:  # called through the module, where the wrapper is installed
        localfield.decomp.besov_norm(f, 0.5, 2.0, 2.0)
    roots = [end - start for _, start, end, parent in t.spans if parent < 0]
    assert len(roots) == 1
    assert sum(t.self_s.values()) == pytest.approx(roots[0], rel=1e-9)
    assert t.calls["fourier.forward"] == 1
    assert t.calls["fourier.inverse"] == t.calls["functions.lr_norm"] == 4
    assert all(parent < i for i, (_, _, _, parent) in enumerate(t.spans))


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# layers each workload is built to exercise: a traced run must see them
EXERCISED = {
    "verify-padic2": ("cli.main.self_s", "verify.besov_tl.rows",
                      "functions.convolve.direct_calls"),
    "verify-laurent3": ("cli.main.self_s", "verify.besov_tl.rows", "fourier.inverse.calls"),
    "large-windows": ("fourier.forward.calls", "operators.apply_truncated.calls",
                      "decomp.besov_norm.calls", "decomp.cz_decompose.calls",
                      "decomp.check_cz_clauses.n4096.self_s",
                      "decomp.check_cz_clauses.n16384.self_s", "decomp.cz.balls"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_between_traced_runs(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
        assert all(result["metrics"][name]["value"] > 0 for name in EXERCISED[workload])
    counts = [name for name in run.PER_LAYER if name.endswith(run.COUNT_SUFFIXES)]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
