"""The benchmark reaches library functions by name: every name must resolve.

perfbench/tracer.py looks each (module, attribute) pair up with getattr when
it installs its wrappers, and perfbench/workloads.py calls the library through
module attributes (cli.main, decomp.besov_norm, ...), so a rename or deletion
in the package would only surface as a failing benchmark run.  These tests
load both files from their paths and check the names here instead; loading
workloads.py also resolves its ``from localfield... import`` names.  The
tracer's row counters also read the return shape of the verify protocols
(``est.ratio_table``, ``res[0].ratio_table``, ``res["rows"]``), so each is
fed a real protocol result here.  Both verify workloads also run one unit, so
a CLI change that breaks cli.parse_config or cli.main as the benchmark calls
them fails here, and their oracle samples, so a change that breaks
apply_truncated on a window finer than f fails here too.  One large-windows
unit runs here as well, so the 16,384-cell windows of the transform, the
Littlewood-Paley blocks and the CZ split and its audit are in the suite.  The
tracer's CZ ball counter reads ``len(result.balls)``, so it is fed a real
split and must agree with the audit's ball count.
"""

import ast
import importlib.util
import inspect
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from localfield import decomp, verify
from localfield.field import FieldConfig
from localfield.functions import TestFunction

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

# the library modules workloads.py calls through attribute access
_MODULES = ("cli", "decomp", "fourier", "functions", "operators")
_WORKLOAD_ATTRS = sorted({
    (node.value.id, node.attr)
    for node in ast.walk(ast.parse((_PERFBENCH / "workloads.py").read_text()))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    and node.value.id in _MODULES
})


@pytest.mark.parametrize("owner, attr",
                         [(home, attr) for home, attr, *_ in tracer.TARGETS]
                         + [(cls, attr) for cls, attr, _ in tracer.COUNTED_METHODS],
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_wrapped_name_resolves_to_callable(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_workloads_reach_every_library_module():
    assert {module for module, _ in _WORKLOAD_ATTRS} == set(_MODULES)


@pytest.mark.parametrize("module, attr", _WORKLOAD_ATTRS, ids=lambda x: x)
def test_workload_attribute_resolves_to_callable(module, attr):
    assert callable(getattr(getattr(workloads, module), attr, None))


# the exponent argument each verify protocol takes after (corpus, k_list)
_PROTOCOL_ARGS = {
    "check_lebesgue_theorem": [2.0],
    "check_besov_tl_theorem": [(0.5, 2.0, 2.0)],
    "check_l2_and_weak11": [1.0],
}
_ROW_TARGETS = [(attr, name, hook) for home, attr, name, hook, _ in tracer.TARGETS
                if home is verify and hook is not None
                and hook.__qualname__.startswith("_rows.")]


def test_row_hooks_cover_the_ratio_protocols():
    assert sorted(attr for attr, _, _ in _ROW_TARGETS) == sorted(_PROTOCOL_ARGS)


@pytest.mark.parametrize("attr, name, hook", _ROW_TARGETS, ids=[t[1] for t in _ROW_TARGETS])
def test_row_hook_counts_a_protocol_result(attr, name, hook):
    corpus = verify.generate_corpus(FieldConfig("padic", 2), 42, 2, (-2, 2), (2,))
    result = getattr(verify, attr)(corpus, [-1, 0], _PROTOCOL_ARGS[attr])
    stub = SimpleNamespace(counts=Counter())
    hook(stub, name, (), {}, result)
    assert stub.counts[f"{name}.rows"] > 0


def test_row_hooks_count_the_rows_of_the_default_run():
    # the protocols as run_verification calls them with its defaults
    defaults = {name: p.default
                for name, p in inspect.signature(verify.run_verification).parameters.items()}
    corpus = verify.generate_corpus(*(defaults[name] for name in (
        "config", "seed", "count", "window", "kernel_resolutions")))
    params = {"check_lebesgue_theorem": "r_list", "check_besov_tl_theorem": "srt_list",
              "check_l2_and_weak11": "lambda_list"}
    stub = SimpleNamespace(counts=Counter())
    for attr, name, hook in _ROW_TARGETS:
        result = getattr(verify, attr)(corpus, defaults["k_list"], defaults[params[attr]])
        hook(stub, name, (), {}, result)
    assert stub.counts == {"verify.lebesgue.rows": 3000, "verify.besov_tl.rows": 12000,
                           "verify.l2_weak.rows": 8000}


# the benchmark drives the CLI through cli.parse_config and cli.main
@pytest.mark.parametrize("name", ["verify-padic2", "verify-laurent3"])
def test_verify_workload_runs_one_unit(tmp_path, name):
    _, ops = workloads.WORKLOADS[name](42, tmp_path).run_unit()
    assert ops == (1, 0)


# large-windows takes the coset tree to 16,384 cells: _all_blocks in the norms,
# cz_decompose and check_cz_clauses on 4,096 and 16,384 cells
def test_large_windows_workload_runs_one_unit(tmp_path):
    _, ops = workloads.WORKLOADS["large-windows"](42, tmp_path).run_unit()
    assert ops == (132, 0)


# the verify workloads' output check calls apply_truncated on perfbench's own
# window, finer than the resolution of f, against the sphere-integral oracle
@pytest.mark.parametrize("name", ["verify-padic2", "verify-laurent3"])
def test_verify_workload_oracle_samples_pass(tmp_path, name):
    assert workloads.WORKLOADS[name](42, tmp_path).check_run() == (8, 0)


# the tracer's decomp.cz.balls counter is len(result.balls) of a real split
def test_cz_ball_counter_counts_the_audited_balls():
    f = TestFunction(FieldConfig("padic", 2), -2, 4, np.random.default_rng(17).random(64))
    dec = decomp.cz_decompose(f, 0.9, -2)
    _, metrics = decomp.check_cz_clauses(f, dec)
    stub = SimpleNamespace(counts=Counter())
    tracer._cz_balls(stub, "decomp.cz_decompose", (f, 0.9, -2), {}, dec)
    assert stub.counts["decomp.cz.balls"] == metrics["ball_count"] > 1
