"""The benchmark tracer wraps library functions by name: every name must resolve.

perfbench/tracer.py looks each (module, attribute) pair up with getattr when
it installs its wrappers, so a rename or deletion in the package would only
surface as a failing traced benchmark run.  This test loads the tracer from
its file and checks the pairs here instead.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("owner, attr",
                         [(home, attr) for home, attr, *_ in tracer.TARGETS]
                         + [(cls, attr) for cls, attr, _ in tracer.COUNTED_METHODS],
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_wrapped_name_resolves_to_callable(owner, attr):
    assert callable(getattr(owner, attr, None))
