"""Span tracer that wraps localfield's public functions from outside the package.

Tracer.install() replaces each function named in TARGETS by a wrapper, both in
the module that defines it and in every localfield module that bound it with
``from ... import``; Tracer.uninstall() puts every original back.  A wrapper
records a span (name, start, end, parent) and adds the span's duration, minus
the time its child spans cover, to the function's self time.  Hooks add work
counters (cells, rows, balls, distinct inputs) read from the call's arguments
and result.  The two field methods called about a million times per CZ audit
are wrapped by call counters only, with no span.

Spans stay in memory until write_spans() is called at the end of a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict

import localfield.cli
import localfield.decomp
import localfield.field
import localfield.fourier
import localfield.functions
import localfield.kernels
import localfield.operators
import localfield.verify


def _content_key(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.digest()


def _function_key(f) -> bytes:
    return _content_key(f.config.mode, f.config.p, f.a, f.l, f.values)


def _size_tag(args, kwargs) -> str:
    f = args[0] if args else kwargs["f"]
    return f".n{f.values.size}"


# -- counter hooks: (tracer, args, kwargs, result) -> None ---------------------


def _cells_of_first(tr, name, args, kwargs, result):
    tr.counts[f"{name}.cells"] += args[0].values.size


def _convolve_cells(tr, name, args, kwargs, result):
    f, g = args[0], args[1]
    cells = f.config.p ** (max(f.l, g.l) - min(f.a, g.a))
    tr.counts[f"{name}.cells"] += cells
    limit = getattr(localfield.functions, "DIRECT_CONV_CELL_LIMIT", 0)
    if cells <= limit:
        tr.counts[f"{name}.direct_calls"] += 1


def _truncation_kernel_key(tr, name, args, kwargs, result):
    kernel, k, jmax = args[0], args[1], args[2]
    tr.distinct[name].add(_content_key(kernel.config.mode, kernel.config.p,
                                       kernel.m, kernel.values, k, jmax))


def _norm_input_key(tr, name, args, kwargs, result):
    tr.distinct["decomp.norms"].add(_function_key(args[0]))


def _cz_balls(tr, name, args, kwargs, result):
    tr.counts["decomp.cz.balls"] += len(result.balls)


def _rows(extract):
    def hook(tr, name, args, kwargs, result):
        tr.counts[f"{name}.rows"] += len(extract(result))
    return hook


# (module, attribute, span name, counter hook, span-name suffix from the call)
TARGETS = (
    (localfield.cli, "main", "cli.main", None, None),
    (localfield.verify, "generate_corpus", "verify.corpus", None, None),
    (localfield.verify, "check_lebesgue_theorem", "verify.lebesgue",
     _rows(lambda est: est.ratio_table), None),
    (localfield.verify, "check_besov_tl_theorem", "verify.besov_tl",
     _rows(lambda res: res[0].ratio_table), None),
    (localfield.verify, "check_l2_and_weak11", "verify.l2_weak",
     _rows(lambda res: res["rows"]), None),
    (localfield.verify, "check_taibleson_class", "verify.taibleson", None, None),
    (localfield.operators, "apply_truncated", "operators.apply_truncated", None, None),
    (localfield.operators, "apply_atom_operator", "operators.apply_atom_operator", None, None),
    (localfield.operators, "truncation_kernel", "operators.truncation_kernel",
     _truncation_kernel_key, None),
    (localfield.decomp, "besov_norm", "decomp.besov_norm", _norm_input_key, None),
    (localfield.decomp, "triebel_lizorkin_norm", "decomp.triebel_lizorkin_norm",
     _norm_input_key, None),
    (localfield.decomp, "cz_decompose", "decomp.cz_decompose", _cz_balls, None),
    (localfield.decomp, "check_cz_clauses", "decomp.check_cz_clauses", None, _size_tag),
    (localfield.fourier, "forward", "fourier.forward", _cells_of_first, None),
    (localfield.fourier, "inverse", "fourier.inverse", _cells_of_first, None),
    (localfield.functions, "convolve", "functions.convolve", _convolve_cells, None),
    (localfield.functions, "lr_norm", "functions.lr_norm", _cells_of_first, None),
    (localfield.kernels, "shell_piece", "kernels.shell_piece", None, None),
    (localfield.kernels, "taibleson_modulus", "kernels.taibleson_modulus", None, None),
    (localfield.kernels, "atomic_decompose", "kernels.atomic_decompose", None, None),
    (localfield.kernels, "validate_atom", "kernels.validate_atom", None, None),
)

# (class, method, counter name): call counts only
COUNTED_METHODS = (
    (localfield.field.Ball, "intersects", "field.Ball.intersects.calls"),
    (localfield.field.Window, "index_of", "field.Window.index_of.calls"),
)


class Tracer:
    """Collects spans and counters for one traced unit of work."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self._covered = []     # per span: time covered by its direct children
        self._stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._patches = []     # (owner, attribute, original)

    # -- installing and restoring wrappers ---------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "localfield" or n.startswith("localfield.")]
        for home, attr, name, hook, tag in TARGETS:
            original = getattr(home, attr)
            wrapper = self._span_wrapper(original, name, hook, tag)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, wrapper)
        for cls, attr, name in COUNTED_METHODS:
            self._patch(cls, attr, self._count_wrapper(cls.__dict__[attr], name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _count_wrapper(self, original, name):
        calls = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    def _span_wrapper(self, original, name, hook, tag):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name + tag(args, kwargs) if tag else name
            spans, covered, stack = tracer.spans, tracer._covered, tracer._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            covered.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent)
                duration = t1 - t0
                if parent >= 0:
                    covered[parent] += duration
                tracer.calls[span_name] += 1
                tracer.total_s[span_name] += duration
                tracer.self_s[span_name] += duration - covered[idx]
            if hook is not None:
                hook(tracer, name, args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def useful_ratio(self, distinct_name: str, call_names) -> float:
        """Distinct inputs seen over calls made; 0 when there were no calls."""
        calls = sum(self.calls[n] for n in call_names)
        return len(self.distinct[distinct_name]) / calls if calls else 0.0

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_ref = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], round(t0 - t_ref, 9), round(t1 - t_ref, 9), p]
                      for n, t0, t1, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
