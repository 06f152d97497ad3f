"""Shared helpers for the test suite: seeded random field data, small
definition-level operations that only the tests use, and per-function
reference loops for the verify protocols."""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from localfield.decomp import besov_norm, triebel_lizorkin_norm
from localfield.field import FieldConfig, FieldElement, Window, add, negate, q_power
from localfield.fourier import SpectralFunction
from localfield.functions import (TestFunction, common_refinement, convolve, evaluate, lr_norm,
                                  refine, weak_level_measures)
from localfield.kernels import evaluate_homogeneous, h1_upper_bound, shell_piece
from localfield.operators import (TruncationSpec, apply_atom_operator, apply_truncated,
                                  resolution_spec, tail_cutoff, truncation_kernel)
from localfield.verify import _first_atoms, _reading_b_operator

SRC = Path(__file__).resolve().parents[1] / "src"

# the address-space limit of a child run: a run that allocates without bound
# fails with a MemoryError instead of taking the machine's memory
CHILD_ADDRESS_SPACE = 2**30

CONFIGS = [FieldConfig("padic", 2), FieldConfig("padic", 3), FieldConfig("laurent", 2), FieldConfig("laurent", 3)]


def random_element(rng: np.random.Generator, config: FieldConfig,
                   min_level: int = -4, max_level: int = 4, max_len: int = 6,
                   allow_zero: bool = True) -> FieldElement:
    if allow_zero and rng.random() < 0.1:
        return FieldElement.zero(config)
    level = int(rng.integers(min_level, max_level + 1))
    length = int(rng.integers(1, max_len + 1))
    digits = [int(rng.integers(0, config.p)) for _ in range(length)]
    digits[0] = int(rng.integers(1, config.p))
    return FieldElement.make(config, level, digits)


def add_functions(f: TestFunction, g: TestFunction) -> TestFunction:
    """f + g, by value arithmetic on their common refinement."""
    rf, rg = common_refinement(f, g)
    return TestFunction(f.config, rf.a, rf.l, rf.values + rg.values)


def scalar_multiple(f: TestFunction, c) -> TestFunction:
    """c f, on the window of f."""
    return TestFunction(f.config, f.a, f.l, f.values * c)


def one(config: FieldConfig) -> FieldElement:
    return FieldElement(config, 0, (1,))


def translate(f: TestFunction, h: FieldElement) -> TestFunction:
    """g with g(x) = f(x - h); support ball grows to contain the shift."""
    if h.is_zero:
        return f
    a_new = min(f.a, h.level)
    g = refine(f, a_new, f.l) if a_new < f.a else f
    w = g.window
    hi = w.index_of(h)
    vals = g.values[w.index_sub(np.arange(w.size), hi)]
    return TestFunction(f.config, a_new, g.l, vals)


def integral(f: TestFunction) -> complex:
    """int f dHaar = q^{-l} sum of cell values."""
    s = complex(math.fsum(f.values.real), math.fsum(f.values.imag))
    return s * q_power(f.config.q, -f.l)


def linf_norm(f: TestFunction) -> float:
    return float(np.max(np.hypot(f.values.real, f.values.imag)))


def kernel_resolution_spec(f: TestFunction, m: int, k: int) -> TruncationSpec:
    """T_k f's window at the finer of the resolution of f and that of a
    resolution-m kernel's shell k: an exact refinement of resolution_spec's."""
    return TruncationSpec(k, f.a - 1, max(f.l, m - (k + 1)))


def naive_sphere_sum(f, kern, j, x):
    # direct summation over sphere cosets, field arithmetic only
    config = f.config
    level = max(f.l, kern.m - (j + 1))
    w = Window(config, -(j + 1), level)
    cells = np.flatnonzero(w.valuation_levels() == -(j + 1))
    total = 0j
    for ci in cells:
        y = w.element(int(ci))
        total += evaluate(f, add(x, negate(y, level))) * evaluate_homogeneous(kern, y)
    return total * float(Fraction(config.q) ** (-level))


def naive_truncated(f, kern, spec):
    # definition-level oracle: sum over shells and sphere cosets, no shortcuts
    config = f.config
    w = Window(config, spec.out_a, spec.out_l)
    jmax = -min(spec.out_a, f.a) - 1
    out = np.zeros(w.size, dtype=complex)
    for i in range(w.size):
        x = w.element(i)
        out[i] = sum(
            float(Fraction(config.q) ** (-(j + 1))) * naive_sphere_sum(f, kern, j, x)
            for j in range(spec.k, jmax + 1)
        )
    return TestFunction(config, spec.out_a, spec.out_l, out)


def spectral_valuation_levels(F: SpectralFunction) -> np.ndarray:
    """Per spectral cell: the valuation of its representatives.

    For the zero cell (all frequencies with |xi| <= q^a) the sentinel -a is
    returned, the smallest valuation consistent with every member.
    """
    return F.dual_window.valuation_levels()


# ---------------------------------------------------------------------------
# Per-function reference loops for the verify protocols.  Each takes the
# corpus one function at a time through the one-function public API, in the
# function-major order the protocols emit.  Under HarnessRoute they are the
# reference the stacked protocols must equal bit for bit; under
# UnaveragedRoute they compute the same values the long way round.


class HarnessRoute:
    """The harness's route: T_k f on operators.resolution_spec's window, at the
    resolution of f, and every shell piece taken at that resolution."""

    @staticmethod
    def truncated(op, f, kern, k):
        return op(f, kern, resolution_spec(f, k))

    @staticmethod
    def reading_b(f, atom, k):
        return _reading_b_operator(f, atom, resolution_spec(f, k))

    @staticmethod
    def piece(atom, j, l):
        return shell_piece(atom, j, l)


class UnaveragedRoute:
    """The route that builds T_k f at the kernel's own resolution: the truncation
    kernel unaveraged, convolved on kernel_resolution_spec's window, and the
    shell pieces convolved as they are.  The differential reference for
    HarnessRoute."""

    @staticmethod
    def truncated(op, f, kern, k):
        spec = kernel_resolution_spec(f, kern.m, k)
        jmax = tail_cutoff(spec.out_a, f.a)
        if k > jmax:
            return op(f, kern, spec)  # no shell reaches the window: all zeros
        # a resolution at least the kernel's own leaves it unaveraged
        kernel = truncation_kernel(kern, k, jmax, max(f.l, kern.m - (k + 1)))
        out = convolve(f, kernel)
        assert (out.a, out.l) == (spec.out_a, spec.out_l)
        return out

    @staticmethod
    def reading_b(f, atom, k):
        jmax = tail_cutoff(f.a - 1, f.a)
        weight = sum(Fraction(f.config.q) ** (-(j + 1)) for j in range(k, jmax + 1))
        out = convolve(shell_piece(atom, -1), f)
        return TestFunction(out.config, out.a, out.l, out.values * complex(float(weight)))

    @staticmethod
    def piece(atom, j, l):
        return shell_piece(atom, j)


def per_function_lebesgue(corpus, k_list, r_list, route=HarnessRoute) -> list:

    q = corpus.config.q
    rows = []
    for fi, f in enumerate(corpus.functions):
        for ki, kern in enumerate(corpus.kernels):
            for k in k_list:
                tkf = route.truncated(apply_truncated, f, kern, k)
                scale = q_power(q, -k) * h1_upper_bound(kern)
                for r in r_list:
                    nf = lr_norm(f, r)
                    if nf == 0:
                        continue
                    num = lr_norm(tkf, r)
                    rows.append((f"f{fi}.w{ki}", k, r, 0.0 if num == 0 else num / (scale * nf)))
    return rows


def single_norm_besov_tl(corpus, k_list, srt_list, route=HarnessRoute) -> tuple:
    """(ratio rows, piece rows), one besov_norm or triebel_lizorkin_norm call per value."""

    norm_of = {"B": besov_norm, "F": triebel_lizorkin_norm}
    q = corpus.config.q
    rows = []
    for fi, f in enumerate(corpus.functions):
        for ki, kern in enumerate(corpus.kernels):
            for k in k_list:
                tkf = route.truncated(apply_truncated, f, kern, k)
                scale = q_power(q, -k) * h1_upper_bound(kern)
                for srt in srt_list:
                    for space in ("B", "F"):
                        nf = norm_of[space](f, *srt).value
                        if nf == 0:
                            continue
                        num = norm_of[space](tkf, *srt).value
                        ratio = 0.0 if num == 0 else num / (scale * nf)
                        rows.append((f"f{fi}.w{ki}", k, (space,) + srt, ratio))
    piece_rows = []
    for atom_id, atom in _first_atoms(corpus):
        for reading, j in (("B", -1), ("A", 0), ("A", 1)):
            for s, r, t in srt_list:
                worst = 0.0
                for f in corpus.functions:
                    nf = triebel_lizorkin_norm(f, s, r, t).value
                    if nf != 0:
                        g = convolve(route.piece(atom, j, f.l), f)
                        worst = max(worst, triebel_lizorkin_norm(g, s, r, t).value / nf)
                piece_rows.append({"atom": atom_id, "reading": reading, "j": j,
                                   "s": s, "r": r, "t": t, "ratio": worst})
    return rows, piece_rows


def per_function_l2_weak(corpus, k_list, lambda_list, route=HarnessRoute) -> list:


    q = corpus.config.q
    rows = []
    for atom_id, atom in _first_atoms(corpus):
        for fi, f in enumerate(corpus.functions):
            l2_f, l1_f = lr_norm(f, 2), lr_norm(f, 1)
            if l2_f == 0 or l1_f == 0:
                continue
            for k in k_list:
                for reading, bf in (("A", route.truncated(apply_atom_operator, f, atom, k)),
                                    ("B", route.reading_b(f, atom, k))):
                    claimed_l2 = q_power(q, -k) / (q - 1)
                    measured = [("l2", 2.0, lr_norm(bf, 2) / (claimed_l2 * l2_f))] + [
                        ("weak11", lam,
                         float(weak_level_measures(bf, lam)[0] * Fraction(lam)) / (l1_f * (1 + 4 * q)))
                        for lam in lambda_list]
                    rows.extend({"check": check, "entry": f"{atom_id}.f{fi}", "k": k,
                                 "reading": reading, "param": param, "ratio": ratio}
                                for check, param, ratio in measured)
    return rows


def per_function_taibleson_l2(corpus, route=HarnessRoute) -> list:
    """Per kernel: the largest ||T_0 f||_2 / ||f||_2 over the corpus."""

    sups = []
    for kern in corpus.kernels:
        sup_l2 = 0.0
        for f in corpus.functions:
            nf = lr_norm(f, 2)
            if nf != 0:
                tkf = route.truncated(apply_truncated, f, kern, 0)
                sup_l2 = max(sup_l2, lr_norm(tkf, 2) / nf)
        sups.append(sup_l2)
    return sups


def per_row_csv(report) -> str:
    """report.to_csv() as one csv.writer row per table row, the reference for its columns."""
    rows = [("check", "entry", "k", "param", "ratio")]
    for name in ("lebesgue", "besov_tl"):
        for entry, k, param, ratio in report.tables.get(name, []):
            tag = param if isinstance(param, (int, float)) else ":".join(str(x) for x in param)
            rows.append((name, entry, k, tag, ratio))
    for row in report.tables.get("pieces", []):
        rows.append(("piece", row["atom"], row["j"],
                     f"{row['reading']}:{row['s']}:{row['r']}:{row['t']}", row["ratio"]))
    for row in report.tables.get("l2_weak", []):
        rows.append((row["check"], row["entry"], row["k"],
                     f"{row['reading']}:{row['param']}", row["ratio"]))
    for row in report.tables.get("taibleson", []):
        rows.append(("taibleson", row["kernel"], row["m"], "modulus", row["modulus"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def run_child(code: str, args, cwd, timeout: float) -> subprocess.CompletedProcess:
    """python -c code with args in cwd, under CHILD_ADDRESS_SPACE and one BLAS thread.

    Raises subprocess.TimeoutExpired if the child outlives timeout seconds.
    """
    limit = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2)\n"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", limit + code, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
