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

from localfield.decomp import _all_blocks, besov_norm, triebel_lizorkin_norm
from localfield.field import FieldConfig, FieldElement, Window, add, negate, q_power
from localfield.fourier import SpectralFunction
from localfield.functions import (TestFunction, common_refinement, convolve, evaluate, lr_norm,
                                  refine, weak_level_measures)
from localfield.kernels import (AngularKernel, evaluate_homogeneous, h1_upper_bound,
                                kernel_window_indices, shell_piece)
from localfield.operators import (TruncationSpec, apply_atom_operator, apply_truncated,
                                  resolution_spec, tail_cutoff, truncation_kernel)
from localfield.verify import RowTable, _first_atoms, _reading_b_weight, generate_corpus

SRC = Path(__file__).resolve().parents[1] / "src"

# the address-space limit of a child run: a run that allocates without bound
# fails with a MemoryError instead of taking the machine's memory
CHILD_ADDRESS_SPACE = 2**30

CONFIGS = [FieldConfig("padic", 2), FieldConfig("padic", 3), FieldConfig("laurent", 2), FieldConfig("laurent", 3)]
# p = 5, for tests that reach past the two primes of CONFIGS on windows of at most 5^4 cells
P5_CONFIGS = [FieldConfig("padic", 5), FieldConfig("laurent", 5)]


def seed42_corpus(config: FieldConfig, count: int = 10):
    """The seed-42 corpus at verify's default kernel resolutions, on window -3:3
    when q = 2 and -2:2 when q = 3."""
    window = (-3, 3) if config.q == 2 else (-2, 2)
    return generate_corpus(config, 42, count, window, (2, 3, 4))


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


def convolution_truncated(f: TestFunction, kern: AngularKernel, spec: TruncationSpec) -> TestFunction:
    """T_k f as refine(convolve(f, truncation_kernel(...)), out_a, out_l), all zeros when
    no shell reaches the window: the route that apply_truncated's cached truncation
    multiplier and input spectrum replace, and its differential reference."""
    jmax = tail_cutoff(spec.out_a, f.a)
    if spec.k > jmax:
        shape = f.values.shape[:-1] + (f.config.p ** (spec.out_l - spec.out_a),)
        return TestFunction(f.config, spec.out_a, spec.out_l, np.zeros(shape))
    conv = convolve(f, truncation_kernel(kern, spec.k, jmax, f.l))
    return refine(conv, spec.out_a, spec.out_l)


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


def reading_b_operator(f: TestFunction, atom: AngularKernel, spec: TruncationSpec) -> TestFunction:
    """Reading B of the per-atom operator for one f and k: the convolution with the
    unit-sphere piece times the geometric weight of the shells j = k .. tail_cutoff.
    The per-(f, k) route that verify's once-per-stack convolution replaces."""
    weight = _reading_b_weight(f.config.q, spec.k, tail_cutoff(spec.out_a, f.a))
    out = convolve(shell_piece(atom, -1, f.l), f)
    return TestFunction(out.config, out.a, out.l, out.values * complex(float(weight)))


def fsum_segments(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """math.fsum of each segment, one Python call per segment: the route that
    functions.exact_sums replaces, and its differential reference."""
    ends = [*starts[1:].tolist(), values.size]
    return np.array([math.fsum(values[a:b]) for a, b in zip(starts.tolist(), ends)])


def index_refine(f: TestFunction, a_new: int, l_new: int) -> TestFunction:
    """f on the finer window (a_new, l_new) by index arithmetic: new cell i is f's
    cell (i // pad) mod q^(l - a) when pad = q^(a - a_new) divides i, else 0.  The
    route that functions.refine replaces, and its differential reference."""
    p = f.config.p
    pad, sup = p ** (f.a - a_new), p ** (f.l - f.a)
    idx = np.arange(p ** (l_new - a_new))
    vals = np.where(idx % pad == 0, f.values[..., (idx // pad) % sup], 0)
    return TestFunction(f.config, a_new, l_new, vals)


def one_shot_coarsen(f: TestFunction, l_new: int) -> TestFunction:
    """E_{l_new} f as one mean over the q^(l - l_new) cells of each coset: the
    differential reference for coarsen_resolution, which chains one-level means
    down functions.coset_tree."""
    p = f.config.p
    split = (p ** (f.l - l_new), p ** (l_new - f.a))
    vals = f.values.reshape(f.values.shape[:-1] + split).mean(axis=-2)
    return TestFunction(f.config, f.a, l_new, vals)


def kernel_order_haar_differences(k: AngularKernel) -> list:
    """The Haar martingale differences of k computed in kernel cell order: the
    depth-d level averages the (q - 1, q^d, q^(m-1-d)) cube of k.values over its
    last axis, which holds c_(d+1)..c_(m-1) in dictionary order.  The
    differential reference for kernels._haar_differences."""
    q = k.config.p
    prev = np.zeros_like(k.values)
    out = []
    for depth in range(k.m):
        cube = k.values.reshape(q - 1, q**depth, q ** (k.m - 1 - depth))
        level = np.broadcast_to(cube.mean(axis=2, keepdims=True), cube.shape)
        level = level.reshape(k.values.shape)
        out.append(level - prev)
        prev = level
    return out


def per_shift_taibleson_terms(k: AngularKernel, J: int) -> np.ndarray:
    """kernels.taibleson_terms as one term per unit-sphere cell y and j, the shift
    y p^j mod p^m taken anew for each: the reference for the one term per distinct
    shift that taibleson_terms computes."""
    w = Window(k.config, 0, k.m)
    kw = kernel_window_indices(k.config, k.m)
    back = np.full(w.size, -1, dtype=np.int64)
    back[kw] = np.arange(kw.size)
    meas = q_power(k.config.q, -k.m)
    terms = np.zeros((kw.size, min(J, k.m)))
    for row, y_cell in zip(terms, kw):
        for j in range(1, row.size + 1):
            moved = w.index_add(kw, int(y_cell) * k.config.p**j % w.size)
            diff = k.values[back[moved]] - k.values
            row[j - 1] = math.fsum(np.hypot(diff.real, diff.imag)) * meas
    return terms


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
        return reading_b_operator(f, atom, resolution_spec(f, k))

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
                    rows.append([f"f{fi}.w{ki}", k, r, 0.0 if num == 0 else num / (scale * nf)])
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
                        rows.append([f"f{fi}.w{ki}", k, [space, *srt], ratio])
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
                         float(weak_level_measures(bf, [lam])[0][0] * bf.cell_measure
                               * Fraction(lam)) / (l1_f * (1 + 4 * q)))
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


def row_sups(rows) -> list:
    """(k, param, sup) for each (k, param) of ratio-table rows, sup the largest ratio of
    its rows, one row at a time: the loop that verify's column reductions replace."""
    sups = {}
    for _, k, param, ratio in rows:
        key = (k, repr(param))
        sups[key] = (k, param, max(sups[key][2], ratio) if key in sups else ratio)
    return list(sups.values())


# each row table's RowTable.names: the fields of its dict rows, or None for list rows
ROW_TABLE_NAMES = {"lebesgue": None, "besov_tl": None,
                   "l2_weak": ("check", "entry", "k", "reading", "param", "ratio")}


def row_table(rows, names=None) -> RowTable:
    """The RowTable whose rows are rows: [entry, *key, ratio] lists, or with names,
    dicts of those fields.  Each entry object, and each tuple of key objects, is
    one entry or key, told apart by identity, so cells that compare equal (1, 1.0,
    True) keep their own text."""
    entries, keys = {}, {}
    entry, key = [], []
    for row in rows:
        cells = row[:-1] if names is None else [row["entry"]] + [
            row[name] for name in names if name not in ("entry", "ratio")]
        entry.append(entries.setdefault(id(cells[0]), (len(entries), cells[0]))[0])
        key.append(keys.setdefault(tuple(map(id, cells[1:])), (len(keys), tuple(cells[1:])))[0])
    ratio = [row["ratio"] if names else row[-1] for row in rows]
    return RowTable(tuple(cell for _, cell in entries.values()),
                    tuple(cells for _, cells in keys.values()), entry, key, ratio, names)


def with_row_tables(tables: dict) -> dict:
    """tables with each row table given as a list of its rows put back as a RowTable."""
    return {name: row_table(table, ROW_TABLE_NAMES[name]) if name in ROW_TABLE_NAMES else table
            for name, table in tables.items()}


def report_payload(report) -> dict:
    """The payload report.json holds, each RowTable as the list of its rows."""
    tables = {name: list(table) if isinstance(table, RowTable) else table
              for name, table in report.tables.items()}
    return {"config": report.config.to_dict(), "seed": report.seed,
            "checks": list(report.checks), "tables": tables}


def per_row_csv(report) -> str:
    """report.to_csv() as the csv_rows route that verify.ReportWriter replaces wrote it:
    one csv.writer row per table row, cells as the tables hold them.  The reference
    for report.csv."""
    tables = report.tables
    rows = [("check", "entry", "k", "param", "ratio")]
    rows += [("lebesgue", row[0], row[1], row[2], row[3]) for row in tables.get("lebesgue", [])]
    rows += [("besov_tl", row[0], row[1], "{}:{}:{}:{}".format(*row[2]), row[3])
             for row in tables.get("besov_tl", [])]
    rows += [("piece", row["atom"], row["j"],
              "{}:{}:{}:{}".format(row["reading"], row["s"], row["r"], row["t"]), row["ratio"])
             for row in tables.get("pieces", [])]
    rows += [(row["check"], row["entry"], row["k"], "{}:{}".format(row["reading"], row["param"]),
              row["ratio"]) for row in tables.get("l2_weak", [])]
    rows += [("taibleson", row["kernel"], row["m"], "modulus", row["modulus"])
             for row in tables.get("taibleson", [])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def fsum_lr_norms(f: TestFunction, r: float) -> list:
    """The L^r norm of each row of f, one math.fsum per row (r = 2: one for the re^2 and
    one for the im^2), inf where it overflows: the differential reference of
    functions.lr_norms_each, which sums every row in one exact_sums call."""
    norms = []
    for row in np.atleast_2d(f.values):
        try:
            total = (math.fsum(row.real**2) + math.fsum(row.imag**2) if r == 2
                     else math.fsum(np.hypot(row.real, row.imag) ** r))
        except OverflowError:
            total = math.inf
        norms.append((total * q_power(f.config.q, -f.l)) ** (1.0 / r))
    return norms


def besov_value(weights, norms, t: float) -> float:
    """One row's B norm (sum_j w_j n_j^t)^(1/t) from its block norms n_j, one math.fsum
    per row, inf where a power or the sum overflows."""
    try:
        return math.fsum([w * n ** t for w, n in zip(weights, norms)]) ** (1.0 / t)
    except OverflowError:
        return math.inf


def per_row_norm_columns(f: TestFunction, srt_list, spaces: str = "BF") -> dict:
    """decomp.norm_columns one triple and one row at a time, with no refusal: block norms
    by fsum_lr_norms, B values by besov_value, F values by one math.fsum of the pointwise
    sum per row.  Its differential reference."""
    blocks = _all_blocks(f)
    q = f.config.q
    table = {}
    for s, r, t in srt_list:
        weights = [float(q) ** (s * j * t) for j in range(len(blocks))]
        if "B" in spaces:
            norms = zip(*[fsum_lr_norms(b, r) for b in blocks])
            table["B", (s, r, t)] = [besov_value(weights, row, t) for row in norms]
        if "F" in spaces:
            moduli = [np.atleast_2d(np.hypot(b.values.real, b.values.imag)) for b in blocks]
            values = []
            for i in range(len(moduli[0])):
                pointwise = np.zeros(1)
                for w, m in zip(weights, moduli):
                    pointwise = np.tile(pointwise, m.shape[-1] // pointwise.size) + w * m[i] ** t
                try:
                    total = math.fsum(pointwise ** (r / t))
                except OverflowError:
                    total = math.inf
                values.append((total * q_power(q, -f.l)) ** (1.0 / r))
            table["F", (s, r, t)] = values
    return table


def run_child(code: str, args, cwd, timeout: float) -> subprocess.CompletedProcess:
    """python -c code with args in cwd, under CHILD_ADDRESS_SPACE and one BLAS thread.

    Raises subprocess.TimeoutExpired if the child outlives timeout seconds.
    """
    limit = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2)\n"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", limit + code, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
