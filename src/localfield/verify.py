"""Theorem-verification harness: corpus, ratio protocols, report assembly.

The boundedness results under test are existential in their constants, so
every check here is a measurement protocol: compute the norm ratio that the
inequality bounds, normalize by the claimed growth factor, and report the
fitted constant together with a k-stability verdict (per-k fitted constants
must stay within the fixed STABILITY_FACTOR 4).  Exact invariants (mean-zero
corpus kernels, Taibleson modulus stabilization, the unit-sphere piece
bound) carry genuine pass/fail semantics; measured constants are report
content and never mutate into assertions.

Proof-internal quantities that depend on how the dyadic piece g_j extends
off the unit sphere are computed under both readings: reading A extends the
kernel homogeneously across the shell of radius q^{j+1} (the reading under
which the operator equals the weighted sum of its pieces), reading B keeps
the literal unit-sphere support.  The two coincide at j = -1.

All randomness flows through one seeded generator, so a (seed, config)
pair reproduces every table byte for byte; timings are reported but live
outside the canonical byte-compared form.

Each protocol is one pass of one engine, _stack_columns, over the corpus cut
into stacks of functions on its one window: per stack it builds every operator
output from operators' cached multipliers, each T_k f and reading A by
apply_truncated on resolution_spec's window (one for every k, so the stack is
transformed once) and each g_j * f and reading B by apply_shell at the corpus
resolution, and takes their norm columns.  Every ratio follows one rule,
_ratios, and a stack's widest array holds at most STACK_CELLS cells.  The
lebesgue, besov_tl and l2_weak tables are RowTables over the live cells of a
ratio matrix, with no row object.

PROTOCOLS maps each check name to its run, in report order, and CSV_ROWS each
table of report.csv, in its order, to its rows' cells: a new check is one
PROTOCOLS entry plus one CSV_ROWS rule per table it puts in report.csv.
ReportWriter names no table.  A RowTable row's text around its entry and ratio
is cut from that row itself (_key_texts), so its JSON is canonical_dumps of the
row; each distinct entry and key is formatted once per file, each ratio once.
"""

import functools
import json
import logging
import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import index

import numpy as np

from .decomp import check_triple, norm_columns
from .field import FieldConfig, check_window, expect, is_int, q_power
from .functions import (TestFunction, _frozen, _is_real, check_level, lr_norms, refine,
                        weak_level_measures)
from .kernels import (atomic_decompose, h1_upper_bound, make_kernel, mean_zero_project,
                      sphere_cell_count, taibleson_terms)
from .operators import apply_shell, apply_truncated, check_atom, resolution_spec, tail_cutoff

log = logging.getLogger(__name__)

# exact invariants whose failure should fail a run; measured-constant
# checks (fitted constants, k-stability, proof-constant excesses) are
# informational and never affect exit status
EXACT_CHECK_NAMES = (
    "corpus_kernels_mean_zero",
    "taibleson_stabilization",
    "piece_bound_reading_b",
)

# most complex cells in one stacked array; bounds the peak memory of a stage
STACK_CELLS = 2**14

# per-k fitted constants pass k-stability iff their max/min stays below this
STABILITY_FACTOR = 4.0


def check_record(name: str, claimed, measured, passed) -> dict:
    """One check as reports and the CLI print it; passed None marks it informational.
    A non-finite measured value becomes a string ("inf"), so reports stay strict JSON."""
    if isinstance(measured, float) and not math.isfinite(measured):
        measured = str(measured)
    return {"name": name, "claimed": claimed, "measured": measured, "pass": passed}


# ---------------------------------------------------------------------------
# Corpus


@dataclass(frozen=True)
class Corpus:
    """Deterministic test inputs: locally constant functions plus kernels."""

    config: FieldConfig
    window: tuple
    functions: tuple
    kernels: tuple


def fixture_resolution(q: int) -> int:
    """The smallest kernel resolution whose sphere has at least two cells."""
    return 2 if q == 2 else 1


def _fixture_kernels(config: FieldConfig) -> list:
    # plus-minus fixture and the balanced two-ball atom, at fixture_resolution
    q = config.q
    m_fix = fixture_resolution(q)
    n = sphere_cell_count(config, m_fix)
    pm = np.zeros(n, dtype=np.complex128)
    pm[0], pm[1] = 1.0, -1.0
    bound = Fraction(q, q - 1)
    c = float(bound) if Fraction(float(bound)) == bound else 1.0
    balanced = np.zeros(n, dtype=np.complex128)
    balanced[0], balanced[1] = c, -c
    return [make_kernel(config, pm, m_fix), make_kernel(config, balanced, m_fix)]


def check_count(count) -> None:
    """Raise ValueError unless count, the number of corpus functions, is an int >= 1."""
    expect(is_int(count) and count >= 1, "an integer >= 1", count)


def check_corpus_window(window) -> None:
    """Raise ValueError unless window is a field.check_window pair with a <= 0 < l."""
    check_window(window)
    a, l = window
    if a > 0 or l < 1:
        raise ValueError(f"verify needs a <= 0 < l, so that the corpus window holds the unit ball "
                         f"and resolves the maximal ideal; got ({a},{l})")


def generate_corpus(config: FieldConfig, seed: int, count: int, window: tuple,
                    kernel_resolutions) -> Corpus:
    """count locally constant functions and fixture-plus-random kernels.

    Functions: the unit-ball and maximal-ideal indicators first, then
    pseudo-random values uniform in the complex unit square.  Kernels: the
    plus-minus fixture, the balanced two-ball atom, then one mean-zero
    projected random kernel per requested resolution.
    """
    check_count(count)
    check_corpus_window(window)
    a, l = window
    rng = np.random.default_rng(seed)
    # the indicator of P^s is the one-cell function 1 on the window (s, s)
    fixtures = [refine(TestFunction(config, s, s, np.ones(1)), a, l) for s in (0, 1)]
    functions = fixtures[:count]
    size = config.q ** (l - a)
    while len(functions) < count:
        vals = rng.random(size) + 1j * rng.random(size)
        functions.append(TestFunction(config, a, l, vals))
    kernels = _fixture_kernels(config)
    for m in kernel_resolutions:
        n = sphere_cell_count(config, m)
        draw = rng.random(n) + 1j * rng.random(n)
        kernels.append(mean_zero_project(make_kernel(config, draw, m)))
    return Corpus(config, (a, l), tuple(functions), tuple(kernels))


# ---------------------------------------------------------------------------
# Ratio protocols


@dataclass(frozen=True, eq=False)
class RowTable(Sequence):
    """A ratio table by column: row i is entries[entry[i]], keys[key[i]] and ratio[i].

    entries and keys (tuples of cells) are the distinct entry ids and column keys;
    entry, key (int64) and ratio (float64) are read-only, one value per row.  A row
    is [entry, *key, ratio], or with names a dict of those fields in that order,
    "entry" and "ratio" among them.  Rows are built on demand from the same cell
    objects, and a table equals the list of its rows.
    """

    entries: tuple
    keys: tuple
    entry: np.ndarray
    key: np.ndarray
    ratio: np.ndarray
    names: tuple = None

    def __post_init__(self):
        for name, dtype in (("entry", np.int64), ("key", np.int64), ("ratio", np.float64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def _row(self, entry, key, ratio):
        if self.names is None:
            return [entry, *key, ratio]
        cells = iter(key)
        return {name: entry if name == "entry" else ratio if name == "ratio" else next(cells)
                for name in self.names}

    def __len__(self) -> int:
        return self.ratio.size

    def __getitem__(self, i: int):
        i = index(i)
        return self._row(self.entries[self.entry[i]], self.keys[self.key[i]], float(self.ratio[i]))

    def __iter__(self):
        return map(self._row, map(self.entries.__getitem__, self.entry.tolist()),
                   map(self.keys.__getitem__, self.key.tolist()), self.ratio.tolist())

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, RowTable)) else NotImplemented


@dataclass(frozen=True)
class OperatorNormEstimate:
    """Measured ratios for one theorem protocol.

    ratio_table is a RowTable whose rows are [entry_id, k, param, ratio]:
    entry_id names the (function, kernel) pair and param is the integrability
    exponent or the [space, s, r, t] list.  Ratios are already normalized by
    the claimed q^{-k} h1 growth, so fitted_constant is the largest ratio.
    sups holds (k, param, sup) for each (k, param) that has rows: the largest
    ratio of those rows.
    """

    ratio_table: RowTable
    fitted_constant: float
    sups: tuple


def k_stability(estimate: OperatorNormEstimate, factor: float = STABILITY_FACTOR,
                param_filter=None) -> dict:
    """Spread of per-k fitted constants; pass iff max/min < factor."""
    sups = {}
    for k, param, sup in estimate.sups:
        if param_filter is None or param_filter(param):
            sups[k] = max(sups.get(k, 0.0), sup)
    positive = [v for v in sups.values() if v > 0]
    if positive and len(positive) < len(sups):
        spread = math.inf  # some k saw only zero ratios while others did not
    elif len(positive) < 2:
        spread = 1.0
    else:
        spread = max(positive) / min(positive)
    return {"per_k": {str(k): v for k, v in sorted(sups.items())}, "spread": spread,
            "factor": factor, "pass": spread < factor}


def check_lebesgue_exponent(r) -> None:
    """Raise ValueError unless r is a real with 1 < r <= the largest float."""
    if not (_is_real(r) and 1 < r <= sys.float_info.max):
        raise ValueError(f"Lebesgue exponent r = {r!r} must be a finite float > 1")


def check_srt(srt) -> None:
    """Raise ValueError unless srt is a check_triple with s > 0 and 1 < r, t <= the largest float."""
    check_triple(srt)
    s, r, t = srt
    if not (s > 0 and all(1 < x <= sys.float_info.max for x in (r, t))):
        raise ValueError(f"(s, r, t) = {(s, r, t)} must satisfy s > 0 and 1 < r, t, "
                         "all finite floats")


def check_truncation_level(q: int, k) -> None:
    """Raise ValueError unless q^-k, the protocols' growth factor, is a finite nonzero float."""
    # q >= 2, so q^-k is outside the floats once |k| > 1100, where q^|k| is never built
    try:
        if abs(k) <= 1100 and q_power(q, -k) > 0:
            return
    except OverflowError:
        pass
    raise ValueError(f"k = {k} makes q^-k = {q}^{-k} overflow or round to 0 as a float")


def _stack_columns(corpus: Corpus, a: int, columns_of) -> dict:
    """{(key, param): one value per corpus function}, from columns_of(stack), which yields
    (key, {param: one value per row}) for the stack (key None) and each operator output
    of a protocol.  Outputs lie on windows (a', l) with a' >= a (padded to (0, l) if
    a > 0), and a stack has as many rows as fit STACK_CELLS such cells, or one."""
    l = corpus.window[1]
    rows = max(1, STACK_CELLS // corpus.config.q ** (l - min(a, 0)))
    out = {}
    for i in range(0, len(corpus.functions), rows):
        stack = np.stack([f.values for f in corpus.functions[i:i + rows]])
        for key, columns in columns_of(TestFunction(corpus.config, *corpus.window, stack)):
            for param, column in columns.items():
                out.setdefault((key, param), []).extend(column)
    cols = {key: np.array(column) for key, column in out.items()}
    for (key, param), column in cols.items():
        if key is None and not column.all():  # those functions get no row in any table
            log.info("norm %s is 0 on corpus functions %s", param, np.flatnonzero(column == 0))
    return cols


def _ratios(num: np.ndarray, den: np.ndarray, scale=1.0) -> np.ndarray:
    """num / (scale * den) entrywise, the one ratio rule of every protocol: 0.0 where
    num is 0, even if scale underflows, and where den is 0, an entry no table emits."""
    return np.divide(num, scale * den, out=np.zeros(num.shape), where=(num != 0) & (den != 0))


def _row_table(entries, keys, ratios: np.ndarray, live: np.ndarray, names=None) -> RowTable:
    """The RowTable of the live cells of ratios, a matrix indexed [entry, key]: one row
    per live cell, entry-major."""
    entry, key = np.nonzero(live)
    return RowTable(tuple(entries), tuple(keys), entry, key, ratios[entry, key], names)


def _truncations(corpus: Corpus, k_list, g: TestFunction, norms_of):
    """columns_of for the theorem protocols: N(g), then N(T_k g) for every corpus
    kernel and k, all on resolution_spec's window, which does not depend on k."""
    yield None, norms_of(g)
    for ki, kern in enumerate(corpus.kernels):
        for k in k_list:
            yield (ki, k), norms_of(apply_truncated(g, kern, resolution_spec(g, k)))


def _theorem_rows(corpus: Corpus, k_list, params, cols: dict) -> OperatorNormEstimate:
    """Ratio-table rows [entry_id, k, param, ratio] over function x kernel x k x param:
    ratio = N(T_k f) / (q^{-k} h1(kernel) N(f)) for each norm N named in params,
    from the columns of _truncations; no row where N(f) = 0.  A tuple param is
    written as a list, one list per param for all its rows."""
    q, n, nk = corpus.config.q, len(corpus.functions), len(corpus.kernels)
    keys = [(k, pi) for k in k_list for pi in range(len(params))]
    # indexed [entry, key], entry f{i}.w{ki} at i * nk + ki
    ratios = np.moveaxis(np.array(
        [[_ratios(cols[(ki, k), params[pi]], cols[None, params[pi]], q_power(q, -k) * h1)
          for k, pi in keys] for ki, h1 in enumerate(map(h1_upper_bound, corpus.kernels))]
    ).reshape(nk, len(keys), n), 2, 0).reshape(n * nk, len(keys))
    live = np.array([cols[None, params[pi]] != 0 for _, pi in keys],
                    dtype=bool).reshape(len(keys), n).T[np.arange(n * nk) // nk]
    cells = [list(p) if isinstance(p, tuple) else p for p in params]
    sups = {}
    for (k, pi), sup, has_rows in zip(keys, ratios.max(axis=0, initial=0.0).tolist(),
                                      live.any(axis=0).tolist()):
        if has_rows:
            sups[k, pi] = max(sups.get((k, pi), 0.0), sup)
    table = _row_table([f"f{i}.w{ki}" for i in range(n) for ki in range(nk)],
                       [(k, cells[pi]) for k, pi in keys], ratios, live)
    return OperatorNormEstimate(table, max(sups.values(), default=0.0),
                                tuple((k, cells[pi], sup) for (k, pi), sup in sups.items()))


def check_lebesgue_theorem(corpus: Corpus, k_list, r_list) -> OperatorNormEstimate:
    """ratio = ||T_k f||_r / (q^{-k} h1(kernel) ||f||_r) for the full grid."""
    for r in r_list:
        check_lebesgue_exponent(r)

    def norms_of(g):
        return {r: lr_norms(g, r) for r in r_list}

    cols = _stack_columns(corpus, corpus.window[0] - 1,
                          lambda g: _truncations(corpus, k_list, g, norms_of))
    return _theorem_rows(corpus, k_list, r_list, cols)


def _first_atoms(corpus: Corpus) -> list:
    """(w{ki}.a0, its first atom) for each corpus kernel ki with atoms, checked once here."""
    return [(f"w{ki}.a0", check_atom(terms[0][1]))
            for ki, terms in enumerate(atomic_decompose(kern).terms for kern in corpus.kernels)
            if terms]


def check_besov_tl_theorem(corpus: Corpus, k_list, srt_list):
    """Theorem protocol in B- and F-norms plus the per-piece inequality.

    Returns (estimate, piece_rows).  Piece rows measure
    ||g_j * f||_F / ||f||_F for the decomposition atoms: reading B on the
    unit sphere at j = -1 (where both readings agree and the bound 1 is a
    theorem), reading A on the shells j = 0, 1 as measurements only.

    One Littlewood-Paley block stack serves every exponent triple: each
    stack of corpus functions, of T_k f and of piece convolutions g_j * f
    builds its blocks once (norm_columns), and piece stacks take F norms only.
    """
    for srt in srt_list:
        check_srt(srt)
    srt_list = [tuple(srt) for srt in srt_list]

    def norms_of(g, spaces="BF"):
        return {(space,) + srt: column
                for (space, srt), column in norm_columns(g, srt_list, spaces).items()}

    pieces = [(atom_id, atom, j) for atom_id, atom in _first_atoms(corpus) for j in (-1, 0, 1)]

    def columns_of(g):
        yield from _truncations(corpus, k_list, g, norms_of)
        for atom_id, atom, j in pieces:
            yield (atom_id, j), norms_of(apply_shell(g, atom, j), "F")

    cols = _stack_columns(corpus, min([corpus.window[0] - 1] + [-(j + 1) for *_, j in pieces]),
                          columns_of)
    params = [(space,) + srt for srt in srt_list for space in ("B", "F")]
    piece_rows = []
    for atom_id, _, j in pieces:
        for s, r, t in srt_list:
            ratios = _ratios(cols[(atom_id, j), ("F", s, r, t)], cols[None, ("F", s, r, t)])
            piece_rows.append({"atom": atom_id, "reading": "B" if j == -1 else "A", "j": j,
                               "s": s, "r": r, "t": t, "ratio": float(ratios.max(initial=0.0))})
    return _theorem_rows(corpus, k_list, params, cols), piece_rows


def _reading_b_weight(q: int, k: int, jmax: int) -> Fraction:
    """The sum of q^-(j+1) over j = k .. jmax, exactly; 0 when k > jmax."""
    q = Fraction(q)
    return (q ** -k - q ** -(jmax + 1)) / (q - 1) if k <= jmax else Fraction(0)


def check_l2_and_weak11(corpus: Corpus, k_list, lambda_list) -> dict:
    """Single-atom operator instrumentation against the explicit constants.

    For each decomposition atom and corpus function: the L2 ratio is
    normalized by q^{-k} (q-1)^{-1}, the weak-(1,1) quantity
    lam * |{|Bf| > lam}| / ||f||_1 by (1 + 4q); both under reading A
    (homogeneous shells, the operator actually applied) and reading B
    (literal unit-sphere pieces, the reading that matches the constant's
    derivation).  Values above 1 are excesses, reported as such.  Reading B
    is the unit-sphere piece's convolution times the geometric weight of k,
    so that convolution is built once per atom and stack.
    """
    for lam in lambda_list:
        check_level(lam)
    q, (a, l) = corpus.config.q, corpus.window
    atoms = _first_atoms(corpus)
    # the shells k .. tail_cutoff that reach resolution_spec's window (a - 1, l)
    weights = {k: complex(float(_reading_b_weight(q, k, tail_cutoff(a - 1, a)))) for k in k_list}
    levels = {lam: Fraction(lam) for lam in lambda_list}
    cell = Fraction(q) ** -l  # every output has resolution l
    labels = [("l2", 2.0)] + [("weak11", lam) for lam in lambda_list]

    @functools.cache
    def weak11(count, lam):  # one float per distinct (cell count, lam)
        return float(count * cell * levels[lam])

    def norms_of(bf):
        return {("l2", 2.0): lr_norms(bf, 2),
                **{("weak11", lam): list(map(weak11, counts, repeat(lam)))
                   for lam, counts in zip(lambda_list, weak_level_measures(bf, lambda_list))}}

    def columns_of(g):
        yield None, {1: lr_norms(g, 1), 2: lr_norms(g, 2)}
        for atom_id, atom in atoms:
            b = apply_shell(g, atom, -1)
            for k in k_list:
                a_k = apply_truncated(g, atom, resolution_spec(g, k))
                b_k = TestFunction(b.config, b.a, b.l, b.values * weights[k])
                yield (atom_id, k, "A"), norms_of(a_k)
                yield (atom_id, k, "B"), norms_of(b_k)

    cols = _stack_columns(corpus, a - 1, columns_of)
    l1, l2 = cols[None, 1], cols[None, 2]
    n = len(corpus.functions)
    # a function whose L1 or L2 norm is 0 has no row
    dens = {"l2": np.where(l1 != 0, l2, 0.0), "weak11": np.where(l2 != 0, l1, 0.0)}
    columns = [(k, reading, check, param) for k in k_list for reading in ("A", "B")
               for check, param in labels]
    # indexed [entry, key], entry {atom_id}.f{i} at atom * n + i
    ratios = np.moveaxis(np.array(
        [_ratios(cols[(atom_id, k, reading), (check, param)], dens[check],
                 q_power(q, -k) / (q - 1) if check == "l2" else 1 + 4 * q)
         for atom_id, _ in atoms for k, reading, check, param in columns]
    ).reshape(len(atoms), len(columns), n), 2, 1).reshape(len(atoms) * n, len(columns))
    worst = {("l2", "A"): 0.0, ("l2", "B"): 0.0, ("weak11", "A"): 0.0, ("weak11", "B"): 0.0}
    for (_, reading, check, _), sup in zip(columns, ratios.max(axis=0, initial=0.0).tolist()):
        worst[check, reading] = max(worst[check, reading], sup)
    live = np.array([dens[check] != 0 for _, _, check, _ in columns],
                    dtype=bool).reshape(len(columns), n).T[np.arange(len(atoms) * n) % n]
    rows = _row_table([f"{atom_id}.f{i}" for atom_id, _ in atoms for i in range(n)],
                      [(check, k, reading, param) for k, reading, check, param in columns],
                      ratios, live, ("check", "entry", "k", "reading", "param", "ratio"))
    records = [check_record(f"{check}_bound_reading_{reading.lower()}", 1.0, value,
                            value <= 1 + 1e-10) for (check, reading), value in worst.items()]
    return {"records": records, "rows": rows}


def check_taibleson_class(corpus: Corpus) -> dict:
    """Modulus of every corpus kernel, its stabilization, and operator norms.

    Finite-resolution kernels are locally constant, so the smoothness sum
    stabilizes exactly once the probe depth reaches the resolution: the
    term j = m, the first that must vanish, is exactly 0.0 for every unit
    shift, so depth m + 1 reads what depth m - 1 reads.  The
    table pairs each modulus with the kernel's measured L2 operator norm at
    k = 0 to document that the corpus satisfies both boundedness routes.
    """
    rows = []
    cols = _stack_columns(corpus, corpus.window[0] - 1,
                          lambda g: _truncations(corpus, [0], g, lambda h: {2: lr_norms(h, 2)}))
    for ki, kern in enumerate(corpus.kernels):
        j_stable = max(kern.m - 1, 1)
        # one pass to j = m, whose first j_stable columns are taibleson_modulus(kern,
        # j_stable)'s terms, bit for bit; the first vanishing term, j = m, must be
        # exactly 0.0 for every unit shift (for m = 1 it is the whole modulus)
        terms = taibleson_terms(kern, kern.m)
        rows.append({"kernel": f"w{ki}", "m": kern.m,
                     "modulus": max(math.fsum(row[:j_stable]) for row in terms),
                     "stabilizes_at": j_stable, "stabilized": not terms[:, -1].any(),
                     "h1_upper_bound": h1_upper_bound(kern),
                     "sup_l2_ratio_k0": float(_ratios(cols[(ki, 0), 2], cols[None, 2])
                                              .max(initial=0.0))})
    stable = [row["stabilized"] for row in rows]
    records = [check_record("taibleson_stabilization", 1.0, sum(stable) / max(len(rows), 1),
                            all(stable))]
    return {"records": records, "rows": rows}


# ---------------------------------------------------------------------------
# The protocol table: run(corpus, k_list, r_list, srt_list, lambda_list) -> (tables, records)


def _run_lebesgue(corpus, k_list, r_list, srt_list, lambda_list):
    estimate = check_lebesgue_theorem(corpus, k_list, r_list)
    stability = k_stability(estimate)
    return ({"lebesgue": estimate.ratio_table, "lebesgue_per_k": stability["per_k"]},
            [check_record("lebesgue_fitted_constant", None, estimate.fitted_constant, None),
             check_record("lebesgue_k_stability", STABILITY_FACTOR, stability["spread"],
                          stability["pass"])])


def _run_besov_tl(corpus, k_list, r_list, srt_list, lambda_list):
    estimate, piece_rows = check_besov_tl_theorem(corpus, k_list, srt_list)
    tables, records = {"besov_tl": estimate.ratio_table, "pieces": piece_rows}, []
    for space, name in (("B", "besov"), ("F", "triebel")):
        stability = k_stability(estimate, param_filter=lambda p, s=space: p[0] == s)
        tables[f"{name}_per_k"] = stability["per_k"]
        records.append(check_record(f"{name}_k_stability", STABILITY_FACTOR,
                                    stability["spread"], stability["pass"]))
    worst = {reading: max((row["ratio"] for row in piece_rows if row["reading"] == reading),
                          default=0.0) for reading in "AB"}
    return tables, records + [
        check_record("besov_tl_fitted_constant", None, estimate.fitted_constant, None),
        check_record("piece_bound_reading_b", 1.0, worst["B"], worst["B"] <= 1 + 1e-10),
        check_record("piece_bound_reading_a", None, worst["A"], None)]


def _run_l2_weak(corpus, k_list, r_list, srt_list, lambda_list):
    result = check_l2_and_weak11(corpus, k_list, lambda_list)
    return {"l2_weak": result["rows"]}, result["records"]


def _run_taibleson(corpus, k_list, r_list, srt_list, lambda_list):
    result = check_taibleson_class(corpus)
    return {"taibleson": result["rows"]}, result["records"]


# check name -> its run: the protocols a run may select, in report order
PROTOCOLS = {"lebesgue": _run_lebesgue, "besov_tl": _run_besov_tl, "l2_weak": _run_l2_weak,
             "taibleson": _run_taibleson}
CHECK_NAMES = tuple(PROTOCOLS)


# ---------------------------------------------------------------------------
# Report assembly

def canonical_dumps(obj) -> str:
    """The canonical JSON of every artifact: sorted keys, compact, strict (no NaN or inf)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


_float_repr = float.__repr__  # the one formatter of the row tables' ratios


def _csv_quoted(text: str) -> str:
    # a csv.writer field is quoted, its quotes doubled, iff it holds a comma, a quote or a newline
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_field(x) -> str:
    """x as a csv.writer field: None empty, a float by its repr, anything else by str."""
    return _csv_quoted("" if x is None else float.__repr__(x) if isinstance(x, float) else str(x))


def csv_text(rows) -> str:
    """The CSV of every artifact, as csv.writer writes it: each row of two or more
    fields one line, ended by a newline."""
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


# table name -> its row's report.csv cells (check, entry, k, param, ratio), in report.csv
# order; a table not named here is in report.json only
CSV_ROWS = {
    "lebesgue": lambda row: ("lebesgue", *row),
    "besov_tl": lambda row: ("besov_tl", row[0], row[1], "{}:{}:{}:{}".format(*row[2]), row[3]),
    "pieces": lambda row: ("piece", row["atom"], row["j"], "{reading}:{s}:{r}:{t}".format(**row),
                           row["ratio"]),
    "l2_weak": lambda row: (row["check"], row["entry"], row["k"],
                            "{reading}:{param}".format(**row), row["ratio"]),
    "taibleson": lambda row: ("taibleson", row["kernel"], row["m"], "modulus", row["modulus"]),
}

# what _key_texts puts in a row for its entry and its ratio, and its JSON
_MARK = "\0"
_MARK_JSON = json.dumps(_MARK)


def _key_texts(table: RowTable, rule) -> tuple:
    """The JSON and the CSV (head, middle, tail) of each key of table, a row with that key
    being head + entry + middle + ratio + tail, cut from the row with _MARK for its entry
    and ratio: its canonical_dumps split at _MARK's JSON, the head led by the comma between
    rows (the first row drops it), and its rule's key cells, each cell object formatted
    once (no CSV without a rule)."""
    rows = [table._row(_MARK, key, _MARK) for key in table.keys]
    cut = [canonical_dumps(row).split(_MARK_JSON) for row in rows]
    json_texts = [("," + head, middle, tail) for head, middle, tail in cut]
    if rule is None:
        return json_texts, None
    cells = [rule(row) for row in rows]  # holds every cell, so no two of them share an id
    distinct = {id(cell): cell for check, _, k, param, _ in cells for cell in (check, k, param)}
    text = {i: _csv_field(cell) for i, cell in distinct.items()}
    return json_texts, [(text[id(check)] + ",", f",{text[id(k)]},{text[id(param)]},", "\n")
                        for check, _, k, param, _ in cells]


# the rows joined into one string before it is written
_BLOCK = 4096


def _rows_text(table: RowTable, entries: list, keys: list, ratios: list, skip: int):
    """The table's rows in one file, head + entry + middle + ratio + tail, from the texts
    of its distinct entries and keys (head, middle, tail) and of its ratios, taken by
    index and joined once per block of rows; the first block drops skip characters."""
    entries = np.array(entries, dtype=object)
    head, middle, tail = np.array(keys, dtype=object).reshape(-1, 3).T
    for start in range(0, len(table), _BLOCK):
        rows = slice(start, start + _BLOCK)
        key = table.key[rows]
        flat = [""] * (5 * key.size)
        flat[0::5], flat[2::5], flat[4::5] = (part[key].tolist() for part in (head, middle, tail))
        flat[1::5] = entries[table.entry[rows]].tolist()
        flat[3::5] = ratios[rows]
        yield "".join(flat)[skip if start == 0 else 0:]


class ReportWriter:
    """The one pass from a VerificationReport to report.json and report.csv.

    A RowTable is written by _rows_text from the texts of its distinct entries and
    keys (_key_texts) and of its ratios (_float_repr, one text for both files); any
    other table by canonical_dumps and csv_text.  json_chunks is canonical_dumps of
    the payload, each RowTable as its rows, and csv_chunks the rows a csv.writer
    writes of the tables CSV_ROWS names, byte for byte.  Every text is made here,
    so a non-finite value is refused, with the stdlib's message, before either
    file is begun.
    """

    def __init__(self, report: "VerificationReport"):
        self._tables = tables = report.tables
        head = {"checks": list(report.checks), "config": report.config.to_dict(),
                "seed": report.seed}
        self._json_head = "{" + "".join(f'"{key}":{canonical_dumps(value)},'
                                        for key, value in head.items()) + '"tables":{'
        self._json = {}  # name -> its JSON text, or _rows_text's arguments for a RowTable
        self._csv = {}   # name -> _rows_text's arguments, for a RowTable with a CSV rule
        for name in sorted(tables):
            table = tables[name]
            if not isinstance(table, RowTable):
                self._json[name] = canonical_dumps(table)
                continue
            if not np.isfinite(table.ratio).all():  # refused with the stdlib's message
                canonical_dumps(table.ratio[~np.isfinite(table.ratio)].tolist())
            ratios = list(map(_float_repr, table.ratio.tolist()))
            json_keys, csv_keys = _key_texts(table, CSV_ROWS.get(name))
            self._json[name] = (table, list(map(canonical_dumps, table.entries)), json_keys,
                                ratios, 1)
            if csv_keys is not None:
                self._csv[name] = (table, list(map(_csv_field, table.entries)), csv_keys, ratios, 0)

    def json_chunks(self):
        """report.json: canonical_dumps of the report's timing-free payload, in pieces."""
        yield self._json_head
        for i, (name, part) in enumerate(self._json.items()):
            yield ("," if i else "") + canonical_dumps(name) + ":"
            if isinstance(part, str):
                yield part
            else:
                yield "["
                yield from _rows_text(*part)
                yield "]"
        yield "}}"

    def csv_chunks(self):
        """report.csv: one csv.writer row per table row, in CSV_ROWS order, in pieces."""
        yield csv_text([("check", "entry", "k", "param", "ratio")])
        for name, rule in CSV_ROWS.items():
            if name in self._csv:
                yield from _rows_text(*self._csv[name])
            else:
                yield csv_text(map(rule, self._tables.get(name, ())))


@dataclass(frozen=True)
class VerificationReport:
    """Everything one run measured, in deterministic order.

    canonical_json omits timings, which are the only nondeterministic
    content; byte-level reproducibility claims refer to that form.  Both
    it and to_csv are texts of one ReportWriter pass.
    """

    config: FieldConfig
    seed: int
    checks: tuple
    tables: dict
    timing_ms: dict

    def canonical_json(self) -> str:
        return "".join(ReportWriter(self).json_chunks())

    def to_csv(self) -> str:
        return "".join(ReportWriter(self).csv_chunks())


def _ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


DEFAULT_SRT_LIST = ((0.5, 2.0, 2.0), (0.5, 1.5, 3.0), (0.5, 3.0, 1.5),
                    (1.0, 2.0, 2.0), (1.0, 1.5, 3.0), (1.0, 3.0, 1.5))


def run_verification(config: FieldConfig = FieldConfig("padic", 2), seed: int = 42,
                     count: int = 50, window: tuple = (-3, 3), kernel_resolutions=(2, 3, 4),
                     k_list=(-3, -2, -1, 0), r_list=(1.5, 2.0, 3.0),
                     srt_list=DEFAULT_SRT_LIST, lambda_list=(0.5, 1.0, 4.0),
                     checks=CHECK_NAMES) -> VerificationReport:
    """Full harness: the corpus, then each protocol of PROTOCOLS named in checks, timed."""
    timing = {}
    t0 = time.perf_counter()
    corpus = generate_corpus(config, seed, count, window, kernel_resolutions)
    timing["corpus"] = _ms(t0)

    records = [check_record(
        "corpus_kernels_mean_zero", 1.0,
        sum(k.is_mean_zero for k in corpus.kernels) / len(corpus.kernels),
        all(k.is_mean_zero for k in corpus.kernels))]
    tables = {}
    for name, run in PROTOCOLS.items():
        if name in checks:
            t0 = time.perf_counter()
            its_tables, its_records = run(corpus, k_list, r_list, srt_list, lambda_list)
            timing[name] = _ms(t0)
            tables.update(its_tables)
            records += its_records
    return VerificationReport(config, seed, tuple(records), tables, timing)


def exact_checks_pass(report: VerificationReport) -> bool:
    by_name = {c["name"]: c for c in report.checks}
    return all(by_name[name]["pass"] for name in EXACT_CHECK_NAMES if name in by_name)
