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

The protocols loop over kernel and k and take the corpus, which shares one
window, as stacks of functions: each T_k f, piece convolution and norm runs
once per stack.  Every T_k f is measured on operators.resolution_spec's
window, and every shell piece is taken at the corpus resolution
(kernels.shell_piece averages a finer one), so no row is finer than the
corpus.  A stack's widest array holds at most STACK_CELLS cells,
which bounds peak memory; rows are emitted function by function as before.
"""

import csv
import io
import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, starmap
from operator import itemgetter

import numpy as np

from .decomp import check_triple, norm_columns
from .field import Ball, FieldConfig, FieldElement, check_window, expect, is_int, q_power
from .functions import (
    TestFunction,
    _is_real,
    check_level,
    convolve,
    from_indicator_combo,
    lr_norms,
    refine,
    weak_level_measures,
)
from .kernels import (
    AngularKernel,
    atomic_decompose,
    h1_upper_bound,
    make_kernel,
    mean_zero_project,
    shell_piece,
    sphere_cell_count,
    taibleson_modulus,
    taibleson_terms,
)
from .operators import (TruncationSpec, apply_atom_operator, apply_truncated, resolution_spec,
                        tail_cutoff)

log = logging.getLogger(__name__)

# the protocols a run may select, in report order
CHECK_NAMES = ("lebesgue", "besov_tl", "l2_weak", "taibleson")

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
    zero = FieldElement.zero(config)
    fixtures = [
        refine(from_indicator_combo(config, [(1.0, Ball(zero, 0))]), a, l),
        refine(from_indicator_combo(config, [(1.0, Ball(zero, 1))]), a, l),
    ]
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


@dataclass(frozen=True)
class OperatorNormEstimate:
    """Measured ratios for one theorem protocol.

    ratio_table rows are (entry_id, k, param, ratio) where entry_id names
    the (function, kernel) pair and param is the integrability exponent or
    the (space, s, r, t) tuple.  Ratios are already normalized by the
    claimed q^{-k} h1 growth, so fitted_constant is the largest ratio.
    """

    ratio_table: tuple
    fitted_constant: float


def k_stability(estimate: OperatorNormEstimate, factor: float = STABILITY_FACTOR,
                param_filter=None) -> dict:
    """Spread of per-k fitted constants; pass iff max/min < factor."""
    sups = {}
    for _, k, param, ratio in estimate.ratio_table:
        if param_filter is None or param_filter(param):
            sups[k] = max(sups.get(k, 0.0), ratio)
    positive = [v for v in sups.values() if v > 0]
    if positive and len(positive) < len(sups):
        spread = math.inf  # some k saw only zero ratios while others did not
    elif len(positive) < 2:
        spread = 1.0
    else:
        spread = max(positive) / min(positive)
    return {
        "per_k": {str(k): v for k, v in sorted(sups.items())},
        "spread": spread,
        "factor": factor,
        "pass": spread < factor,
    }


def _entry_id(fi: int, ki: int) -> str:
    return f"f{fi}.w{ki}"


def _estimate(rows) -> OperatorNormEstimate:
    return OperatorNormEstimate(tuple(rows), max((row[3] for row in rows), default=0.0))


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


def _by_row(corpus: Corpus, window: tuple, columns_of) -> dict:
    """columns_of(stack), {key: one value per row}, joined over the corpus stacks.

    window (a, l), padded to (0, l) if a > 0, bounds every array columns_of
    builds per row; a stack has as many rows as fit STACK_CELLS cells, or one.
    """
    a, l = window
    rows = max(1, STACK_CELLS // corpus.config.q ** (l - min(a, 0)))
    out = {}
    for i in range(0, len(corpus.functions), rows):
        stack = np.stack([f.values for f in corpus.functions[i:i + rows]])
        for key, column in columns_of(TestFunction(corpus.config, *corpus.window, stack)).items():
            out.setdefault(key, []).extend(column)
    return out


def _ratio_rows(corpus: Corpus, k_list, params, norms_f, norms_of) -> list:
    """Ratio-table rows (entry_id, k, param, ratio) over function x kernel x k.

    ratio = N(T_k f) / (q^{-k} h1(kernel) N(f)) for each norm N named in
    params, in that order: norms_f maps each param to N(f) of every corpus
    function, and norms_of(stack) maps it to N(T_k f) of every row.
    Entries with N(f) = 0 are skipped.
    """
    q = corpus.config.q
    h1s = [h1_upper_bound(kern) for kern in corpus.kernels]
    norms_tkf = {}
    for ki, kern in enumerate(corpus.kernels):
        for k in k_list:
            spec = resolution_spec(corpus.functions[0], k)
            norms_tkf[ki, k] = _by_row(corpus, (spec.out_a, spec.out_l),
                                       lambda g: norms_of(apply_truncated(g, kern, spec)))
    rows = []
    for fi in range(len(corpus.functions)):
        for ki in range(len(corpus.kernels)):
            for k in k_list:
                scale = q_power(q, -k) * h1s[ki]
                for param in params:
                    nf = norms_f[param][fi]
                    if nf == 0:
                        log.info("skipping degenerate entry %s: norm %s of f is 0",
                                 _entry_id(fi, ki), param)
                        continue
                    num = norms_tkf[ki, k][param][fi]
                    ratio = 0.0 if num == 0 else num / (scale * nf)
                    rows.append((_entry_id(fi, ki), k, param, ratio))
    return rows


def check_lebesgue_theorem(corpus: Corpus, k_list, r_list) -> OperatorNormEstimate:
    """ratio = ||T_k f||_r / (q^{-k} h1(kernel) ||f||_r) for the full grid."""
    for r in r_list:
        check_lebesgue_exponent(r)

    def norms_of(g):
        return {r: lr_norms(g, r) for r in r_list}

    norms_f = _by_row(corpus, corpus.window, norms_of)
    return _estimate(_ratio_rows(corpus, k_list, r_list, norms_f, norms_of))


def _first_atoms(corpus: Corpus) -> list:
    atoms = []
    for ki, kern in enumerate(corpus.kernels):
        terms = atomic_decompose(kern).terms
        if terms:
            atoms.append((f"w{ki}.a0", terms[0][1]))
    return atoms


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

    norms_f = _by_row(corpus, corpus.window, norms_of)
    params = [(space,) + srt for srt in srt_list for space in ("B", "F")]
    rows = _ratio_rows(corpus, k_list, params, norms_f, norms_of)

    f_keys = [("F",) + srt for srt in srt_list]
    a, l = corpus.window
    piece_rows = []
    for atom_id, atom in _first_atoms(corpus):
        for j in (-1, 0, 1):
            reading, piece = "B" if j == -1 else "A", shell_piece(atom, j, l)
            ng = _by_row(corpus, (min(piece.a, a), l),
                         lambda g: norms_of(convolve(piece, g), "F"))
            worst = [max([0.0] + [num / nf for num, nf in zip(ng[key], norms_f[key]) if nf != 0])
                     for key in f_keys]
            piece_rows.extend(
                {"atom": atom_id, "reading": reading, "j": j,
                 "s": s, "r": r, "t": t, "ratio": ratio}
                for (s, r, t), ratio in zip(srt_list, worst)
            )
    return _estimate(rows), piece_rows


def _reading_b_weight(q: int, k: int, jmax: int) -> Fraction:
    """The sum of q^-(j+1) over j = k .. jmax, exactly; 0 when k > jmax."""
    q = Fraction(q)
    return (q ** -k - q ** -(jmax + 1)) / (q - 1) if k <= jmax else Fraction(0)


def _reading_b_operator(f: TestFunction, atom: AngularKernel, spec: TruncationSpec) -> TestFunction:
    # literal unit-sphere pieces make the dyadic sum a geometric scalar
    weight = _reading_b_weight(f.config.q, spec.k, tail_cutoff(spec.out_a, f.a))
    out = convolve(shell_piece(atom, -1, f.l), f)
    return TestFunction(out.config, out.a, out.l, out.values * complex(float(weight)))


def check_l2_and_weak11(corpus: Corpus, k_list, lambda_list) -> dict:
    """Single-atom operator instrumentation against the explicit constants.

    For each decomposition atom and corpus function: the L2 ratio is
    normalized by q^{-k} (q-1)^{-1}, the weak-(1,1) quantity
    lam * |{|Bf| > lam}| / ||f||_1 by (1 + 4q); both under reading A
    (homogeneous shells, the operator actually applied) and reading B
    (literal unit-sphere pieces, the reading that matches the constant's
    derivation).  Values above 1 are excesses, reported as such.
    """
    for lam in lambda_list:
        check_level(lam)
    q = corpus.config.q
    norms_f = _by_row(corpus, corpus.window, lambda g: {r: lr_norms(g, r) for r in (1, 2)})
    rows = []
    worst = {("l2", "A"): 0.0, ("l2", "B"): 0.0, ("weak11", "A"): 0.0, ("weak11", "B"): 0.0}
    for atom_id, atom in _first_atoms(corpus):
        def columns_of(g, spec):
            # key (reading, None) holds the L2 norms, (reading, lam) the level measures
            bfs = {"A": apply_atom_operator(g, atom, spec), "B": _reading_b_operator(g, atom, spec)}
            return {(reading, lam): lr_norms(bf, 2) if lam is None else weak_level_measures(bf, lam)
                    for reading, bf in bfs.items() for lam in (None, *lambda_list)}

        by_k = {}
        for k in k_list:
            spec = resolution_spec(corpus.functions[0], k)
            # the window covers T_k f and the reading-B convolution on (min(a, 0), l)
            by_k[k] = _by_row(corpus, (spec.out_a, spec.out_l), lambda g: columns_of(g, spec))
        for fi, (l1_f, l2_f) in enumerate(zip(norms_f[1], norms_f[2])):
            if l2_f == 0 or l1_f == 0:
                log.info("skipping zero corpus function %d", fi)
                continue
            for k in k_list:
                cols = by_k[k]
                for reading in ("A", "B"):
                    # a zero numerator gives 0.0, as in _ratio_rows, even if q^-k underflows
                    l2 = cols[reading, None][fi]
                    claimed_l2 = q_power(q, -k) / (q - 1)
                    measured = [("l2", 2.0, 0.0 if l2 == 0 else l2 / (claimed_l2 * l2_f))] + [
                        ("weak11", lam,
                         float(cols[reading, lam][fi] * Fraction(lam)) / (l1_f * (1 + 4 * q)))
                        for lam in lambda_list
                    ]
                    for check, param, ratio in measured:
                        worst[(check, reading)] = max(worst[(check, reading)], ratio)
                        rows.append({"check": check, "entry": f"{atom_id}.f{fi}", "k": k,
                                     "reading": reading, "param": param, "ratio": ratio})
    records = [
        check_record(f"{check}_bound_reading_{reading.lower()}", 1.0, value, value <= 1 + 1e-10)
        for (check, reading), value in sorted(worst.items())
    ]
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
    all_stable = True
    norms_f = _by_row(corpus, corpus.window, lambda g: {2: lr_norms(g, 2)})
    for ki, kern in enumerate(corpus.kernels):
        j_stable = max(kern.m - 1, 1)
        modulus = taibleson_modulus(kern, j_stable)
        # the first vanishing term, j = m, must be exactly 0.0 for every unit shift;
        # for m = 1 it is the whole modulus
        stabilized = not taibleson_terms(kern, kern.m)[:, -1].any()
        all_stable = all_stable and stabilized
        spec = resolution_spec(corpus.functions[0], 0)
        norms_tkf = _by_row(corpus, (spec.out_a, spec.out_l),
                            lambda g: {2: lr_norms(apply_truncated(g, kern, spec), 2)})
        sup_l2 = max([0.0] + [num / nf for num, nf in zip(norms_tkf[2], norms_f[2]) if nf != 0])
        rows.append(
            {
                "kernel": f"w{ki}",
                "m": kern.m,
                "modulus": modulus,
                "stabilizes_at": j_stable,
                "stabilized": stabilized,
                "h1_upper_bound": h1_upper_bound(kern),
                "sup_l2_ratio_k0": sup_l2,
            }
        )
    stable_share = sum(r["stabilized"] for r in rows) / max(len(rows), 1)
    records = [check_record("taibleson_stabilization", 1.0, stable_share, all_stable)]
    return {"records": records, "rows": rows}


# ---------------------------------------------------------------------------
# Report assembly

def canonical_dumps(obj) -> str:
    """The canonical JSON of every artifact: sorted keys, compact, strict (no NaN or inf)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def csv_text(rows) -> str:
    """The CSV of every artifact: one line per row, each ended by a newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class VerificationReport:
    """Everything one run measured, in deterministic order.

    canonical_json omits timings, which are the only nondeterministic
    content; byte-level reproducibility claims refer to that form.
    """

    config: FieldConfig
    seed: int
    checks: tuple
    tables: dict
    timing_ms: dict

    def canonical_json(self) -> str:
        payload = {
            "config": self.config.to_dict(),
            "seed": self.seed,
            "checks": list(self.checks),
            "tables": self.tables,
        }
        return canonical_dumps(payload)

    def csv_rows(self) -> list:
        def columns(name, *keys):
            table = self.tables.get(name, [])
            return [map(itemgetter(key), table) for key in keys]

        entry, k, param, ratio = columns("besov_tl", 0, 1, 2, 3)
        atom, j, reading, s, r, t, piece_ratio = columns(
            "pieces", "atom", "j", "reading", "s", "r", "t", "ratio")
        return [
            ("check", "entry", "k", "param", "ratio"),
            *zip(repeat("lebesgue"), *columns("lebesgue", 0, 1, 2, 3)),
            *zip(repeat("besov_tl"), entry, k, starmap("{}:{}:{}:{}".format, param), ratio),
            *zip(repeat("piece"), atom, j, map("{}:{}:{}:{}".format, reading, s, r, t),
                 piece_ratio),
            *zip(*columns("l2_weak", "check", "entry", "k"),
                 map("{}:{}".format, *columns("l2_weak", "reading", "param")),
                 *columns("l2_weak", "ratio")),
            *zip(repeat("taibleson"), *columns("taibleson", "kernel", "m"), repeat("modulus"),
                 *columns("taibleson", "modulus")),
        ]

    def to_csv(self) -> str:
        return csv_text(self.csv_rows())


def _ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


DEFAULT_SRT_LIST = ((0.5, 2.0, 2.0), (0.5, 1.5, 3.0), (0.5, 3.0, 1.5),
                    (1.0, 2.0, 2.0), (1.0, 1.5, 3.0), (1.0, 3.0, 1.5))


def run_verification(config: FieldConfig = FieldConfig("padic", 2), seed: int = 42,
                     count: int = 50, window: tuple = (-3, 3), kernel_resolutions=(2, 3, 4),
                     k_list=(-3, -2, -1, 0), r_list=(1.5, 2.0, 3.0),
                     srt_list=DEFAULT_SRT_LIST, lambda_list=(0.5, 1.0, 4.0),
                     checks=CHECK_NAMES) -> VerificationReport:
    """Full harness: corpus, selected protocols, stability verdicts, timings."""
    timing = {}
    t0 = time.perf_counter()
    corpus = generate_corpus(config, seed, count, window, kernel_resolutions)
    timing["corpus"] = _ms(t0)

    records = [check_record(
        "corpus_kernels_mean_zero", 1.0,
        sum(k.is_mean_zero for k in corpus.kernels) / len(corpus.kernels),
        all(k.is_mean_zero for k in corpus.kernels))]
    tables = {}

    if "lebesgue" in checks:
        t0 = time.perf_counter()
        lebesgue = check_lebesgue_theorem(corpus, k_list, r_list)
        stability = k_stability(lebesgue)
        timing["lebesgue"] = _ms(t0)
        tables["lebesgue"] = [list(row) for row in lebesgue.ratio_table]
        tables["lebesgue_per_k"] = stability["per_k"]
        records.append(check_record("lebesgue_fitted_constant", None,
                                    lebesgue.fitted_constant, None))
        records.append(check_record("lebesgue_k_stability", STABILITY_FACTOR,
                                    stability["spread"], stability["pass"]))

    if "besov_tl" in checks:
        t0 = time.perf_counter()
        besov_tl, piece_rows = check_besov_tl_theorem(corpus, k_list, srt_list)
        timing["besov_tl"] = _ms(t0)
        tables["besov_tl"] = [
            [entry, k, list(param), ratio] for entry, k, param, ratio in besov_tl.ratio_table
        ]
        tables["pieces"] = piece_rows
        for space, name in (("B", "besov"), ("F", "triebel")):
            stability = k_stability(besov_tl, param_filter=lambda p, s=space: p[0] == s)
            tables[f"{name}_per_k"] = stability["per_k"]
            records.append(check_record(f"{name}_k_stability", STABILITY_FACTOR,
                                        stability["spread"], stability["pass"]))
        records.append(check_record("besov_tl_fitted_constant", None,
                                    besov_tl.fitted_constant, None))
        reading_b = max((r["ratio"] for r in piece_rows if r["reading"] == "B"), default=0.0)
        reading_a = max((r["ratio"] for r in piece_rows if r["reading"] == "A"), default=0.0)
        records.append(check_record("piece_bound_reading_b", 1.0, reading_b,
                                    reading_b <= 1 + 1e-10))
        records.append(check_record("piece_bound_reading_a", None, reading_a, None))

    if "l2_weak" in checks:
        t0 = time.perf_counter()
        l2_weak = check_l2_and_weak11(corpus, k_list, lambda_list)
        timing["l2_weak"] = _ms(t0)
        tables["l2_weak"] = l2_weak["rows"]
        records.extend(l2_weak["records"])

    if "taibleson" in checks:
        t0 = time.perf_counter()
        taib = check_taibleson_class(corpus)
        timing["taibleson"] = _ms(t0)
        tables["taibleson"] = taib["rows"]
        records.extend(taib["records"])

    return VerificationReport(config, seed, tuple(records), tables, timing)


def exact_checks_pass(report: VerificationReport) -> bool:
    by_name = {c["name"]: c for c in report.checks}
    return all(
        by_name[name]["pass"] for name in EXACT_CHECK_NAMES if name in by_name
    )
