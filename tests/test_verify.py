"""Verification harness: corpus determinism, ratio protocols, report plumbing."""

import collections
import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from localfield import cli, decomp, kernels, operators, verify
from localfield.field import Ball, FieldConfig, FieldElement, Window
from localfield.functions import (
    TestFunction,
    convolve,
    from_indicator_combo,
    lr_norm,
    max_difference,
    refine,
)
from localfield.kernels import (
    atomic_decompose,
    h1_upper_bound,
    make_kernel,
    mean_zero_project,
    shell_piece,
    sphere_cell_count,
)
from localfield.operators import (
    TruncationSpec,
    apply_atom_operator,
    apply_truncated,
    resolution_spec,
    shell_multiplier,
    tail_cutoff,
    truncation_kernel,
    truncation_multiplier,
)
from localfield.verify import (
    Corpus,
    OperatorNormEstimate,
    ReportWriter,
    VerificationReport,
    _reading_b_weight,
    canonical_dumps,
    check_besov_tl_theorem,
    check_l2_and_weak11,
    check_lebesgue_theorem,
    check_taibleson_class,
    exact_checks_pass,
    generate_corpus,
    k_stability,
    run_verification,
)

from util import (
    CONFIGS,
    UnaveragedRoute,
    add_functions,
    kernel_resolution_spec,
    naive_truncated,
    per_function_l2_weak,
    per_function_lebesgue,
    per_function_taibleson_l2,
    per_row_csv,
    report_payload,
    row_table,
    row_sups,
    scalar_multiple,
    seed42_corpus,
    single_norm_besov_tl,
    with_row_tables,
)

Q2 = FieldConfig("padic", 2)
L3 = FieldConfig("laurent", 3)


def small_corpus(config=Q2, count=3, window=(-2, 2), resolutions=(2,), seed=42):
    return generate_corpus(config, seed, count, window, resolutions)


def with_functions(corpus, functions):
    return Corpus(corpus.config, corpus.window, tuple(functions), corpus.kernels)


def with_kernels(corpus, kernels):
    return Corpus(corpus.config, corpus.window, corpus.functions, tuple(kernels))


# ---------------------------------------------------------------------------
# corpus


def test_corpus_deterministic_regeneration():
    for config in (Q2, L3):
        c1 = generate_corpus(config, 7, 6, (-2, 2), (2, 3))
        c2 = generate_corpus(config, 7, 6, (-2, 2), (2, 3))
        assert (c1.config, c1.window, len(c1.functions), len(c1.kernels)) == \
            (c2.config, c2.window, len(c2.functions), len(c2.kernels))
        for f1, f2 in zip(c1.functions, c2.functions):
            assert np.array_equal(f1.values, f2.values)
        for k1, k2 in zip(c1.kernels, c2.kernels):
            assert k1.m == k2.m and np.array_equal(k1.values, k2.values)
    c3 = generate_corpus(Q2, 8, 6, (-2, 2), (2, 3))
    assert not np.array_equal(c3.functions[2].values,
                              generate_corpus(Q2, 7, 6, (-2, 2), (2, 3)).functions[2].values)


def test_corpus_count_fixtures_and_mean_zero():
    corpus = generate_corpus(Q2, 42, 5, (-2, 2), (2, 3, 4))
    assert len(corpus.functions) == 5
    assert len(corpus.kernels) == 5  # two fixtures plus one per resolution
    unit = refine(from_indicator_combo(Q2, [(1.0, Ball(FieldElement.zero(Q2), 0))]), -2, 2)
    ideal = refine(from_indicator_combo(Q2, [(1.0, Ball(FieldElement.zero(Q2), 1))]), -2, 2)
    assert np.array_equal(corpus.functions[0].values, unit.values)
    assert np.array_equal(corpus.functions[1].values, ideal.values)
    assert all(k.is_mean_zero for k in corpus.kernels)
    assert all(f.a == -2 and f.l == 2 for f in corpus.functions)


def test_corpus_rejections():
    with pytest.raises(ValueError):
        generate_corpus(Q2, 42, 0, (-2, 2), (2,))
    with pytest.raises(ValueError):
        generate_corpus(Q2, 42, 3, (1, 2), (2,))
    with pytest.raises(ValueError):
        generate_corpus(Q2, 42, 3, (-2, 0), (2,))


# ---------------------------------------------------------------------------
# Lebesgue protocol


def test_lebesgue_rejects_endpoint_exponents():
    corpus = small_corpus()
    for bad in (1.0, 0.5, math.inf, "2", True):
        with pytest.raises(ValueError):
            check_lebesgue_theorem(corpus, [0], [bad])


def test_lebesgue_zero_kernel_rows_vanish():
    corpus = small_corpus()
    zero = make_kernel(Q2, np.zeros(sphere_cell_count(Q2, 2)), 2)
    corpus = with_kernels(corpus, list(corpus.kernels) + [zero])
    est = check_lebesgue_theorem(corpus, [-1, 0], [2.0])
    zero_id = f"w{len(corpus.kernels) - 1}"
    zero_rows = [row for row in est.ratio_table if row[0].endswith(zero_id)]
    assert zero_rows and all(row[3] == 0.0 for row in zero_rows)
    assert est.fitted_constant == max(row[3] for row in est.ratio_table)
    assert all(row[3] >= 0 for row in est.ratio_table)


def test_lebesgue_fixture_ratios_match_naive_oracle():
    corpus = small_corpus(count=2)  # exactly the two indicator fixtures
    est = check_lebesgue_theorem(corpus, [-1, 0], [2.0])
    table = {(row[0], row[1]): row[3] for row in est.ratio_table}
    from localfield.kernels import h1_upper_bound
    for fi, f in enumerate(corpus.functions):
        for ki, kern in enumerate(corpus.kernels):
            h1 = h1_upper_bound(kern)
            for k in (-1, 0):
                spec = kernel_resolution_spec(f, kern.m, k)
                oracle = naive_truncated(f, kern, spec)
                denom = float(Fraction(Q2.q) ** (-k)) * h1 * lr_norm(f, 2)
                want = lr_norm(oracle, 2) / denom
                got = table[(f"f{fi}.w{ki}", k)]
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_lebesgue_ratio_invariant_under_scaling():
    corpus = small_corpus(count=3)
    est = check_lebesgue_theorem(corpus, [0], [1.5, 2.0])
    scaled_f = with_functions(
        corpus, [scalar_multiple(f, 5.0) for f in corpus.functions]
    )
    est_f = check_lebesgue_theorem(scaled_f, [0], [1.5, 2.0])
    for row, row_f in zip(est.ratio_table, est_f.ratio_table):
        assert row_f[3] == pytest.approx(row[3], rel=1e-12)

    # kernel scaling cancels through the h1 bound in the non-atom regime
    base = make_kernel(Q2, [4.0, -4.0], 2)
    scaled = make_kernel(Q2, [20.0, -20.0], 2)
    est_k = check_lebesgue_theorem(with_kernels(corpus, [base]), [0], [2.0])
    est_k5 = check_lebesgue_theorem(with_kernels(corpus, [scaled]), [0], [2.0])
    for row, row5 in zip(est_k.ratio_table, est_k5.ratio_table):
        assert row5[3] == pytest.approx(row[3], rel=1e-12)


def estimate_of(rows):
    return OperatorNormEstimate(rows, max(row[3] for row in rows), row_sups(rows))


def test_k_stability_summaries():
    est = estimate_of([["f0.w0", -1, 2.0, 0.5], ["f0.w0", 0, 2.0, 1.0], ["f1.w0", 0, 2.0, 0.9]])
    stab = k_stability(est, 4.0)
    assert stab["per_k"] == {"-1": 0.5, "0": 1.0}
    assert stab["spread"] == 2.0 and stab["pass"]
    assert not k_stability(est, 2.0)["pass"]
    single = estimate_of([["f0.w0", 0, 2.0, 0.7]])
    assert k_stability(single)["spread"] == 1.0
    dead_k = estimate_of([["f0.w0", 0, 2.0, 0.7], ["f0.w0", 1, 2.0, 0.0]])
    assert k_stability(dead_k)["spread"] == math.inf


def test_telescoping_shells_between_truncations():
    # T_k f - T_{k+1} f is exactly the weight-q^{-(k+1)} shell convolution
    from localfield.functions import convolve

    corpus = small_corpus(count=3)
    f = corpus.functions[2]
    kern = corpus.kernels[2]
    for k in (-2, -1, 0):
        spec = TruncationSpec(k, f.a - 1, max(f.l, kern.m - (k + 1), f.a - 1))
        spec_up = TruncationSpec(k + 1, spec.out_a, spec.out_l)
        t_low = apply_truncated(f, kern, spec)
        t_high = apply_truncated(f, kern, spec_up)
        diff = add_functions(t_low, scalar_multiple(t_high, -1.0))
        weight = float(Fraction(Q2.q) ** (-(k + 1)))
        shell = scalar_multiple(convolve(shell_piece(kern, k), f), weight)
        assert max_difference(diff, shell) <= 1e-12


# ---------------------------------------------------------------------------
# Besov / TL protocol


def test_besov_tl_rejects_bad_parameters():
    corpus = small_corpus()
    for bad in [(0.0, 2.0, 2.0), (0.5, 1.0, 2.0), (0.5, 2.0, math.inf), ("a", 2.0, 2.0),
                (0.5, 2.0), 0.5]:
        with pytest.raises(ValueError):
            check_besov_tl_theorem(corpus, [0], [bad])


def test_besov_tl_f_equals_b_at_matching_exponents():
    corpus = small_corpus(count=4)
    est, _ = check_besov_tl_theorem(corpus, [-1, 0], [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0)])
    by_key = {}
    for entry, k, param, ratio in est.ratio_table:
        by_key[(entry, k, tuple(param))] = ratio
    for (entry, k, param), ratio in by_key.items():
        space, s, r, t = param
        if space == "B" and r == t:
            assert ratio == pytest.approx(by_key[(entry, k, ("F", s, r, t))], rel=1e-10)


def test_besov_tl_zero_kernel_and_piece_readings():
    corpus = small_corpus(count=3)
    zero = make_kernel(Q2, np.zeros(sphere_cell_count(Q2, 2)), 2)
    est, pieces = check_besov_tl_theorem(
        with_kernels(corpus, list(corpus.kernels) + [zero]), [0], [(0.5, 2.0, 2.0)]
    )
    zero_rows = [r for r in est.ratio_table if r[0].endswith("w3")]
    assert zero_rows and all(r[3] == 0.0 for r in zero_rows)
    readings = {(p["reading"], p["j"]) for p in pieces}
    assert readings == {("B", -1), ("A", 0), ("A", 1)}
    assert all(p["ratio"] <= 1 + 1e-10 for p in pieces if p["reading"] == "B")
    assert all(p["ratio"] >= 0 for p in pieces)


def test_piece_bound_reading_a_can_exceed_one():
    # homogeneous extension across a growing shell carries L1 mass q^{j+1};
    # the unit-sphere bound genuinely fails under reading A at j >= 0
    corpus = small_corpus(count=3)
    _, pieces = check_besov_tl_theorem(corpus, [0], [(0.5, 2.0, 2.0)])
    a_ratios = [p["ratio"] for p in pieces if p["reading"] == "A" and p["j"] == 1]
    assert max(a_ratios) > 1


# corpora whose protocols the stacked route must reproduce bit for bit: the
# generated one (plus a zero function), one on a window with a > 0, whose
# blocks are padded to scale 0, and one on a window with l = 0, whose
# functions have a single Littlewood-Paley block; then three edge cases on
# the generated window: an empty k list, kernels that yield no atom (all
# zero), and functions that are all zero
STACK_WINDOWS = {"generated": None, "padded": (1, 3), "single_block": (-2, 0),
                 "no_k": None, "no_atoms": None, "all_zero": None}

# the cases whose l2_weak table has no row
NO_L2_WEAK_ROWS = ("no_k", "no_atoms", "all_zero")


def stack_corpus(config, case):
    corpus = small_corpus(config, count=3, window=(-1, 2) if config.q == 3 else (-2, 2))
    window = STACK_WINDOWS[case] or corpus.window
    if case == "all_zero":
        return with_functions(corpus, [TestFunction.zero(config, *window)] * 5)
    rng = np.random.default_rng(7)
    functions = list(corpus.functions) if STACK_WINDOWS[case] is None else [
        random_function(rng, config, *window) for _ in range(3)]
    functions.append(TestFunction.zero(config, *window))
    functions.append(random_function(rng, config, *window))
    kernels = corpus.kernels if case != "no_atoms" else [
        make_kernel(config, np.zeros_like(kern.values), kern.m) for kern in corpus.kernels]
    return Corpus(config, window, tuple(functions), tuple(kernels))


def random_function(rng, config, a, l):
    n = config.q ** (l - a)
    return TestFunction(config, a, l, rng.random(n) + 1j * rng.random(n))


# STACK_CELLS values: the default (one stack), one row per stack, and two
# bounds that cut the five-function corpus into stacks of a few rows, 40 for
# q = 2 and 200 for q = 3, so that a stack boundary falls inside the corpus
STACK_BOUNDS = [verify.STACK_CELLS, 1, 40, 200]


def stacked_corpora(config, monkeypatch, k_list=()):
    """(case, corpus, k list) for each STACK_WINDOWS corpus under each STACK_BOUNDS
    value; the k list is k_list, or empty in the no_k case."""
    for stack_cells in STACK_BOUNDS:
        monkeypatch.setattr(verify, "STACK_CELLS", stack_cells)
        for case in STACK_WINDOWS:
            yield case, stack_corpus(config, case), [] if case == "no_k" else k_list


CONFIG_PARAMS = pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")


@CONFIG_PARAMS
def test_besov_tl_equals_single_norm_route_bit_for_bit(config, monkeypatch):
    srt_list = [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0), (0.5, 3.0, 1.5)]
    for _, corpus, k_list in stacked_corpora(config, monkeypatch, [-1, 0]):
        est, pieces = check_besov_tl_theorem(corpus, k_list, srt_list)
        rows, want_pieces = single_norm_besov_tl(corpus, k_list, srt_list)
        assert list(est.ratio_table) == rows
        assert pieces == want_pieces
        assert not any(row[0].startswith("f3.") for row in rows)  # zero function skipped


@CONFIG_PARAMS
def test_lebesgue_equals_per_function_route_bit_for_bit(config, monkeypatch):
    r_list = [1.5, 2.0, 3.0]
    for _, corpus, k_list in stacked_corpora(config, monkeypatch, [-2, -1, 0]):
        est = check_lebesgue_theorem(corpus, k_list, r_list)
        assert list(est.ratio_table) == per_function_lebesgue(corpus, k_list, r_list)


@CONFIG_PARAMS
def test_l2_weak_equals_per_function_route_bit_for_bit(config, monkeypatch):
    lambda_list = [0.05, 0.5, 4.0]
    for case, corpus, k_list in stacked_corpora(config, monkeypatch, [-1, 0]):
        rows = check_l2_and_weak11(corpus, k_list, lambda_list)["rows"]
        assert rows == per_function_l2_weak(corpus, k_list, lambda_list)
        assert bool(rows) != (case in NO_L2_WEAK_ROWS)
        assert not any(row["entry"].endswith(".f3") for row in rows)


@CONFIG_PARAMS
def test_taibleson_equals_per_function_route_bit_for_bit(config, monkeypatch):
    for _, corpus, _ in stacked_corpora(config, monkeypatch):
        rows = check_taibleson_class(corpus)["rows"]
        assert [row["sup_l2_ratio_k0"] for row in rows] == per_function_taibleson_l2(corpus)


@CONFIG_PARAMS
def test_estimate_sups_are_the_largest_ratio_of_each_k_and_param(config, monkeypatch):
    # the column reductions against a loop over the rows, on every stacked corpus
    for _, corpus, k_list in stacked_corpora(config, monkeypatch, [-1, 0]):
        for est in (check_lebesgue_theorem(corpus, k_list, [1.5, 2.0]),
                    check_besov_tl_theorem(corpus, k_list, [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0)])[0]):
            assert sorted(est.sups, key=repr) == sorted(row_sups(est.ratio_table), key=repr)
            assert est.fitted_constant == max((row[3] for row in est.ratio_table), default=0.0)


# the harness route against the unaveraged route it replaced, on corpora whose
# kernels (m = 2, 3, and the fixtures) are finer than the window (l = 1) at
# some k: every value within 1e-12 relative, or both within 1e-15 of 0 where
# the exact value is 0
FINER_K_LIST = [-2, -1, 0]


def finer_kernel_corpus(config):
    corpus = small_corpus(config, count=4, window=(-1, 1), resolutions=(2, 3))
    assert max(kern.m for kern in corpus.kernels) - (FINER_K_LIST[0] + 1) > corpus.window[1]
    return corpus


def same_value(new, old):
    return abs(new - old) <= 1e-12 * abs(old) or max(abs(new), abs(old)) <= 1e-15


def ratio_of(row):
    return row["ratio"] if isinstance(row, dict) else row[-1]


def without_ratio(row):
    return {**row, "ratio": None} if isinstance(row, dict) else row[:-1]


def assert_same_rows(got, want):
    assert list(map(without_ratio, got)) == list(map(without_ratio, want))
    for g, w in zip(got, want):
        assert same_value(ratio_of(g), ratio_of(w)), (g, w)


@CONFIG_PARAMS
def test_lebesgue_equals_the_unaveraged_route(config):
    corpus = finer_kernel_corpus(config)
    r_list = [1.5, 2.0, 3.0]
    est = check_lebesgue_theorem(corpus, FINER_K_LIST, r_list)
    assert_same_rows(est.ratio_table,
                     per_function_lebesgue(corpus, FINER_K_LIST, r_list, UnaveragedRoute))


@CONFIG_PARAMS
def test_besov_tl_equals_the_unaveraged_route(config):
    corpus = finer_kernel_corpus(config)
    srt_list = [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0)]
    est, pieces = check_besov_tl_theorem(corpus, FINER_K_LIST, srt_list)
    rows, want_pieces = single_norm_besov_tl(corpus, FINER_K_LIST, srt_list, UnaveragedRoute)
    assert_same_rows(est.ratio_table, rows)
    assert_same_rows(pieces, want_pieces)


@CONFIG_PARAMS
def test_taibleson_equals_the_unaveraged_route(config):
    corpus = finer_kernel_corpus(config)
    got = [row["sup_l2_ratio_k0"] for row in check_taibleson_class(corpus)["rows"]]
    want = per_function_taibleson_l2(corpus, UnaveragedRoute)
    assert all(map(same_value, got, want)), (got, want)


@CONFIG_PARAMS
def test_l2_weak_equals_the_unaveraged_route(config):
    # a weak11 level measure counts cells with |Bf| > lam, so it may differ
    # only where a cell of the unaveraged route ties lam within rounding
    corpus = finer_kernel_corpus(config)
    lambda_list = [0.05, 0.5, 4.0]
    rows = check_l2_and_weak11(corpus, FINER_K_LIST, lambda_list)["rows"]
    want = per_function_l2_weak(corpus, FINER_K_LIST, lambda_list, UnaveragedRoute)
    atoms = dict(verify._first_atoms(corpus))
    assert list(map(without_ratio, rows)) == list(map(without_ratio, want))
    for got, old in zip(rows, want):
        if got["check"] == "l2":
            assert same_value(got["ratio"], old["ratio"]), (got, old)
        elif got["ratio"] != old["ratio"]:
            atom_id, fi = old["entry"].rsplit(".f", 1)
            f, atom = corpus.functions[int(fi)], atoms[atom_id]
            bf = (UnaveragedRoute.truncated(apply_atom_operator, f, atom, old["k"])
                  if old["reading"] == "A" else UnaveragedRoute.reading_b(f, atom, old["k"]))
            assert np.any(np.abs(np.abs(bf.values) - old["param"]) <= 1e-12), (got, old)


def _stack_count(corpus, window):
    # the number of stacks verify cuts the corpus into for arrays on window
    a, l = window
    rows = max(1, verify.STACK_CELLS // corpus.config.q ** (l - min(a, 0)))
    return -(-len(corpus.functions) // rows)


def test_besov_tl_builds_each_block_stack_once(monkeypatch):
    corpus = small_corpus(count=5)
    k_list, srt_list = [-1, 0], [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0)]
    f0, l = corpus.functions[0], corpus.window[1]
    atoms = [atom for _, atom in verify._first_atoms(corpus)]
    assert atoms
    counts = {"blocks": 0, "shell": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(decomp, "_all_blocks", counted("blocks", decomp._all_blocks))
    monkeypatch.setattr(verify, "apply_shell", counted("shell", verify.apply_shell))
    for stack_cells in STACK_BOUNDS:
        monkeypatch.setattr(verify, "STACK_CELLS", stack_cells)
        counts.update(blocks=0, shell=0)
        shell_multiplier.cache_clear()
        check_besov_tl_theorem(corpus, k_list, srt_list)
        # the corpus is cut once, by the widest window of T_k f and of the pieces, and
        # each stack builds one block stack of itself, of each T_k f and of each g_j * f
        pieces = [shell_piece(atom, j, l) for atom in atoms for j in (-1, 0, 1)]
        a = min([resolution_spec(f0, 0).out_a] + [piece.a for piece in pieces])
        stacks = _stack_count(corpus, (a, l))
        assert counts["blocks"] == stacks * (1 + len(corpus.kernels) * len(k_list) + len(pieces))
        assert counts["shell"] == stacks * len(pieces)
        # each piece is transformed once per (atom, j, window), not once per stack
        info = shell_multiplier.cache_info()
        assert (info.misses, info.hits) == (len(pieces), (stacks - 1) * len(pieces))
    # the default bound holds each of these stacks in one piece
    monkeypatch.setattr(verify, "STACK_CELLS", STACK_BOUNDS[0])
    counts.update(blocks=0, shell=0)
    check_besov_tl_theorem(corpus, k_list, srt_list)
    assert counts == {"blocks": 1 + len(corpus.kernels) * len(k_list) + 3 * len(atoms),
                      "shell": 3 * len(atoms)}


def test_piece_rows_take_no_besov_norm(monkeypatch):
    corpus = small_corpus(count=4)
    k_list, srt_list = [-1, 0], [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0)]
    calls = []
    besov_value = decomp._besov_value
    monkeypatch.setattr(decomp, "_besov_value",
                        lambda *args: calls.append(args) or besov_value(*args))
    _, pieces = check_besov_tl_theorem(corpus, k_list, srt_list)
    assert pieces
    # one B value per row of f and of T_k f and per triple; none for g_j * f
    n = len(corpus.functions)
    assert len(calls) == n * (1 + len(corpus.kernels) * len(k_list)) * len(srt_list)


@pytest.fixture(scope="module")
def laurent_run_dft_shapes():
    """The shape of every array Window.dft transforms in a laurent p = 3, window -2:2,
    count 10 run, whose kernels (m up to 4) are finer than its functions (l = 2) at k < m - 3."""
    sizes = []
    dft = Window.dft

    def wrapped(self, values, inverse=False):
        sizes.append(np.shape(values))
        return dft(self, values, inverse)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Window, "dft", wrapped)
        run_verification(config=L3, count=10, window=(-2, 2))
    return sizes


def test_stacked_laurent_run_keeps_each_transform_within_the_stack_bound(laurent_run_dft_shapes):
    sizes = laurent_run_dft_shapes
    assert all(math.prod(shape) <= max(verify.STACK_CELLS, shape[-1]) for shape in sizes)
    assert any(len(shape) == 2 and shape[0] > 1 for shape in sizes)  # stacks were taken


def test_laurent_run_transforms_no_row_finer_than_its_functions(laurent_run_dft_shapes):
    # every convolution runs on T_k f's window (a - 1, l) = (-3, 2) or inside it
    assert max(shape[-1] for shape in laurent_run_dft_shapes) <= L3.q ** (2 - (-2) + 1)


def test_truncation_kernel_builds_nothing_finer_than_its_functions(monkeypatch):
    # the laurent p = 3, window -2:2 kernels reach m = 4, so m - (k + 1) reaches 6 > l = 2
    corpus = generate_corpus(L3, 42, 2, (-2, 2), (2, 3, 4))
    f = corpus.functions[0]
    widths = []
    post_init = TestFunction.__post_init__

    def recorded(self):
        post_init(self)
        widths.append(self.values.shape[-1])

    monkeypatch.setattr(TestFunction, "__post_init__", recorded)
    spec = resolution_spec(f, 0)
    jmax = tail_cutoff(spec.out_a, f.a)
    for kern, k in itertools.product(corpus.kernels, range(-3, 1)):
        truncation_kernel(kern, k, jmax, f.l)
    assert max(kern.m for kern in corpus.kernels) == 4
    assert widths and max(widths) <= L3.q ** (f.l - f.a + 1)


# ---------------------------------------------------------------------------
# L2 / weak-(1,1) instrumentation


def test_l2_weak_validation_and_zero_atoms():
    corpus = small_corpus()
    with pytest.raises(ValueError):
        check_l2_and_weak11(corpus, [0], [0.0])
    zero = make_kernel(Q2, np.zeros(sphere_cell_count(Q2, 2)), 2)
    empty = check_l2_and_weak11(with_kernels(corpus, [zero]), [0], [1.0])
    assert empty["rows"] == []
    assert all(rec["measured"] == 0.0 and rec["pass"] for rec in empty["records"])


def test_l2_weak_zero_output_gives_zero_ratio_where_q_power_underflows():
    # q^-1075 rounds to 0.0 for q = 2; T_k f vanishes there, and the ratio is 0.0
    rows = check_l2_and_weak11(small_corpus(count=2), [1075], [1.0])["rows"]
    assert rows and {r["ratio"] for r in rows if r["check"] == "l2"} == {0.0}


def test_l2_weak_fixture_against_brute_force():
    corpus = small_corpus(count=1)  # just the unit ball indicator
    f = corpus.functions[0]
    atom = corpus.kernels[1]  # the balanced two-ball atom
    report = check_l2_and_weak11(with_kernels(corpus, [atom]), [0], [0.25, 100.0])
    rows = report["rows"]
    reading_a_l2 = [r for r in rows if r["check"] == "l2" and r["reading"] == "A"]
    assert len(reading_a_l2) == 1
    spec = kernel_resolution_spec(f, atom.m, 0)
    oracle = naive_truncated(f, atom, spec)
    claimed = float(Fraction(Q2.q) ** 0) / (Q2.q - 1)
    want = lr_norm(oracle, 2) / (claimed * lr_norm(f, 2))
    assert reading_a_l2[0]["ratio"] == pytest.approx(want, rel=1e-10)
    # a level far above ||Bf||_inf has empty superlevel set
    big_lambda = [r for r in rows if r["check"] == "weak11" and r["param"] == 100.0]
    assert big_lambda and all(r["ratio"] == 0.0 for r in big_lambda)
    reading_b = [r for r in rows if r["reading"] == "B"]
    assert all(r["ratio"] <= 1 + 1e-10 for r in reading_b)


def test_l2_reading_b_bound_holds_across_corpus():
    corpus = small_corpus(count=4, resolutions=(2, 3))
    report = check_l2_and_weak11(corpus, [-2, -1, 0], [0.5, 2.0])
    assert report["rows"], "expected nonempty instrumentation"
    for row in report["rows"]:
        if row["reading"] == "B" and row["check"] == "l2":
            assert row["ratio"] <= 1 + 1e-10
    names = {rec["name"] for rec in report["records"]}
    assert names == {
        "l2_bound_reading_a",
        "l2_bound_reading_b",
        "weak11_bound_reading_a",
        "weak11_bound_reading_b",
    }


@pytest.mark.parametrize("q", [2, 3])
def test_reading_b_weight_is_the_geometric_sum_in_closed_form(q):
    jmax = tail_cutoff(-3, -2)  # the corpus window -2:2 spills to out_a = -3
    # past jmax the sum is empty, where the closed form alone would go negative
    for k in (0, -60, -1023, jmax + 1, 1074):
        summed = sum((Fraction(q) ** (-(j + 1)) for j in range(k, jmax + 1)), Fraction(0))
        assert _reading_b_weight(q, k, jmax) == summed


# ---------------------------------------------------------------------------
# Taibleson class


class _ZeroShiftMovesTheFinestDigit(Window):
    """A window whose shift by cell 0 moves the finest digit, as if pi^m y left P^m."""

    def index_add(self, i, j):
        return super().index_add(i, j if np.any(j) else self.size // self.config.p)


def test_taibleson_stabilization_fails_if_the_first_vanishing_term_does_not(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(kernels, "Window", _ZeroShiftMovesTheFinestDigit)
    # at q = 3 the fixture kernels w0 and w1 have m = 1: their one term, j = m, is the modulus
    for config in (Q2, L3):
        corpus = small_corpus(config, count=3, resolutions=(2, 3))
        assert config.q == 2 or [kern.m for kern in corpus.kernels[:2]] == [1, 1]
        report = check_taibleson_class(corpus)
        assert not any(r["stabilized"] for r in report["rows"])
        assert report["records"][0]["pass"] is False
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": config.to_dict(), "corpus": {"count": 2}}))
        assert cli.main(["verify", "--checks", "taibleson", "--window=-1:1", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert "FAIL taibleson_stabilization: measured=0.0 claimed=1.0" in capsys.readouterr().out


def test_taibleson_rows_stabilize_and_cross_tabulate():
    corpus = small_corpus(count=3, resolutions=(2, 3))
    zero = make_kernel(Q2, np.zeros(sphere_cell_count(Q2, 2)), 2)
    report = check_taibleson_class(with_kernels(corpus, list(corpus.kernels) + [zero]))
    rows = report["rows"]
    assert len(rows) == len(corpus.kernels) + 1
    assert all(r["stabilized"] for r in rows)
    assert all(r["modulus"] >= 0 for r in rows)
    assert rows[-1]["modulus"] == 0.0 and rows[-1]["sup_l2_ratio_k0"] == 0.0
    assert report["records"][0]["pass"] is True


@CONFIG_PARAMS
def test_taibleson_rows_take_the_modulus_from_their_one_pass_of_terms(config, monkeypatch):
    corpus = seed42_corpus(config, count=2)
    terms = []
    monkeypatch.setattr(verify, "taibleson_terms",
                        lambda kern, J: terms.append(J) or kernels.taibleson_terms(kern, J))
    rows = check_taibleson_class(corpus)["rows"]
    assert terms == [kern.m for kern in corpus.kernels]
    for row, kern in zip(rows, corpus.kernels):
        assert row["stabilizes_at"] == max(kern.m - 1, 1)
        assert row["modulus"] == kernels.taibleson_modulus(kern, row["stabilizes_at"])


# ---------------------------------------------------------------------------
# report assembly


def run_small(seed=42, config=Q2):
    return run_verification(
        config=config, seed=seed, count=4, window=(-2, 2), kernel_resolutions=(2,),
        k_list=(-1, 0), r_list=(2.0,), srt_list=((0.5, 2.0, 2.0),),
        lambda_list=(1.0,),
    )


def test_report_canonical_bytes_reproducible():
    r1, r2 = run_small(), run_small()
    assert r1.canonical_json() == r2.canonical_json()
    assert r1.to_csv() == r2.to_csv()
    assert run_small(seed=43).canonical_json() != r1.canonical_json()


def test_report_schema_and_exit_semantics():
    report = run_small()
    payload = json.loads(report.canonical_json())
    assert set(payload) == {"config", "seed", "checks", "tables"}
    assert set(report.timing_ms) == {"corpus", "lebesgue", "besov_tl", "l2_weak", "taibleson"}
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names))
    for c in payload["checks"]:
        assert set(c) == {"name", "claimed", "measured", "pass"}
    # measured-constant checks may fail without affecting exact-invariant status
    assert exact_checks_pass(report)
    by_name = {c["name"]: c for c in report.checks}
    assert by_name["taibleson_stabilization"]["pass"] is True
    assert by_name["piece_bound_reading_b"]["pass"] is True


def test_run_builds_one_truncation_kernel_per_kernel_and_k(monkeypatch):
    k_list = (-3, -2, -1, 0)
    builds = []
    build = operators.truncation_kernel

    def counted(*key):
        builds.append(key)
        return build(*key)

    monkeypatch.setattr(operators, "truncation_kernel", counted)
    truncation_multiplier.cache_clear()
    run_verification(config=Q2, count=3, window=(-3, 3), kernel_resolutions=(2, 3, 4),
                     k_list=k_list)
    info = truncation_multiplier.cache_info()
    corpus = generate_corpus(Q2, 42, 3, (-3, 3), (2, 3, 4))
    # each corpus kernel is already an atom, so l2_weak applies the kernels themselves
    assert all(atomic_decompose(kern).terms[0][1] is kern for kern in corpus.kernels)
    # one multiplier per (kernel, k), read again by every later protocol, and one
    # kernel built for each
    assert info.misses == len(builds) == len(set(builds)) == len(corpus.kernels) * len(k_list)
    assert info.hits > 0


def test_default_run_builds_one_shell_multiplier_per_atom_and_j():
    shell_multiplier.cache_clear()
    run_verification()
    info = shell_multiplier.cache_info()
    corpus = generate_corpus(Q2, 42, 50, (-3, 3), (2, 3, 4))
    atoms = [atom for _, atom in verify._first_atoms(corpus)]
    # besov_tl builds one per (atom, j) on the one piece window (-3, 3); l2_weak's reading
    # B reads the j = -1 ones again, as each corpus kernel is its own first atom
    assert all(atom is kern for atom, kern in zip(atoms, corpus.kernels))
    assert (info.misses, info.hits) == (3 * len(atoms), len(atoms)) == (15, 5)


# the default run (run_verification's default corpus), and a small corpus cut
# into one-row stacks (40 cells hold one 32-cell row of T_k f): (corpus, STACK_CELLS)
WORK_RUNS = {"default": ({}, verify.STACK_CELLS),
             "one_row_stacks": ({"count": 5, "window": (-2, 2), "kernel_resolutions": (2,)}, 40)}


@pytest.mark.parametrize("case", WORK_RUNS)
def test_each_protocol_transforms_each_corpus_stack_once(case, monkeypatch):
    kwargs, stack_cells = WORK_RUNS[case]
    monkeypatch.setattr(verify, "STACK_CELLS", stack_cells)
    args = {"config": Q2, "seed": 42, "count": 50, "window": (-3, 3),
            "kernel_resolutions": (2, 3, 4), **kwargs}
    corpus = generate_corpus(**args)
    a, l = corpus.window
    stacks, atoms = _stack_count(corpus, (a - 1, l)), verify._first_atoms(corpus)
    assert stacks == (1 if case == "default" else len(corpus.functions))
    counts = collections.Counter()
    dft, shell, l2_weak = Window.dft, verify.apply_shell, verify.check_l2_and_weak11
    new = Fraction.__new__

    def counted_dft(self, values, inverse=False):
        # a stack of corpus functions, transformed on T_k f's window (a - 1, l) or on
        # the piece convolutions' window (a, l)
        stack = not inverse and np.ndim(values) == 2
        counts["corpus"] += stack and (self.a, self.l) == (a - 1, l)
        counts["piece_window"] += stack and (self.a, self.l) == (a, l)
        # and a shell piece, transformed on the latter
        counts["piece_spectra"] += (not inverse and np.ndim(values) == 1
                                    and (self.a, self.l) == (a, l))
        return dft(self, values, inverse)

    def counted_shell(*args):
        counts["shell"] += 1
        return shell(*args)

    def counted_l2_weak(*args):
        before = counts["shell"]
        out = l2_weak(*args)
        counts["l2_weak_shell"] = counts["shell"] - before
        return out

    def counted_fraction(cls, *args, **kwargs):
        counts["fraction"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Window, "dft", counted_dft)
    monkeypatch.setattr(verify, "apply_shell", counted_shell)
    monkeypatch.setattr(verify, "check_l2_and_weak11", counted_l2_weak)
    monkeypatch.setattr(Fraction, "__new__", counted_fraction)
    shell_multiplier.cache_clear()
    run_verification(**args)
    monkeypatch.undo()
    # once per protocol and stack: 4 in the default run, where each (kernel, k) took 65
    assert counts["corpus"] == len(verify.CHECK_NAMES) * stacks
    # reading B convolves once per atom and stack, not once per atom, k and stack
    assert counts["l2_weak_shell"] == len(atoms) * stacks
    # besov_tl's and l2_weak's piece convolutions transform each stack once on their window:
    # 2 per stack, where each of the 4 * len(atoms) convolutions took one (20 by default)
    assert counts["shell"] == 4 * len(atoms) * stacks
    assert counts["piece_window"] == 2 * stacks
    # and each piece once per (atom, j) on that one window, however many stacks there are:
    # besov_tl's 3 per atom, which l2_weak's reading B reads again at j = -1
    info = shell_multiplier.cache_info()
    assert info.misses == 3 * len(atoms) and counts["piece_spectra"] == 3 * len(atoms)
    assert info.hits == 3 * len(atoms) * (stacks - 1) + len(atoms) * stacks
    if case == "default":
        # each weak11 float is taken once per distinct (count, lambda): 30,122 before
        assert counts["fraction"] < 1000


def test_fractions_do_not_grow_with_the_stack_count(monkeypatch):
    # the one-row-stacks corpus at its bound, one row per stack, and at the default one
    kwargs, stack_cells = WORK_RUNS["one_row_stacks"]
    args = {"config": Q2, "seed": 42, **kwargs}
    new = Fraction.__new__
    counts = []

    def counted(cls, *a, **kw):
        counts[-1] += 1
        return new(cls, *a, **kw)

    run_verification(**args)  # warm the caches that outlive a run
    for cells in (stack_cells, verify.STACK_CELLS):
        with monkeypatch.context() as m:
            m.setattr(verify, "STACK_CELLS", cells)
            counts.append(0)
            m.setattr(Fraction, "__new__", counted)
            run_verification(**args)
    assert counts[0] == counts[1]


def test_report_empty_check_selection_is_valid_skeleton():
    report = run_verification(
        config=Q2, count=2, window=(-2, 2), kernel_resolutions=(2,), checks=()
    )
    payload = json.loads(report.canonical_json())
    assert payload["tables"] == {}
    assert [c["name"] for c in payload["checks"]] == ["corpus_kernels_mean_zero"]
    assert exact_checks_pass(report)


# ---------------------------------------------------------------------------
# the compact canonical writer: reindented, its output is the stdlib's indented form


def stdlib_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def reindented(text: str) -> str:
    return stdlib_dumps(json.loads(text))


def one_pass(report) -> tuple:
    """The texts of one ReportWriter pass, report.json's and report.csv's."""
    writer = ReportWriter(report)
    return "".join(writer.json_chunks()), "".join(writer.csv_chunks())


def references(report) -> tuple:
    """report.json's and report.csv's texts by the stdlib: canonical_dumps of the payload
    with every row of each RowTable built, and a csv.writer row per table row."""
    return canonical_dumps(report_payload(report)), per_row_csv(report)


@pytest.mark.parametrize("config", CONFIGS, ids=str)
def test_report_writers_equal_the_stdlib_and_per_row_references(config):
    report = run_small(config=config)
    assert one_pass(report) == references(report)
    assert (report.canonical_json(), report.to_csv()) == one_pass(report)
    assert reindented(report.canonical_json()) == stdlib_dumps(report_payload(report))


CHECK_SUBSETS = [checks for n in range(len(verify.CHECK_NAMES) + 1)
                 for checks in itertools.combinations(verify.CHECK_NAMES, n)]


@CONFIG_PARAMS
def test_report_writers_equal_the_references_under_every_check_subset(config):
    for checks in CHECK_SUBSETS:
        report = run_verification(config=config, count=3, window=(-1, 2), kernel_resolutions=(2,),
                                  k_list=(-1, 0), r_list=(1.5, 2.0), srt_list=((0.5, 2.0, 3.0),),
                                  lambda_list=(0.5, 4.0), checks=checks)
        assert one_pass(report) == references(report), checks


# --checks in another order, or with repeats, against the same names in PROTOCOLS order
@pytest.mark.parametrize("given, ordered", [
    ("taibleson,lebesgue,lebesgue", "lebesgue,taibleson"),
    ("taibleson,l2_weak,besov_tl,lebesgue,l2_weak", "lebesgue,besov_tl,l2_weak,taibleson"),
])
def test_checks_in_any_order_write_the_bytes_of_the_protocol_order(given, ordered, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"corpus": {"count": 3, "kernel_resolutions": [2]}}))
    texts = []
    for checks in (given, ordered):
        out = tmp_path / checks
        assert cli.main(["verify", "--config", str(config), "--window=-2:2", "--k=-1,0",
                         "--checks", checks, "--out", str(out)]) in (0, 1)
        texts.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
    assert texts[0] == texts[1]


def toy_protocol(corpus, k_list, r_list, srt_list, lambda_list):
    """A check no run makes: a row table and a list table with CSV rules, a row table
    without one, and one record."""
    rows = [[f"f{i}", k, "toy", 0.5 * i + k] for i in range(len(corpus.functions)) for k in k_list]
    return ({"toy": row_table(rows), "toy_json_only": row_table(rows[:2]),
             "toy_notes": [{"kernel": "w0", "m": 2, "note": 1.5}]},
            [verify.check_record("toy_constant", None, 1.0, None)])


def test_a_protocol_and_its_csv_rules_reach_both_files_with_no_writer_edit(monkeypatch):
    monkeypatch.setitem(verify.PROTOCOLS, "toy", toy_protocol)
    monkeypatch.setitem(verify.CSV_ROWS, "toy", lambda row: ("toy", *row))
    monkeypatch.setitem(verify.CSV_ROWS, "toy_notes", lambda row: (
        "toy_note", row["kernel"], row["m"], "note", row["note"]))
    report = run_verification(config=Q2, count=3, window=(-2, 2), kernel_resolutions=(2,),
                              k_list=(-1, 0), r_list=(2.0,), checks=("toy", "lebesgue"))
    assert list(report.timing_ms) == ["corpus", "lebesgue", "toy"]
    assert [c["name"] for c in report.checks][-1] == "toy_constant"
    json_text, csv_text = one_pass(report)
    assert json_text == canonical_dumps(report_payload(report))
    assert {"toy", "toy_json_only", "toy_notes"} <= set(json.loads(json_text)["tables"])
    # report.csv: the known tables, then the toy's two in CSV_ROWS order, and no JSON-only rows
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [("toy", *row) for row in report.tables["toy"]] + [("toy_note", "w0", 2, "note", 1.5)])
    assert csv_text == per_row_csv(report) + buf.getvalue()
    assert csv_text.count("\ntoy,") == len(report.tables["toy"]) == 6


def test_csv_rows_name_every_row_table_of_a_run_and_only_tables_a_protocol_makes():
    # no RowTable is silently left out of report.csv, and no CSV_ROWS rule is dead
    report = run_verification()
    row_tables = {name for name, table in report.tables.items()
                  if isinstance(table, verify.RowTable)}
    assert row_tables == {"lebesgue", "besov_tl", "l2_weak"}
    assert row_tables <= set(verify.CSV_ROWS) <= set(report.tables)
    assert verify.CHECK_NAMES == tuple(verify.PROTOCOLS)


@CONFIG_PARAMS
@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
def test_verify_writes_the_reference_bytes_under_each_format(config, fmt, tmp_path, monkeypatch):
    report = run_small(config=config)
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: report)
    assert cli.main(["verify", "--out", str(tmp_path), "--format", fmt]) in (0, 1)
    texts = dict(zip(("json", "csv"), references(report)))
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        sorted(f"report.{ext}" for ext in texts if fmt in (ext, "both"))
    for ext, text in texts.items():
        if fmt in (ext, "both"):
            assert (tmp_path / f"report.{ext}").read_bytes() == text.encode()


# row-table edge cases: tables with no row, a k whose ratios all vanish, a grid with no
# k and one with no atom, and an r_list whose 2 and 2.0 must keep their own text
@pytest.mark.parametrize("case", ["no_rows", "k_0_5", "no_k", "no_atoms", "int_and_float_r"])
def test_report_writers_equal_the_references_on_row_table_edges(case):
    args = {"config": Q2, "count": 3, "window": (-2, 2), "kernel_resolutions": (2,),
            "k_list": (-1, 0), "r_list": (1.5,), "srt_list": ((0.5, 2.0, 2.0),),
            "lambda_list": (1.0,)}
    if case == "no_rows":  # two zero functions: no function has a row
        corpus = stack_corpus(Q2, "all_zero")
        tables = {"lebesgue": check_lebesgue_theorem(corpus, [0], [2.0]).ratio_table,
                  "besov_tl": check_besov_tl_theorem(corpus, [0], [(0.5, 2.0, 2.0)])[0].ratio_table,
                  "l2_weak": check_l2_and_weak11(corpus, [0], [1.0])["rows"]}
        assert [len(table) for table in tables.values()] == [0, 0, 0]
        report = VerificationReport(Q2, 42, (), tables, {})
    elif case in ("no_k", "no_atoms"):
        corpus = stack_corpus(Q2, case)
        k_list = [] if case == "no_k" else [-1, 0]
        tables = {"lebesgue": check_lebesgue_theorem(corpus, k_list, [1.5, 2.0]).ratio_table,
                  "besov_tl": check_besov_tl_theorem(corpus, k_list, [(0.5, 2.0, 2.0)])[0]
                  .ratio_table,
                  "l2_weak": check_l2_and_weak11(corpus, k_list, [1.0])["rows"]}
        report = VerificationReport(Q2, 42, (), tables, {})
    else:
        report = run_verification(**{**args, **({"k_list": (0, 5)} if case == "k_0_5" else
                                                {"r_list": (2, 2.0)})})
    assert one_pass(report) == references(report)
    if case == "int_and_float_r":
        rows = json.loads(one_pass(report)[0])["tables"]["lebesgue"]
        assert {repr(row[2]) for row in rows} == {"2", "2.0"}
        assert {row.split(",")[3] for row in one_pass(report)[1].splitlines()
                if row.startswith("lebesgue,")} == {"2", "2.0"}


# table cells no verify run writes: strings that need escaping in JSON or quoting in
# CSV, bools, None, ints where floats stand, both zeros, the smallest subnormal, a
# numpy float64, and values that compare equal across types (1, True, 1.0)
HOSTILE_CELLS = ['"\\{}{0}}{é€\u2028😀', "a,b", 'say "hi"', "line\nbreak", "cr\rhere", "{}",
                 "", "é", True, False, None, 0, 1, 1.0, -3, 0.0, -0.0, 5e-324, 1e16, 2**70,
                 np.float64(0.1), np.float64(-0.0), 0.1]

# the float edges a ratio column holds: both zeros, the smallest subnormal, the largest float
FLOAT_RATIOS = [0.25, -0.0, 5e-324, 1e16, 0.0, 1.7976931348623157e308]


def hostile_report(float_ratios: bool = False) -> VerificationReport:
    """Every table column, param parts and the row tables' entries and keys too, cycles
    through HOSTILE_CELLS, each cell object shared by several rows.  The row tables'
    ratios, a float64 column, cycle through FLOAT_RATIOS; float_ratios keeps the piece
    ratios exact floats too."""
    n = len(HOSTILE_CELLS)

    def cell(i):
        return HOSTILE_CELLS[i % n]

    def ratio(i):
        return FLOAT_RATIOS[i % 6] if float_ratios else cell(i)

    rows = range(3 * n)
    tables = with_row_tables({
        "lebesgue": [[cell(i), cell(i + 1), cell(i + 2), FLOAT_RATIOS[i % 6]] for i in rows],
        "besov_tl": [[cell(i + 3), cell(i + 5), [cell(i), cell(i + 7), cell(i + 2), cell(i + 9)],
                      FLOAT_RATIOS[(i + 1) % 6]] for i in rows],
        "l2_weak": [{"check": cell(i), "entry": cell(i + 4), "k": cell(i + 1),
                     "reading": cell(i + 6), "param": cell(i + 8), "ratio": FLOAT_RATIOS[i % 6]}
                    for i in rows],
        "pieces": [{"atom": cell(i), "reading": cell(i + 1), "j": cell(i + 2), "s": cell(i + 3),
                    "r": cell(i + 4), "t": cell(i + 5), "ratio": ratio(i + 6)} for i in rows],
        "taibleson": [{"kernel": cell(i), "m": cell(i + 3), "modulus": cell(i + 5),
                       "stabilized": cell(i + 7)} for i in rows],
        "lebesgue_per_k": {"-1": 0.5, NASTY: cell(5)},
        "": [],
    })
    return VerificationReport(Q2, 42, ({"name": NASTY, "measured": -0.0, "pass": None},),
                              tables, {})


@pytest.mark.parametrize("float_ratios", [False, True], ids=["mixed_ratios", "float_ratios"])
def test_report_writers_equal_both_references_on_hostile_cells(float_ratios):
    report = hostile_report(float_ratios)
    assert one_pass(report) == references(report)
    assert (report.canonical_json(), report.to_csv()) == one_pass(report)


def test_report_writer_formats_each_ratio_once_and_each_distinct_cell_once(monkeypatch):
    report = run_verification()
    tables = [report.tables[name] for name in ("lebesgue", "besov_tl", "l2_weak")]
    assert [len(table) for table in tables] == [3000, 12000, 8000]
    calls = collections.Counter()

    def counting(name):
        formatter = getattr(verify, name)

        def counted(*args):
            calls[name] += 1
            return formatter(*args)
        return counted

    # every CSV field is quoted, or not, by _csv_quoted, once
    for name in ("_float_repr", "canonical_dumps", "_csv_quoted"):
        monkeypatch.setattr(verify, name, counting(name))
    texts = one_pass(report)
    monkeypatch.undo()
    assert texts == references(report)
    # each ratio once, its text in both files
    assert calls["_float_repr"] == sum(map(len, tables)) == 23000
    # each distinct entry and key cell at most once per file, and otherwise once for
    # each other table and table name, each head item and each field of the other CSV rows
    cells = sum(len(table.entries) + len(table.keys) * len(table.keys[0]) for table in tables)
    assert calls["canonical_dumps"] <= cells + 3 + 2 * len(report.tables)
    other_csv_fields = 5 * (1 + len(report.tables["pieces"]) + len(report.tables["taibleson"]))
    assert calls["_csv_quoted"] <= cells + other_csv_fields
    assert cells < 1000


def test_row_tables_read_the_rows_of_the_reference_routes():
    # list(table) has the reference rows' cells, types included, and indexing reads them too
    for case in STACK_WINDOWS:
        corpus = stack_corpus(L3, case)
        k_list = [] if case == "no_k" else [-1, 0]
        srt_list = [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0)]
        pairs = [(check_lebesgue_theorem(corpus, k_list, [1.5, 2.0]).ratio_table,
                  per_function_lebesgue(corpus, k_list, [1.5, 2.0])),
                 (check_besov_tl_theorem(corpus, k_list, srt_list)[0].ratio_table,
                  single_norm_besov_tl(corpus, k_list, srt_list)[0]),
                 (check_l2_and_weak11(corpus, k_list, [0.5, 4.0])["rows"],
                  per_function_l2_weak(corpus, k_list, [0.5, 4.0]))]
        for table, want in pairs:
            assert isinstance(table, verify.RowTable)
            assert repr(list(table)) == repr(want) and table == want
            assert [table[i] for i in range(len(table))] == list(table)
            if len(table):
                assert table[-1] == table[len(table) - 1]
            with pytest.raises(IndexError):
                table[len(table)]


def test_row_table_columns_are_read_only():
    table = check_lebesgue_theorem(small_corpus(), [0], [2.0]).ratio_table
    assert (table.entry.dtype, table.key.dtype, table.ratio.dtype) == \
        (np.int64, np.int64, np.float64)
    for column in (table.entry, table.key, table.ratio):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    with pytest.raises(AttributeError):
        table.ratio = np.zeros(len(table))


NASTY = '"\\{}{0}}{é€\u2028😀'

WRITER_CASES = {
    "int_float_mixed_column": {"t": [[1, 0.5], [2.0, 1.5], [3, 2.5]]},
    "int_float_mixed_dict_column": [{"a": 1}, {"a": 1.0}],
    "bool_column": [[True, 1.0], [False, 2.0]],
    "none_column": [{"a": None, "b": 1}, {"a": None, "b": 2}],
    "bool_scalars": [True, False, True],
    "differing_key_sets": [{"a": 1, "b": 2.0}, {"a": 1, "c": 2.0}],
    "key_subset": [{"a": 1}, {"a": 1, "b": 2}],
    "differing_lengths": [[1.0, 2.0], [1.0]],
    "list_and_dict_rows": [[1.0], {"a": 1.0}],
    "one_row_tables": {"a": [[1.0, "x"]], "b": [{"k": 1}], "c": [0.5]},
    "empty_at_depth": {"a": [], "b": {}, "c": [[], []], "d": [{}, {}],
                       "e": [[[], 1], [[], 2]], "f": [{"x": {}}, {"x": {}}], "g": [[{}], [{}]]},
    "escapes_in_strings_and_keys": {NASTY: [{NASTY: NASTY, "}": "{", "{}": 1},
                                            {NASTY: "{0}", "}": "}}", "{}": 2}],
                                    "rows": [["{}", NASTY, "\n\t"], ["{0}", "}{", "\x00\x7f"]]},
    "float_edges": [[-0.0, 1e-300, 1e16, 5e-324, 2**64 + 1],
                    [0.0, -1e-300, 1e17, -5e-324, -(2**70)],
                    [1.0, 1.7976931348623157e308, 0.1, 2.2250738585072014e-308, 2**63]],
    "negative_zero_column": [-0.0, 0.0, -0.0],
    "numpy_float64_in_a_column": [[np.float64(0.1), 1.0], [0.2, 1.0]],
    "numpy_float64_column": {"x": [np.float64(1.5), np.float64(2.5)], "y": np.float64(-0.0)},
    "tuple_rows": [(1.0, 2.0), (3.0, 4.0)],
    "nested_rows": [["f0.w0", -1, ["B", 0.5, 2.0, 2.0], 0.25],
                    ["f1.w0", 0, ["F", 1.0, 1.5, 3.0], 1e-20]],
    "nested_dict_rows": [{"x": {"y": [1.0, "a"]}, "z": 1}, {"x": {"y": [2.0, "b"]}, "z": 2}],
    "key_order": {"b": 1, "a": [2, 3], "A": {"z": 0, "Z": 1}, "é": 4, "": 5},
    "scalars": {"f": 1.0, "i": -3, "s": "x", "n": None, "t": True},
    "top_level_scalar": 2.5,
    "top_level_string": NASTY,
}


@pytest.mark.parametrize("obj", WRITER_CASES.values(), ids=WRITER_CASES)
def test_canonical_dumps_equals_the_stdlib_encoder(obj):
    assert reindented(canonical_dumps(obj)) == stdlib_dumps(obj)


@pytest.mark.parametrize("obj", [
    [[1.0, math.nan], [2.0, 3.0]],
    {"t": [{"a": math.inf}, {"a": 1.0}]},
    [-math.inf, 1.0],
    {"deep": [[["B", math.nan]], [["B", 1.0]]]},
    math.nan,
], ids=["list_rows", "dict_rows", "scalar_column", "nested_column", "scalar"])
def test_canonical_dumps_refuses_non_finite_floats_like_the_stdlib(obj):
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        canonical_dumps(obj)
