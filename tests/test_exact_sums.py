"""functions.exact_sums against math.fsum, and the norm layer's use of it.

exact_sums returns the correctly rounded sum of each segment of a flat array
of nonnegative doubles.  A correctly rounded sum is unique, so it must equal
math.fsum of that segment bit for bit, with fsum's results for inf and nan
and its OverflowError for a finite segment whose sum leaves the float range.
The norm layer (lr_norms, norm_columns, spectral_l2_norm) must read the same
floats as the per-row fsum route it replaces (tests/util.fsum_segments), batch
its sums into one kernel call per r for the Besov blocks and one per triple
for the Triebel-Lizorkin rows, and never fall back to fsum on the default
corpus or on a 16,384-cell function.
"""

import ast
import math
import types

import numpy as np
import pytest

from localfield import decomp, fourier, functions
from localfield.decomp import besov_norm, lebesgue_norm_report, norm_columns, triebel_lizorkin_norm
from localfield.field import FieldConfig
from localfield.functions import TestFunction, exact_sums, lr_norm, lr_norms
from localfield.verify import DEFAULT_SRT_LIST, run_verification
from util import CONFIGS, P5_CONFIGS, SRC, fsum_segments

TINY = 2.0**-1074  # the smallest subnormal


def sums_of(segments):
    flat = np.concatenate([np.asarray(s, dtype=np.float64) for s in segments])
    starts = np.cumsum([0] + [len(s) for s in segments[:-1]])
    return exact_sums(flat, starts)


def assert_fsum_bits(segments):
    got = sums_of(segments)
    assert got.shape == (len(segments),)
    for seg, value in zip(segments, got.tolist()):
        want = math.fsum(seg)
        if math.isnan(want):
            assert math.isnan(value)
        else:  # the sign of a zero counts too
            assert value.hex() == want.hex() and math.copysign(1, value) == math.copysign(1, want)


@pytest.fixture
def fallbacks(monkeypatch):
    """The lengths of the segments that exact_sums hands to math.fsum."""
    lengths = []
    proxy = types.ModuleType("math")
    proxy.__dict__.update(vars(math))
    proxy.fsum = lambda xs: lengths.append(len(xs)) or math.fsum(xs)
    monkeypatch.setattr(functions, "math", proxy)
    return lengths


@pytest.fixture
def kernel_calls(monkeypatch):
    """The segment count of each exact_sums call; functions.lr_norms_of_parts makes them all."""
    calls = []

    def counted(values, starts):
        calls.append(len(starts))
        return exact_sums(values, starts)

    monkeypatch.setattr(functions, "exact_sums", counted)
    return calls


def random_stack(rng, config, rows=4, a=-2, l=2):
    shape = (rows, config.p ** (l - a))
    return TestFunction(config, a, l, rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))


@pytest.mark.parametrize("config", CONFIGS + P5_CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_random_stacks_sum_like_fsum(config):
    rng = np.random.default_rng(240)
    for rows, (a, l) in ((1, (0, 0)), (3, (-1, 2)), (5, (-2, 2))):
        v = random_stack(rng, config, rows, a, l).values
        for r in (1, 1.5, 2, 3, 7.5):
            moduli = np.hypot(v.real, v.imag) ** r
            assert_fsum_bits(list(moduli) + list(v.real**2) + list(v.imag**2))


@pytest.mark.parametrize("config", CONFIGS + P5_CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_norm_layer_reads_the_fsum_route_bit_for_bit(config, monkeypatch):
    rng = np.random.default_rng(241)
    stacks = [random_stack(rng, config, 3, -2, 2), random_stack(rng, config, 2, 1, 3)]
    zero_row = np.zeros((1, stacks[0].values.shape[1]))
    stacks.append(TestFunction(config, -2, 2, np.vstack([stacks[0].values, zero_row])))
    srt_list = [(0.5, 2.0, 2.0), (0.25, 1.5, 3.0), (-0.5, 1.0, 1.0), (1.0, 3.0, 1.5)]

    def readings():
        return [({r: lr_norms(f, r) for r in (1, 1.5, 2, 3)}, norm_columns(f, srt_list),
                 [fourier.spectral_l2_norm(fourier.forward(TestFunction(config, f.a, f.l, row)))
                  for row in f.values])
                for f in stacks]

    fast = readings()
    monkeypatch.setattr(functions, "exact_sums", fsum_segments)
    assert readings() == fast


def test_one_cell_zero_and_signed_zero_segments():
    assert_fsum_bits([[3.5], [0.0], [TINY], [1e308], [0.0, 0.0, 0.0], [-0.0], [-0.0, 0.0],
                      [0.0, -0.0, 2.0], [5e-324, -0.0]])
    assert sums_of([[0.0] * 7, [-0.0] * 3]).tolist() == [0.0, 0.0]
    assert math.copysign(1, sums_of([[-0.0]])[0]) == 1.0  # fsum's zero is +0.0


def test_no_segments():
    assert exact_sums(np.zeros(0), np.zeros(0, dtype=np.intp)).shape == (0,)


def test_segments_of_a_million_cells():
    rng = np.random.default_rng(242)
    big = rng.random(2**20)
    assert_fsum_bits([big, big**2 * 2.0**-600, np.full(2**20, 0.1), rng.random(3)])
    spread = np.ldexp(rng.random(2**20), rng.integers(-200, 200, 2**20))
    assert_fsum_bits([spread, spread[::-1].copy()])


def test_half_ulp_ties_round_to_even_unless_a_tail_lies_below():
    assert sums_of([[1.0, 2.0**-53]])[0] == 1.0
    assert sums_of([[1.0, 2.0**-53, TINY]])[0] == 1.0 + 2.0**-52
    for scale in (2.0**-900, 2.0**-300, 1.0, 3.0, 2.0**300, 2.0**900):
        for odd in (0.0, 2.0**-52):  # 1 + 2^-52 is odd: its tie rounds up
            head = scale * (1.0 + odd)
            assert_fsum_bits([[head, scale * 2.0**-53],
                              [head, scale * 2.0**-53, scale * 2.0**-120],
                              [head, scale * 2.0**-53, TINY],
                              [scale * 2.0**-53, head, scale * 2.0**-54, scale * 2.0**-54]])


def test_a_value_scaled_below_the_float_range_keeps_its_tail():
    # 2^100 + 2^47 is a tie; only the subnormal 2^-1074, which the scaling to
    # [2^60, 2^61) takes below 2^-1074, says it rounds up
    (value,) = sums_of([[2.0**100, 2.0**47, TINY]])
    assert value.hex() == "0x1.0000000000001p+100" == math.fsum([2.0**100, 2.0**47, TINY]).hex()
    assert sums_of([[2.0**100, 2.0**47]])[0].hex() == "0x1.0000000000000p+100"


def test_subnormal_sums_and_range_past_two_to_the_thousand():
    rng = np.random.default_rng(243)
    subnormal = np.ldexp(rng.random(50), -1060)
    assert_fsum_bits([[TINY] * 3, subnormal, [2.0**-1022, -0.0, TINY], [2.0**-1000, TINY],
                      [2.0**-899, 2.0**-960], [2.0**-898, 2.0**-960, TINY],
                      [2.0**1000, 2.0**1000, 1.0], [2.0**1019, 2.0**970, TINY],
                      [1.7976931348623157e308], [8e307, 8e307, 1e-300],
                      np.ldexp(rng.random(300), rng.integers(-1074, 1010, 300))])


def test_inf_and_nan_rows_return_what_fsum_returns(fallbacks):
    inf, nan = math.inf, math.nan
    assert_fsum_bits([[inf], [1.0, inf, 2.0], [nan], [1.0, nan], [inf, nan], [3.0, 4.0]])
    assert fallbacks == [1, 3, 1, 2, 2]  # each non-finite segment, none of the finite one


def test_a_finite_row_past_the_float_range_raises_overflow_like_fsum():
    row = [1e308, 1e308]
    with pytest.raises(OverflowError):
        math.fsum(row)
    with pytest.raises(OverflowError):
        sums_of([[1.0], row])
    with pytest.raises(OverflowError):
        sums_of([[1e308] * 3, [1.0]])


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_lr_norms_refuses_a_sum_past_the_float_range_and_lr_norm_reads_inf(r):
    # finite cells whose |v|^r sum is past the float range, in the second row
    big = 1.5e308 ** (1 / r)
    f = TestFunction(FieldConfig("padic", 2), 0, 1, np.array([[1.0, 0.5], [big, big]]))
    with pytest.raises(ValueError, match=f"^r = {r}: an L\\^r norm is not a finite float$"):
        lr_norms(f, r)
    assert lr_norm(TestFunction(f.config, 0, 1, f.values[1]), r) == math.inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"\(s, r, t\) = .*: a B or F norm is not a finite float"):
        norm_columns(f, [(0.0, r, r)])


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_a_sum_past_the_float_range_reads_inf_where_the_cell_measure_underflows(r):
    # q^-l is 0.0 at l = 1101, q = 2; the norm reads inf, not inf * 0.0 = nan, both where
    # the finite |v| sum raises fsum's OverflowError (r = 1) and where |v|^r is inf
    f = TestFunction(FieldConfig("padic", 2), 1100, 1101, np.array([1e308, 1e308]))
    with np.errstate(over="ignore"):
        assert lr_norm(f, r) == math.inf


@pytest.mark.parametrize("space", ["B", "F"])
def test_norm_columns_refuses_a_finite_row_whose_sum_raises_in_fsum(space):
    # every cell, block value and pointwise sum is finite; only the row sums overflow
    f = TestFunction(FieldConfig("padic", 2), -3, 1, np.full(16, 6e307))
    with pytest.raises(OverflowError):
        exact_sums(np.full(16, 6e307), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match=r"^\(s, r, t\) = \(0.0, 1.0, 1.0\): a B or F norm"):
        norm_columns(f, [(0.0, 1.0, 1.0)], space)


def test_a_carry_the_bound_cannot_rule_out_takes_fsum(fallbacks):
    # the fractions sum to just below 1: the grid part 2^60 - 1 of 2^60 leaves
    # no room for the tail below it, so the segment is not certified
    carry = [2.0**60, 1.0 - 2.0**-53, 2.0**-53 - 2.0**-106]
    exact_carry = [2.0**60, 1.0 - 2.0**-53, 2.0**-53]
    assert_fsum_bits([carry, exact_carry])
    assert fallbacks == [3]


def test_a_negative_value_takes_fsum(fallbacks):
    assert_fsum_bits([[1.0, -0.25, 2.0**-60], [1.0, 2.0]])
    assert fallbacks == [3]


def test_norm_columns_batches_one_call_per_r_for_b_and_per_triple_for_f(kernel_calls):
    stack = random_stack(np.random.default_rng(244), FieldConfig("laurent", 3), 5, -1, 2)
    blocks = len(decomp._all_blocks(stack))
    srt_list = [(0.5, 2.0, 2.0), (0.25, 2.0, 3.0), (1.0, 1.5, 1.0), (0.5, 3.0, 3.0)]
    norm_columns(stack, srt_list, "B")
    # distinct r: 2, 1.5, 3; r = 2 puts re^2 and im^2 of each row in two segments
    assert sorted(kernel_calls) == [5 * blocks, 5 * blocks, 2 * 5 * blocks]
    kernel_calls.clear()
    norm_columns(stack, srt_list, "F")
    assert kernel_calls == [5] * len(srt_list)
    kernel_calls.clear()
    norm_columns(stack, srt_list)  # the block table holds each r's B sums already
    assert kernel_calls == [5] * len(srt_list)
    kernel_calls.clear()
    decomp._block_table.cache_clear()
    norm_columns(stack, srt_list)
    assert len(kernel_calls) == 3 + len(srt_list)
    kernel_calls.clear()
    lr_norms(stack, 2)
    fourier.spectral_l2_norm(fourier.forward(TestFunction(stack.config, -1, 2, stack.values[0])))
    assert kernel_calls == [10, 2]


def test_no_row_of_the_default_corpus_falls_back_to_fsum(fallbacks, kernel_calls):
    run_verification()
    assert kernel_calls and fallbacks == []


def test_no_row_of_a_large_window_function_falls_back_to_fsum(fallbacks, kernel_calls):
    rng = np.random.default_rng([42, 1])
    for mode in ("padic", "laurent"):
        f = TestFunction(FieldConfig(mode, 2), -7, 7, rng.random(2**14) + 1j * rng.random(2**14))
        for s, r, t in DEFAULT_SRT_LIST:
            besov_norm(f, s, r, t)
            triebel_lizorkin_norm(f, s, r, t)
        for r in (1.5, 2.0, 3.0):
            lebesgue_norm_report(f, r)
        fourier.spectral_l2_norm(fourier.forward(f))
    assert kernel_calls and fallbacks == []


class _References(ast.NodeVisitor):
    """The enclosing function of every reference to exact_sums in one module's source."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Name(self, node):
        if node.id == "exact_sums":
            self.found.append(".".join(self.scope))

    def visit_Attribute(self, node):
        if node.attr == "exact_sums":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_exact_sums_has_one_caller_and_no_importer():
    # every norm of the package sums through functions.lr_norms_of_parts, so no
    # second route can round, scale or overflow its sums differently
    callers, importers = [], []
    for path in sorted((SRC / "localfield").glob("*.py")):
        tree = ast.parse(path.read_text())
        importers += [path.stem for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names if alias.name == "exact_sums"]
        refs = _References()
        refs.visit(tree)
        callers += [(path.stem, scope) for scope in refs.found]
    assert callers == [("functions", "lr_norms_of_parts")]
    assert importers == []


def _imported_or_named(tree) -> set:
    """Every name a module imports, reads or takes as an attribute."""
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
            | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_verify_builds_every_operator_output_through_operators():
    # every operator output verify measures comes from operators' cached multipliers
    # (apply_truncated, apply_shell): no convolution of its own, no shell piece to
    # transform again, and no second atom check
    tree = ast.parse((SRC / "localfield" / "verify.py").read_text())
    assert not {"convolve", "shell_piece", "apply_atom_operator"} & _imported_or_named(tree)
    assert {"apply_truncated", "apply_shell"} <= _imported_or_named(tree)


def test_window_spectrum_is_the_one_forward_transform_of_a_refined_function():
    # a window DFT of refine(...) anywhere in the package is functions.window_spectrum's
    found = []
    for path in sorted((SRC / "localfield").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                found += [(path.stem, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "dft" and "refine(" in ast.unparse(node)]
    assert found == [("functions", "window_spectrum")]
