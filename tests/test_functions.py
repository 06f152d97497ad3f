"""Test-function representation, norms, translation, and convolution."""

import math
from fractions import Fraction

import numpy as np
import pytest

from localfield.decomp import check_cz_clauses, cz_decompose, norm_columns
from localfield.field import Ball, FieldConfig, FieldElement, add, enumerate_cosets, negate
from localfield.functions import (
    TestFunction,
    coarsen_resolution,
    convolve,
    coset_tree,
    dyadic_ints,
    evaluate,
    from_indicator_combo,
    lift,
    lr_norm,
    lr_norms,
    common_refinement,
    max_difference,
    refine,
    weak_level_measures,
)
from localfield.kernels import atomic_decompose, make_kernel, mean_zero_project, sphere_cell_count
from localfield.verify import run_verification
from util import (CONFIGS, add_functions, index_refine, one, one_shot_coarsen, random_element,
                  scalar_multiple, translate)

Q2 = FieldConfig("padic", 2)
Q3 = FieldConfig("padic", 3)


def unit_ball_indicator(config):
    return from_indicator_combo(config, [(1, Ball(FieldElement.zero(config), 0))])


def random_function(rng, config, a=-2, l=2):
    n = config.p ** (l - a)
    vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return TestFunction(config, a, l, vals)


class TestConstruction:
    def test_unit_ball(self):
        f = unit_ball_indicator(Q2)
        assert (f.a, f.l) == (0, 0)
        assert f.values.tolist() == [1]

    def test_cancelling_combo(self):
        b = Ball(FieldElement.zero(Q2), 0)
        f = from_indicator_combo(Q2, [(1, b), (-1, b)])
        assert np.all(f.values == 0)

    def test_disjoint_cosets(self):
        f = from_indicator_combo(
            Q2, [(2, Ball(FieldElement.zero(Q2), 1)), (3, Ball(one(Q2), 1))])
        assert (f.a, f.l) == (0, 1)
        assert f.values.tolist() == [2, 3]

    def test_empty_combo_is_zero(self):
        f = from_indicator_combo(Q2, [])
        assert np.all(f.values == 0)

    def test_evaluate_matches_indicator_sum(self):
        rng = np.random.default_rng(21)
        for config in CONFIGS:
            terms = [(complex(rng.uniform(-1, 1)), Ball(random_element(rng, config, -2, 2), int(rng.integers(-1, 3))))
                     for _ in range(4)]
            f = from_indicator_combo(config, terms)
            for _ in range(25):
                x = random_element(rng, config, -3, 3)
                direct = sum(c for c, b in terms if b.contains(x))
                assert evaluate(f, x) == pytest.approx(complex(direct), abs=1e-14)

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TestFunction(Q2, 0, 2, np.ones(3))


class TestEvaluate:
    def test_inside(self):
        f = unit_ball_indicator(Q2)
        assert evaluate(f, FieldElement.make(Q2, 1, [1])) == 1

    def test_outside(self):
        f = unit_ball_indicator(Q2)
        assert evaluate(f, FieldElement.make(Q2, -1, [1])) == 0


class TestWindowing:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_refine_preserves_function(self, config):
        rng = np.random.default_rng(22)
        f = random_function(rng, config, a=-1, l=1)
        g = refine(f, -2, 3)
        for _ in range(50):
            x = random_element(rng, config, -3, 4)
            assert evaluate(f, x) == evaluate(g, x)

    def test_refine_then_coarsen_roundtrip(self):
        rng = np.random.default_rng(23)
        for config in CONFIGS:
            f = random_function(rng, config, a=0, l=1)
            # coarsening averages q^2 equal copies of each value: exact up to rounding
            g = coarsen_resolution(refine(f, -2, 3), 1)
            assert (g.a, g.l) == (-2, 1)
            assert max_difference(f, g) <= 1e-15

    def test_coarsen_exact_when_constant(self):
        f = refine(unit_ball_indicator(Q3), -1, 2)
        g = coarsen_resolution(f, 0)
        assert (g.a, g.l) == (-1, 0)
        assert max_difference(f, g) == 0


def test_refine_refuses_a_window_past_int64_indices():
    # 2^63 and 3^40 cells: refused before np.arange turns to floats or allocates
    for config, e in ((Q2, 63), (Q3, 40), (Q2, 10**6)):
        with pytest.raises(ValueError, match=f"has {config.p}\\^{e} cells"):
            refine(TestFunction(config, 0, 1, np.ones(config.p)), 1 - e, 1)


def with_signed_zeros(rng, shape):
    # complex values whose parts include +0.0 and -0.0, so a copy must keep the sign of zero
    parts = rng.uniform(-1, 1, (2, *shape))
    parts[rng.random(parts.shape) < 0.3] = 0.0
    parts[rng.random(parts.shape) < 0.5] *= -1
    return parts[0] + 1j * parts[1]


def same_bits(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("config", CONFIGS, ids=str)
@pytest.mark.parametrize("rows", [(), (3,)], ids=["one-row", "stacked"])
@pytest.mark.parametrize("a_new, l_new", [(-3, 1), (-1, 3), (-3, 2), (-1, 1)],
                         ids=["pad", "lift", "both", "no-op"])
def test_refine_equals_the_index_route_bit_for_bit(config, rows, a_new, l_new):
    rng = np.random.default_rng(2500 + config.p)
    f = TestFunction(config, -1, 1, with_signed_zeros(rng, (*rows, config.p**2)))
    got, want = refine(f, a_new, l_new), index_refine(f, a_new, l_new)
    assert (got.a, got.l) == (want.a, want.l) == (a_new, l_new)
    assert same_bits(got.values, want.values)


@pytest.mark.parametrize("config", CONFIGS, ids=str)
@pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.bool_])
@pytest.mark.parametrize("rows", [(), (3,)], ids=["one-row", "stacked"])
def test_lift_equals_np_tile_bit_for_bit(config, dtype, rows):
    rng = np.random.default_rng(2510 + config.p)
    values = with_signed_zeros(rng, (*rows, config.p**2))
    values = {np.complex128: values, np.float64: values.real, np.bool_: values.real > 0}[dtype]
    for levels in range(4):
        size = config.p ** (2 + levels)
        got = lift(values, size)
        assert same_bits(got, np.tile(values, size // config.p**2))
        assert got.flags.writeable and not np.shares_memory(got, values)


def test_no_production_path_calls_np_tile(monkeypatch):
    # every upward step of the coset tree is functions.lift
    def refused(*args, **kwargs):
        raise AssertionError("np.tile called")

    monkeypatch.setattr(np, "tile", refused)
    rng = np.random.default_rng(2520)
    for config in CONFIGS:
        f = TestFunction(config, 1, 3, rng.uniform(-1, 1, (2, config.p**2)))
        norm_columns(f, [(0.5, 2.0, 2.0), (1.0, 1.5, 3.0)])
        g = TestFunction(config, -1, 2, rng.uniform(0, 1, config.p**3))
        dec = cz_decompose(g, 1.5 * float(np.mean(g.values.real)), g.a)
        clauses, _ = check_cz_clauses(g, dec)
        assert dec.balls and all(clauses.values())
        kern = make_kernel(config, rng.uniform(-1, 1, sphere_cell_count(config, 3)), 3)
        atomic_decompose(mean_zero_project(kern), strategy="haar")
    run_verification()


class TestTranslate:
    def test_translate_by_zero(self):
        rng = np.random.default_rng(25)
        f = random_function(rng, Q2)
        assert translate(f, FieldElement.zero(Q2)) is f

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_translate_roundtrip(self, config):
        rng = np.random.default_rng(26)
        f = random_function(rng, config, a=-1, l=2)
        h = random_element(rng, config, -2, 3, allow_zero=False)
        back = translate(translate(f, h), negate(h, f.l))
        assert max_difference(f, back) == 0

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_translate_pointwise(self, config):
        rng = np.random.default_rng(27)
        f = random_function(rng, config, a=-1, l=2)
        h = random_element(rng, config, -2, 2, allow_zero=False)
        g = translate(f, h)
        for _ in range(40):
            x = random_element(rng, config, -3, 3)
            # g(x + h) should equal f(x)
            assert evaluate(g, add(x, h)) == pytest.approx(evaluate(f, x), abs=0)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_haar_invariance_exact(self, config):
        rng = np.random.default_rng(28)
        for _ in range(20):
            f = random_function(rng, config, a=-1, l=2)
            h = random_element(rng, config, -3, 3)
            for r in (1, 1.5, 2, 3):
                assert lr_norm(translate(f, h), r) == lr_norm(f, r)


class TestNorms:
    def test_unit_ball_every_r(self):
        f = unit_ball_indicator(Q3)
        for r in (1, 1.5, 2, 7):
            assert lr_norm(f, r) == 1.0

    def test_small_ball_l1(self):
        for config in CONFIGS:
            pb = from_indicator_combo(config, [(1, Ball(FieldElement.zero(config), 1))])
            assert lr_norm(pb, 1) == pytest.approx(1 / config.q, abs=0)

    def test_brute_force_l2(self):
        rng = np.random.default_rng(29)
        f = random_function(rng, Q2, a=-1, l=2)
        brute = (sum(abs(v) ** 2 for v in f.values) * 0.25) ** 0.5
        assert lr_norm(f, 2) == pytest.approx(brute, rel=1e-15)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            lr_norm(unit_ball_indicator(Q2), 0.5)

    def test_weak_measure_unit_ball(self):
        f = unit_ball_indicator(Q2)
        assert weak_level_measures(f, [0.5, 2]) == [[1], [0]]
        # the measure is a count of cells of measure q^-l: all 8 of (0, 3), 4 of the 8 of (-1, 2)
        assert weak_level_measures(refine(f, 0, 3), [0.5]) == [[8]]
        assert weak_level_measures(refine(f, -1, 2), [0.5]) == [[4]]
        assert weak_level_measures(f, []) == []

    def test_weak_measure_rejects_bad_level(self):
        for levels in ([0], [0.5, 0]):
            with pytest.raises(ValueError):
                weak_level_measures(unit_ball_indicator(Q2), levels)

    def test_weak_measures_of_all_levels_take_one_modulus_pass(self, monkeypatch):
        rng = np.random.default_rng(31)
        stack = TestFunction(Q2, -1, 2, rng.random((4, 8)) + 1j * rng.random((4, 8)))
        levels = [0.25, 0.5, 1.0, 1.25, 4.0]
        moduli = np.hypot(stack.values.real, stack.values.imag)
        want = [[int(np.count_nonzero(row > lam)) for row in moduli] for lam in levels]
        hypot, calls = np.hypot, []
        monkeypatch.setattr(np, "hypot", lambda *args: calls.append(1) or hypot(*args))
        assert weak_level_measures(stack, levels) == want
        assert calls == [1]

    def test_chebyshev(self):
        rng = np.random.default_rng(30)
        for config in CONFIGS[:2]:
            for _ in range(25):
                f = random_function(rng, config)
                lam = rng.uniform(0.05, 2)
                ((count,),) = weak_level_measures(f, [lam])
                assert float(count * f.cell_measure) <= lr_norm(f, 2) ** 2 / lam**2 + 1e-15


class TestConvolve:
    def test_idempotent_unit_ball(self):
        f = unit_ball_indicator(Q2)
        g = convolve(f, f)
        assert max_difference(f, g) == 0

    def test_zero_annihilates(self):
        rng = np.random.default_rng(31)
        f = random_function(rng, Q2)
        z = TestFunction.zero(Q2)
        assert max_difference(convolve(f, z), z) == 0

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_against_double_sum(self, config):
        rng = np.random.default_rng(32)
        f = random_function(rng, config, a=-1, l=2)
        g = random_function(rng, config, a=-1, l=2)
        h = convolve(f, g)
        cells = enumerate_cosets(config, -1, 2)
        meas = float(Fraction(config.q) ** (-2))
        for x in cells[:12]:
            want = sum(evaluate(f, y) * evaluate(g, add(x, negate(y, 2))) for y in cells) * meas
            assert evaluate(h, x) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_convolve_matches_sub_table_oracle(self, config, size):
        # the gather-sum over the quotient group's subtraction table, by definition
        rng = np.random.default_rng(33)
        a, l = (-1, 2) if size == "small" else (-2, 7) if config.p == 2 else (-2, 4)
        f = random_function(rng, config, a=a, l=l)
        g = random_function(rng, config, a=a, l=l)
        h = convolve(f, g)
        w = f.window
        direct = g.values[w.sub_table()] @ f.values * float(Fraction(config.q) ** (-l))
        assert np.max(np.abs(h.values - direct)) < 1e-12

    def test_young_l1(self):
        rng = np.random.default_rng(34)
        for config in CONFIGS:
            for _ in range(25):
                f = random_function(rng, config, a=-1, l=2)
                g = random_function(rng, config, a=-1, l=2)
                assert lr_norm(convolve(f, g), 1) <= lr_norm(f, 1) * lr_norm(g, 1) * (1 + 1e-14)

    def test_linf_bound(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            f = random_function(rng, Q3, a=-1, l=1)
            g = random_function(rng, Q3, a=-1, l=1)
            h = convolve(f, g)
            bound = max(abs(v) for v in f.values) * lr_norm(g, 1)
            assert max(abs(v) for v in h.values) <= bound * (1 + 1e-14)


class TestPointwise:
    def test_add_cancel(self):
        # f and -f on a finer window cancel cell by cell on the common refinement
        rng = np.random.default_rng(36)
        f = random_function(rng, Q2)
        rf, rg = common_refinement(f, scalar_multiple(refine(f, -3, 3), -1))
        assert (rf.a, rf.l) == (-3, 3)
        assert np.all(rf.values + rg.values == 0)

    def test_scale_norm_homogeneity(self):
        rng = np.random.default_rng(37)
        f = random_function(rng, Q2)
        g = scalar_multiple(f, 2)
        for r in (1, 2, 3):
            assert lr_norm(g, r) == pytest.approx(2 * lr_norm(f, r), rel=1e-15)

    def test_add_evaluates_pointwise(self):
        rng = np.random.default_rng(38)
        f = random_function(rng, Q2, a=0, l=2)
        g = random_function(rng, Q2, a=-1, l=1)
        s = add_functions(f, g)
        for _ in range(30):
            x = random_element(rng, Q2, -2, 3)
            assert evaluate(s, x) == evaluate(f, x) + evaluate(g, x)


class TestMinkowskiCountingForm:
    def test_family_inequality(self):
        # l^r norm of the integrals is at most the integral of the l^r norms
        rng = np.random.default_rng(39)
        for config in CONFIGS[:2]:
            for _ in range(10):
                fam = [random_function(rng, config, a=-1, l=2) for _ in range(5)]
                r = float(rng.uniform(1, 4))
                meas = float(Fraction(config.q) ** (-2))
                lhs = sum((np.abs(f.values).sum() * meas) ** r for f in fam) ** (1 / r)
                mags = np.stack([np.abs(f.values) for f in fam])
                pointwise = (mags**r).sum(axis=0) ** (1 / r)
                rhs = pointwise.sum() * meas
                assert lhs <= rhs * (1 + 1e-9)


class TestStacks:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_rows_equal_the_one_function_route_bit_for_bit(self, config):
        rng = np.random.default_rng(51)
        rows = [random_function(rng, config, a=-1, l=2) for _ in range(3)]
        rows.append(TestFunction.zero(config, -1, 2))
        stack = TestFunction(config, -1, 2, np.stack([f.values for f in rows]))
        g = random_function(rng, config, a=-2, l=1)
        ops = [lambda f: refine(f, -3, 3), lambda f: coarsen_resolution(f, 0),
               lambda f: convolve(f, g), lambda f: convolve(g, f)]
        for op in ops:
            out = op(stack)
            for i, f in enumerate(rows):
                one_row = op(f)
                assert (out.a, out.l) == (one_row.a, one_row.l)
                assert out.values[i].tobytes() == one_row.values.tobytes()
        w = stack.window
        for inverse in (False, True):
            want = np.stack([w.dft(f.values, inverse) for f in rows])
            assert w.dft(stack.values, inverse).tobytes() == want.tobytes()
        for r in (1, 1.5, 2, 3):
            assert lr_norms(stack, r) == [lr_norm(f, r) for f in rows]
        levels = (0.1, 0.5, 2.0)
        assert weak_level_measures(stack, levels) == \
            [[weak_level_measures(f, [lam])[0][0] for f in rows] for lam in levels]

    def test_shapes_and_one_function_forms(self):
        with pytest.raises(ValueError):
            TestFunction(Q2, 0, 1, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            TestFunction(Q2, 0, 1, np.zeros((1, 2, 2)))
        stack = TestFunction(Q2, 0, 1, np.ones((2, 2)))
        with pytest.raises(ValueError):  # a stack has no single norm
            lr_norm(stack, 2)


def test_dyadic_ints_are_exact():
    rng = np.random.default_rng(12)
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -2.5, 2.0**60, 1.7976931348623157e308]
    spread = rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-300, 300, (3, 7))
    for vals in (np.array(edge), spread):
        ints, den = dyadic_ints(vals)
        assert ints.shape == vals.shape and ints.dtype == object
        assert den & (den - 1) == 0  # a power of two
        assert all(type(n) is int and Fraction(n, den) == Fraction(x)
                   for n, x in zip(ints.ravel(), vals.ravel()))
    ints, den = dyadic_ints(np.zeros(0))
    assert ints.shape == (0,) and den == 1
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            dyadic_ints([1.0, bad])


class TestCosetTree:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_coarsen_resolution_matches_the_one_shot_mean(self, config):
        # chained one-level means against one mean over each coset, on a stack and its rows
        rng = np.random.default_rng(61)
        rows = [random_function(rng, config, a=-2, l=2) for _ in range(3)]
        stack = TestFunction(config, -2, 2, np.stack([f.values for f in rows]))
        for f in (*rows, stack):
            tol = 1e-15 * float(np.max(np.abs(f.values)))
            for l_new in range(f.a, f.l + 1):
                got, want = coarsen_resolution(f, l_new), one_shot_coarsen(f, l_new)
                assert (got.a, got.l) == (want.a, want.l)
                assert got.values.shape == want.values.shape
                assert np.max(np.abs(got.values - want.values)) <= tol

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_integer_levels_are_the_exact_subtree_sums(self, config):
        # node t of level e holds the cells i = t mod q^(depth - e), for each row of a stack
        rng = np.random.default_rng(62)
        q, depth = config.p, 4
        vals = rng.uniform(0, 1, (2, q**depth))
        ints, den = dyadic_ints(vals)
        tree = coset_tree(ints, q, depth, np.sum)
        assert len(tree) == depth + 1 and tree[0] is ints
        for e, level in enumerate(tree):
            assert level.shape == (2, q ** (depth - e))
            for sums, row in zip(level, vals):
                for t, n in enumerate(sums):
                    cells = row[t::q ** (depth - e)]
                    assert Fraction(n, den) == sum(map(Fraction, cells), Fraction(0))
