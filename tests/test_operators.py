"""Truncated convolution operator: shell sums, per-atom version, spectral sups."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from localfield.field import Ball, FieldConfig, FieldElement, Window, valuation
from localfield.fourier import forward, forward_naive
from localfield.functions import (
    TestFunction,
    coarsen_resolution,
    convolve,
    evaluate,
    from_indicator_combo,
    lr_norm,
    max_difference,
)
from localfield.kernels import (
    atomic_decompose,
    evaluate_homogeneous,
    kernel_as_test_function,
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
    sphere_integral,
    tail_cutoff,
    truncation_kernel,
)
from localfield.verify import generate_corpus
from util import (CONFIGS, integral, kernel_resolution_spec, naive_sphere_sum, naive_truncated,
                  random_element, translate)

Q2 = FieldConfig("padic", 2)
Q3 = FieldConfig("padic", 3)


def random_kernel(rng, config, m):
    n = sphere_cell_count(config, m)
    v = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return mean_zero_project(make_kernel(config, v, m))


def random_fn(rng, config, a, l):
    n = config.p ** (l - a)
    return TestFunction(config, a, l, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def unit_ball_indicator(config):
    return from_indicator_combo(config, [(1.0, Ball(FieldElement.zero(config), 0))])


# -- sphere integrals


def test_sphere_integral_zero_kernel():
    rng = np.random.default_rng(30)
    for config in CONFIGS:
        kern = make_kernel(config, np.zeros(sphere_cell_count(config, 2)), 2)
        f = random_fn(rng, config, -1, 2)
        for j in (-2, 0, 1):
            x = random_element(rng, config, -2, 3, 5, allow_zero=True)
            assert sphere_integral(f, kern, j, x) == 0


def test_sphere_integral_constant_on_shell():
    # f identically 1 on the shell around x: mean zero kills the integral
    rng = np.random.default_rng(31)
    for config in CONFIGS:
        kern = random_kernel(rng, config, 2)
        f = unit_ball_indicator(config)
        for j in (-3, -2, -1):
            assert sphere_integral(f, kern, j, FieldElement.zero(config)) == 0
        for j in (0, 2):
            # shell lies outside the support of f entirely
            assert sphere_integral(f, kern, j, FieldElement.zero(config)) == 0


def test_sphere_integral_example_and_oracle():
    kern = make_kernel(Q2, [1, -1], 2)
    f = unit_ball_indicator(Q2)
    x0 = FieldElement.zero(Q2)
    assert sphere_integral(f, kern, -1, x0) == naive_sphere_sum(f, kern, -1, x0) == 0
    rng = np.random.default_rng(32)
    for config in CONFIGS:
        kern = random_kernel(rng, config, 2)
        f = random_fn(rng, config, -1, 2)
        for j in (-2, -1, 0, 1):
            for _ in range(3):
                x = random_element(rng, config, -2, 2, 4, allow_zero=True)
                got = sphere_integral(f, kern, j, x)
                assert abs(got - naive_sphere_sum(f, kern, j, x)) < 1e-12


def test_sphere_integral_linearity():
    rng = np.random.default_rng(33)
    config = Q3
    k1 = random_kernel(rng, config, 2)
    k2 = random_kernel(rng, config, 2)
    ks = make_kernel(config, k1.values + k2.values, 2)
    f1 = random_fn(rng, config, 0, 2)
    f2 = random_fn(rng, config, 0, 2)
    fs = TestFunction(config, 0, 2, f1.values + f2.values)
    x = random_element(rng, config, -1, 2, 4, allow_zero=True)
    for j in (-1, 0):
        a = sphere_integral(f1, ks, j, x)
        b = sphere_integral(f1, k1, j, x) + sphere_integral(f1, k2, j, x)
        assert abs(a - b) < 1e-12
        c = sphere_integral(fs, k1, j, x)
        d = sphere_integral(f1, k1, j, x) + sphere_integral(f2, k1, j, x)
        assert abs(c - d) < 1e-12


# -- shell pieces as operator building blocks


def test_shell_piece_invariants():
    rng = np.random.default_rng(34)
    for config in CONFIGS:
        kern = random_kernel(rng, config, 2)
        for j in (-2, 0, 1):
            piece = shell_piece(kern, j)
            levels = piece.window.valuation_levels()
            off = piece.values[levels != -(j + 1)]
            assert off.size == 0 or np.all(off == 0)
            assert integral(piece) == 0


def test_truncation_kernel_matches_pieces():
    rng = np.random.default_rng(35)
    kern = random_kernel(rng, Q2, 2)
    K = truncation_kernel(kern, -2, 1, 3)  # l = m - (k + 1): nothing to average
    w = K.window
    assert (K.a, K.l) == (-2, 3)
    for _ in range(25):
        y = random_element(rng, Q2, -3, 4, 6, allow_zero=True)
        v = valuation(y)
        want = 0j
        if isinstance(v, int) and -2 + 1 <= -v <= 1 + 1:
            want = float(Fraction(2) ** v) * evaluate_homogeneous(kern, y)
        assert abs(evaluate(K, y) - want) < 1e-15


# -- the truncated operator


def test_apply_truncated_unit_ball_example():
    kern = make_kernel(Q2, [1, -1], 2)
    f = unit_ball_indicator(Q2)
    spec = TruncationSpec(-3, -3, 2)
    got = apply_truncated(f, kern, spec)
    want = naive_truncated(f, kern, spec)
    assert np.max(np.abs(got.values - want.values)) < 1e-12
    # constant on every shell around points of the unit ball: vanishes there
    levels = got.window.valuation_levels()
    assert np.max(np.abs(got.values[levels >= 0])) < 1e-12


def test_apply_truncated_matches_naive_oracle():
    rng = np.random.default_rng(36)
    cases = [
        (Q2, 2, (-1, 2), TruncationSpec(-3, -2, 2)),
        (Q2, 3, (0, 2), TruncationSpec(-2, -2, 3)),
        (Q3, 2, (-1, 1), TruncationSpec(-2, -1, 2)),
        (FieldConfig("laurent", 2), 2, (-1, 2), TruncationSpec(-2, -2, 2)),
        (FieldConfig("laurent", 3), 1, (0, 1), TruncationSpec(-2, -1, 1)),
    ]
    for config, m, (fa, fl), spec in cases:
        kern = random_kernel(rng, config, m)
        f = random_fn(rng, config, fa, fl)
        got = apply_truncated(f, kern, spec)
        want = naive_truncated(f, kern, spec)
        assert np.max(np.abs(got.values - want.values)) < 1e-12


def test_apply_truncated_matches_sphere_integral_route():
    # kernel resolution m - (k + 1) = 3 at k = -2 and 2 at k = -1, finer than l = 1;
    # at k = -3 and -4, below -l, the truncation kernel skips the shells j < -l,
    # which the definition-level sum still takes
    rng = np.random.default_rng(37)
    for config in CONFIGS:
        kern = random_kernel(rng, config, 2)
        f = random_fn(rng, config, 0, 1)
        for spec in (TruncationSpec(-2, -1, 2), resolution_spec(f, -1),
                     kernel_resolution_spec(f, kern.m, -2), resolution_spec(f, -3),
                     resolution_spec(f, -4), TruncationSpec(-4, -2, 2)):
            got = apply_truncated(f, kern, spec)
            w = got.window
            jmax = tail_cutoff(spec.out_a, f.a)
            for i in range(w.size):
                x = w.element(i)
                want = sum(
                    float(Fraction(config.q) ** (-(j + 1))) * sphere_integral(f, kern, j, x)
                    for j in range(spec.k, jmax + 1)
                )
                assert abs(got.values[i] - want) < 1e-12


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_convolution_with_a_finer_factor_equals_convolution_with_its_average(config):
    # f * g = f * E_l g for f constant on the cosets of P^l, one row or a stack
    rng = np.random.default_rng(54)
    rows = [random_fn(rng, config, -1, 1) for _ in range(3)]
    stack = TestFunction(config, -1, 1, np.stack([f.values for f in rows]))
    finer = [random_fn(rng, config, -2, 3), random_fn(rng, config, 0, 2),
             shell_piece(random_kernel(rng, config, 3), 0), random_fn(rng, config, 2, 3)]
    for g in finer:
        avg = coarsen_resolution(g, max(g.a, 1))  # never coarser than g's own support
        for f in rows + [stack]:
            want, got = convolve(f, g), convolve(f, avg)
            assert (got.a, got.l) == (want.a, max(g.a, 1))
            assert max_difference(got, want) <= 1e-12


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_apply_truncated_is_exactly_constant_on_the_cosets_of_f(config):
    # on kernel_resolution_spec's window, finer than f, the sibling cells of a
    # P^l coset are bit-equal
    rng = np.random.default_rng(56)
    kern = random_kernel(rng, config, 3)
    rows = [random_fn(rng, config, -1, 1) for _ in range(2)]
    stack = TestFunction(config, -1, 1, np.stack([f.values for f in rows]))
    for k in (-3, -2, -1):  # m - (k + 1) = 5, 4, 3 > l = 1
        for f in rows + [stack]:
            out = apply_truncated(f, kern, kernel_resolution_spec(f, kern.m, k))
            assert out.l == kern.m - (k + 1) > f.l
            siblings = out.values.reshape(out.values.shape[:-1] + (-1, config.p ** (f.l - out.a)))
            assert np.any(siblings != 0)
            assert np.array_equal(siblings, np.broadcast_to(siblings[..., :1, :], siblings.shape))


def dilate(f, n):
    """D_n f: the values of f on the window (a - n, l - n)."""
    return TestFunction(f.config, f.a - n, f.l - n, f.values)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_apply_truncated_commutes_with_dilation(config):
    # T_k(D_n f) = D_n(T_(k-n) f): T_k f's one window moves with f, and the
    # operator norm of T_k does not depend on k
    corpus = generate_corpus(config, 42, 3, (-2, 2), (2, 3))
    for f, kern, n, k in itertools.product(corpus.functions, corpus.kernels, (-2, -1, 1, 2),
                                           range(-3, 1)):
        g = dilate(f, n)
        lhs = apply_truncated(g, kern, resolution_spec(g, k))
        rhs = dilate(apply_truncated(f, kern, resolution_spec(f, k - n)), n)
        assert (lhs.a, lhs.l) == (rhs.a, rhs.l)
        if config.q == 2:
            assert lhs.values.tobytes() == rhs.values.tobytes()
        else:
            assert max_difference(lhs, rhs) <= 1e-12 * np.max(np.abs(rhs.values))


def test_apply_truncated_zero_kernel_and_empty_range():
    f = unit_ball_indicator(Q2)
    zk = make_kernel(Q2, [0.0, 0.0], 2)
    out = apply_truncated(f, zk, TruncationSpec(-2, -2, 1))
    assert np.all(out.values == 0)
    # truncation beyond the largest reachable shell: identically zero
    out2 = apply_truncated(f, make_kernel(Q2, [1, -1], 2), TruncationSpec(5, -1, 1))
    assert np.all(out2.values == 0)


def test_apply_truncated_linearity():
    rng = np.random.default_rng(38)
    config = Q2
    spec = TruncationSpec(-2, -2, 2)
    k1 = random_kernel(rng, config, 2)
    k2 = random_kernel(rng, config, 2)
    ks = make_kernel(config, k1.values + k2.values, 2)
    f1 = random_fn(rng, config, -1, 2)
    f2 = random_fn(rng, config, -1, 2)
    fs = TestFunction(config, -1, 2, f1.values + f2.values)
    a = apply_truncated(f1, ks, spec).values
    b = apply_truncated(f1, k1, spec).values + apply_truncated(f1, k2, spec).values
    assert np.max(np.abs(a - b)) < 1e-12
    c = apply_truncated(fs, k1, spec).values
    d = apply_truncated(f1, k1, spec).values + apply_truncated(f2, k1, spec).values
    assert np.max(np.abs(c - d)) < 1e-12


def test_apply_truncated_annihilates_locally_constant():
    rng = np.random.default_rng(39)
    for config in CONFIGS:
        kern = random_kernel(rng, config, 2)
        for s in (0, 1):
            f = from_indicator_combo(config, [(1.0, Ball(FieldElement.zero(config), s))])
            out = apply_truncated(f, kern, TruncationSpec(-3, s, s + 2))
            assert np.max(np.abs(out.values)) < 1e-12


def test_apply_truncated_rejections():
    f = unit_ball_indicator(Q2)
    with pytest.raises(ValueError):
        apply_truncated(f, make_kernel(Q2, [1.0, 1.0], 2), TruncationSpec(-1, -1, 1))
    with pytest.raises(ValueError):
        apply_truncated(f, make_kernel(Q3, [1, 0, 0, -1, 0, 0], 2), TruncationSpec(-1, -1, 1))
    with pytest.raises(ValueError):
        TruncationSpec(-1, 2, 1)
    # a window narrower than the support of f cannot hold T_k f
    with pytest.raises(ValueError):
        apply_truncated(f, make_kernel(Q2, [1, -1], 2), TruncationSpec(-2, f.a + 1, f.l + 1))


def test_apply_truncated_refuses_lossy_resolution():
    # mass concentrated two levels deep makes the output non-constant on
    # unit-ball cells, so resolution 0 cannot represent it
    f = from_indicator_combo(Q2, [(1.0, Ball(FieldElement.zero(Q2), 2))])
    kern = make_kernel(Q2, [1, -1], 2)
    with pytest.raises(ValueError):
        apply_truncated(f, kern, TruncationSpec(-2, -2, 0))


def test_truncation_spec_serialization():
    spec = TruncationSpec(-3, -2, 4)
    assert spec.to_dict() == {"k": -3, "out_a": -2, "out_l": 4}


# -- the per-atom operator


@pytest.mark.parametrize("strategy", ["scaled", "haar"])
def test_splitting_identity(strategy):
    rng = np.random.default_rng(40)
    for config in (Q3, FieldConfig("laurent", 2)):
        kern = random_kernel(rng, config, 2)
        f = random_fn(rng, config, -1, 1)
        spec = TruncationSpec(-2, -2, 2)
        whole = apply_truncated(f, kern, spec)
        dec = atomic_decompose(kern, strategy=strategy)
        parts = np.zeros_like(whole.values)
        for lam, atom in dec.terms:
            parts += lam * apply_atom_operator(f, atom, spec).values
        assert np.max(np.abs(whole.values - parts)) < 1e-10


def test_atom_operator_zero_function():
    z = TestFunction(Q2, -1, 1, np.zeros(4, dtype=complex))
    atom = make_kernel(Q2, [2.0, -2.0], 2)
    out = apply_atom_operator(z, atom, TruncationSpec(-2, -2, 1))
    assert np.all(out.values == 0)


def test_atom_operator_rejects_invalid():
    f = unit_ball_indicator(Q2)
    with pytest.raises(ValueError):
        apply_atom_operator(f, make_kernel(Q2, [4.0, 0.0], 2), TruncationSpec(-1, -1, 1))


def test_atom_operator_translation_commutes():
    rng = np.random.default_rng(41)
    for config in (Q2, FieldConfig("laurent", 3)):
        atom_vals = np.zeros(sphere_cell_count(config, 2), dtype=complex)
        atom_vals[0], atom_vals[-1] = 1.0, -1.0
        atom = make_kernel(config, atom_vals, 2)
        f = random_fn(rng, config, -1, 2)
        spec = TruncationSpec(-2, -1, 2)
        for _ in range(5):
            h = random_element(rng, config, -1, 2, 4, allow_zero=False)
            lhs = apply_atom_operator(translate(f, h), atom, spec)
            rhs = translate(apply_atom_operator(f, atom, spec), h)
            assert (lhs.a, lhs.l) == (rhs.a, rhs.l)
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


# -- spectral sup bounds for shell pieces


def spectral_sup(f: TestFunction) -> float:
    F = forward(f)
    return float(np.max(np.hypot(F.values.real, F.values.imag)))


def test_spectral_sup_reading_b_at_most_one():
    # reading B keeps the atom on the unit sphere for every j
    rng = np.random.default_rng(42)
    for config in CONFIGS:
        kern = random_kernel(rng, config, 2)
        for _, atom in atomic_decompose(kern).terms:
            assert spectral_sup(kernel_as_test_function(atom)) <= 1 + 1e-12


def test_spectral_sup_readings_coincide_at_minus_one():
    # reading A extends the atom onto the shell of radius q^(j+1); at j = -1
    # that shell is the unit sphere
    rng = np.random.default_rng(43)
    for config in CONFIGS:
        kern = random_kernel(rng, config, 3)
        (_, atom), *_ = atomic_decompose(kern).terms
        assert spectral_sup(shell_piece(atom, -1)) == spectral_sup(kernel_as_test_function(atom))


def test_spectral_sup_against_naive_transform():
    rng = np.random.default_rng(44)
    kern = random_kernel(rng, Q2, 2)
    (_, atom), *_ = atomic_decompose(kern).terms
    spec_naive = forward_naive(shell_piece(atom, 0))
    want = float(np.max(np.abs(spec_naive.values)))
    assert np.isclose(spectral_sup(shell_piece(atom, 0)), want, rtol=1e-12)


# -- the truncation-kernel cache


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_cached_truncation_kernel_equals_uncached(config):
    rng = np.random.default_rng(36)
    kern, other = random_kernel(rng, config, 2), random_kernel(rng, config, 2)
    # l = 3 is never finer than the kernel's own resolution, l = 0 is finer at every k
    for (k, jmax), l in itertools.product(((-2, 1), (-1, 1), (0, 2)), (3, 0)):
        cached = truncation_kernel(kern, k, jmax, l)
        assert truncation_kernel(kern, k, jmax, l) is cached
        direct = truncation_kernel.__wrapped__(kern, k, jmax, l)
        assert (cached.a, cached.l) == (direct.a, direct.l) == (-(jmax + 1), min(1 - k, l))
        assert cached.values.tobytes() == direct.values.tobytes()
        # same resolution, different values: a different cache entry
        assert not np.array_equal(truncation_kernel(other, k, jmax, l).values, cached.values)
        # the input's resolution is part of the key: the averaged kernel is its own entry
        full = truncation_kernel(kern, k, jmax, 3)
        if l < full.l:
            assert cached is not full
            # the sum of averaged shell pieces is the average of the full kernel: bit
            # for bit at q = 2 here, otherwise up to the rounding of the sum order
            avg = coarsen_resolution(full, l)
            if config.q == 2:
                assert np.array_equal(cached.values, avg.values)
            else:
                assert max_difference(cached, avg) <= 1e-12 * np.max(np.abs(full.values))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_stacked_operators_equal_one_function_route_bit_for_bit(config):
    rng = np.random.default_rng(53)
    rows = [random_fn(rng, config, -1, 2) for _ in range(3)] + [TestFunction.zero(config, -1, 2)]
    stack = TestFunction(config, -1, 2, np.stack([f.values for f in rows]))
    kern = random_kernel(rng, config, 2)
    atom = atomic_decompose(kern).terms[0][1]
    for k in (-2, 0, 5):  # k = 5 lies past the tail cutoff: all-zero output
        spec = TruncationSpec(k, -2, max(2, kern.m - (k + 1)))
        for op, kernel in ((apply_truncated, kern), (apply_atom_operator, atom)):
            out = op(stack, kernel, spec)
            assert out.values.shape == (len(rows), Window(config, spec.out_a, spec.out_l).size)
            for i, f in enumerate(rows):
                assert out.values[i].tobytes() == op(f, kernel, spec).values.tobytes()
