"""Angular kernels, atoms, atomic decomposition, and the smoothness modulus."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from localfield.field import FieldConfig, FieldElement, Window, add, prime_shift, valuation
from localfield.functions import coarsen_resolution, evaluate, lr_norm, max_difference, refine
from localfield.kernels import (
    AngularKernel,
    _exactly_mean_zero,
    _haar_differences,
    _snap_zero_sum,
    _sup_bound_holds,
    atomic_decompose,
    evaluate_homogeneous,
    h1_upper_bound,
    kernel_as_test_function,
    kernel_window_indices,
    make_kernel,
    mean_zero_project,
    shell_piece,
    sphere_cell_count,
    taibleson_modulus,
    taibleson_terms,
    validate_atom,
)
from util import (CONFIGS, integral, kernel_order_haar_differences, one_shot_coarsen,
                  per_shift_taibleson_terms, random_element, seed42_corpus)

Q2 = FieldConfig("padic", 2)
Q3 = FieldConfig("padic", 3)


def random_kernel(rng, config, m, complex_vals=True):
    n = sphere_cell_count(config, m)
    v = rng.uniform(-1, 1, n).astype(complex)
    if complex_vals:
        v += 1j * rng.uniform(-1, 1, n)
    return mean_zero_project(make_kernel(config, v, m))


def integer_kernel(rng, config, m):
    # integer cells with the last one balancing the sum: exactly mean zero,
    # and sums of two such kernels stay exactly mean zero
    n = sphere_cell_count(config, m)
    v = rng.integers(-8, 9, n).astype(np.float64)
    v[-1] -= v.sum()
    k = make_kernel(config, v, m)
    assert k.is_mean_zero
    return k


# -- construction and the mean-zero flag


def test_make_kernel_examples():
    k = make_kernel(Q2, [1, -1], 2)
    assert k.is_mean_zero
    assert not make_kernel(Q2, [1, 1], 2).is_mean_zero
    assert make_kernel(Q3, [1, -1], 1).is_mean_zero


def test_make_kernel_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_kernel(Q2, [1, -1, 0], 2)
    with pytest.raises(ValueError):
        make_kernel(Q3, [1, -1], 2)
    with pytest.raises(ValueError):
        make_kernel(Q2, [1, -1], 0)


def test_cell_counts():
    assert sphere_cell_count(Q2, 3) == 4
    assert sphere_cell_count(Q3, 2) == 6
    for config in CONFIGS:
        for m in range(1, 4):
            assert make_kernel(config, np.zeros(sphere_cell_count(config, m)), m).m == m


def test_serialization_roundtrip():
    rng = np.random.default_rng(9)
    for config in CONFIGS:
        k = random_kernel(rng, config, 2)
        k2 = AngularKernel.from_dict(config, json.loads(json.dumps(k.to_dict())))
        assert k2.m == k.m
        assert np.array_equal(k2.values, k.values)
        assert k2.is_mean_zero


# -- mean-zero projection


def test_project_constant_to_zero():
    for config in CONFIGS:
        k = make_kernel(config, np.full(sphere_cell_count(config, 2), 0.7 - 0.3j), 2)
        out = mean_zero_project(k)
        assert np.all(out.values == 0)


def test_project_mean_zero_unchanged():
    k = make_kernel(Q2, [1, -1], 2)
    assert mean_zero_project(k) is k


def test_project_exact_integral_and_idempotence():
    rng = np.random.default_rng(11)
    for config in CONFIGS:
        v = rng.uniform(-1, 1, sphere_cell_count(config, 3)) + 1j * rng.uniform(
            -1, 1, sphere_cell_count(config, 3)
        )
        k = make_kernel(config, v, 3)
        out = mean_zero_project(k)
        # direct coset-sum oracle in exact rationals
        assert sum(Fraction(float(x)) for x in out.values.real) == 0
        assert sum(Fraction(float(x)) for x in out.values.imag) == 0
        assert mean_zero_project(out) is out
        naive = v - v.mean()
        assert np.max(np.abs(out.values - naive)) < 1e-12


# -- homogeneous evaluation and cell order


def test_evaluate_digit_example():
    k = make_kernel(Q2, [1, -1], 2)
    assert evaluate_homogeneous(k, FieldElement.make(Q2, 0, (1, 0))) == 1
    assert evaluate_homogeneous(k, FieldElement.make(Q2, 0, (1, 1))) == -1


def test_cell_order_convention():
    # leading digit outermost, remaining digits in dictionary order
    vals = np.arange(1.0, 2 * 9 + 1)
    k = make_kernel(Q3, vals, 3)
    pos = 0
    for c0 in (1, 2):
        for c1 in (0, 1, 2):
            for c2 in (0, 1, 2):
                y = FieldElement.make(Q3, 0, (c0, c1, c2))
                assert evaluate_homogeneous(k, y) == vals[pos]
                pos += 1


def test_prime_shift_invariance():
    rng = np.random.default_rng(12)
    for config in CONFIGS:
        k = random_kernel(rng, config, 3)
        for _ in range(25):
            y = random_element(rng, config, -4, 4, 7, allow_zero=False)
            base = evaluate_homogeneous(k, y)
            for j in (-2, 1, 5):
                assert evaluate_homogeneous(k, prime_shift(y, j)) == base


def test_evaluate_matches_window_lookup():
    # independent route: place the kernel on a window and evaluate there
    rng = np.random.default_rng(13)
    for config in CONFIGS:
        k = random_kernel(rng, config, 3)
        f = kernel_as_test_function(k)
        assert (f.a, f.l) == (0, 3)
        for _ in range(30):
            y = random_element(rng, config, -3, 3, 6, allow_zero=False)
            u = y
            while valuation(u) != 0:
                u = prime_shift(u, -valuation(u))
            assert evaluate_homogeneous(k, y) == evaluate(f, u)


def test_evaluate_rejects_zero():
    k = make_kernel(Q2, [1, -1], 2)
    with pytest.raises(ValueError):
        evaluate_homogeneous(k, FieldElement.zero(Q2))


def test_window_indices_cover_sphere():
    for config in CONFIGS:
        for m in (1, 2, 3):
            w = Window(config, 0, m)
            kw = kernel_window_indices(config, m)
            levels = w.valuation_levels()
            assert sorted(kw) == sorted(np.flatnonzero(levels == 0))


def test_kernel_as_test_function_integral():
    rng = np.random.default_rng(14)
    for config in CONFIGS:
        k = random_kernel(rng, config, 2)
        assert integral(kernel_as_test_function(k)) == 0
        sphere_l1 = math.fsum(np.hypot(k.values.real, k.values.imag)) * config.q ** (-k.m)
        assert np.isclose(lr_norm(kernel_as_test_function(k), 1), sphere_l1, rtol=1e-12)


# -- atom validation


def test_balanced_two_ball_atom_at_exact_bound():
    # sup sits exactly on (1 - 1/q)^{-1}; all three conditions must pass exactly
    assert validate_atom(make_kernel(Q2, [2.0, -2.0], 2)).valid
    assert validate_atom(make_kernel(Q3, [1.5, 0, 0, -1.5, 0, 0], 2)).valid


def test_atom_sup_violation():
    chk = validate_atom(make_kernel(Q2, [4.0, 0.0], 2))
    assert not chk.valid
    assert chk.violation == "sup_bound"
    # the check is exact, not tolerance-based
    eps = 2.0**-40
    chk2 = validate_atom(make_kernel(Q2, [2.0 + eps, -(2.0 + eps)], 2))
    assert not chk2.valid and chk2.violation == "sup_bound"


def test_atom_mean_violation():
    chk = validate_atom(make_kernel(Q2, [1.0, 0.5], 2))
    assert not chk.valid
    assert chk.violation == "mean"


def test_zero_is_valid_atom():
    assert validate_atom(make_kernel(Q2, [0.0, 0.0], 2)).valid


def fraction_sup_bound_holds(values, q: int) -> bool:
    bound = Fraction(q, q - 1) ** 2
    return all(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 <= bound for z in values)


def test_sup_bound_matches_fraction_next_to_the_bound():
    # 0.9^2 + 1.2^2 rounds to 2.25 = (3/2)^2 in floats; exactly it is below
    assert _sup_bound_holds(np.array([0.9 + 1.2j]), Q3) is True
    assert fraction_sup_bound_holds([0.9 + 1.2j], 3)
    assert _sup_bound_holds(np.array([2.0 + 0j]), Q2) is True
    assert _sup_bound_holds(np.array([complex(np.nextafter(2.0, 3.0), 0)]), Q2) is False
    rng = np.random.default_rng(8)
    outcomes = set()
    for config in (Q2, Q3):
        q = config.q
        for _ in range(200):
            r = q / (q - 1) * (1 + int(rng.integers(-4, 5)) * 2.0**-52)
            z = r * np.exp(2j * np.pi * rng.random(3))
            z[rng.integers(3)] = complex(5e-324, -1e-300)
            expected = fraction_sup_bound_holds(z, q)
            assert _sup_bound_holds(z, config) is expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_exact_mean_matches_fraction():
    rng = np.random.default_rng(9)
    for config in CONFIGS:
        n = sphere_cell_count(config, 3)
        for tiny in (False, True):
            v = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            if tiny:
                v[:3] = [5e-324, 1e-300j, -1e-300 + 5e-324j]
            k = make_kernel(config, v, 3)
            sums = [sum(map(Fraction, part), Fraction(0)) for part in (v.real, v.imag)]
            assert k.is_mean_zero is (sums == [0, 0])
            mean = complex(float(sums[0] / n), float(sums[1] / n))
            expected = make_kernel(config, _snap_zero_sum(v - mean), 3)
            assert mean_zero_project(k).values.tobytes() == expected.values.tobytes()
    # cancellation down to a subnormal: the float sum is 0, the exact sum is not
    assert sum([1.0, 5e-324, -1.0, 0.0]) == 0
    assert not make_kernel(Q2, [1.0, 5e-324, -1.0, 0.0], 3).is_mean_zero
    assert _exactly_mean_zero(np.array([1e-300, -1e-300, 5e-324, -5e-324]))


# -- atomic decomposition


def test_decompose_identity_on_atoms():
    k = make_kernel(Q2, [2.0, -2.0], 2)
    dec = atomic_decompose(k)
    assert dec.terms == ((1.0, k),)
    assert dec.h1_upper_bound == 1.0


def test_decompose_zero_and_rejection():
    dec = atomic_decompose(make_kernel(Q3, np.zeros(6), 2))
    assert dec.terms == () and dec.h1_upper_bound == 0.0
    with pytest.raises(ValueError):
        atomic_decompose(make_kernel(Q2, [1.0, 1.0], 2))
    with pytest.raises(ValueError):
        atomic_decompose(make_kernel(Q2, [1.0, -1.0], 2), strategy="unknown")


@pytest.mark.parametrize("strategy", ["scaled", "haar"])
def test_decompose_reconstructs_and_validates(strategy):
    rng = np.random.default_rng(15)
    for config in CONFIGS:
        for m in (1, 2, 3):
            k = random_kernel(rng, config, m)
            dec = atomic_decompose(k, strategy=strategy)
            assert np.max(np.abs(dec.reconstruction(config, m) - k.values)) < 1e-12
            for lam, atom in dec.terms:
                assert lam > 0
                assert validate_atom(atom).valid
            assert dec.h1_upper_bound == math.fsum(lam for lam, _ in dec.terms)


def test_decompose_q3_m2_reconstruction():
    rng = np.random.default_rng(16)
    k = random_kernel(rng, Q3, 2)
    dec = atomic_decompose(k)
    assert np.max(np.abs(dec.reconstruction(Q3, 2) - k.values)) < 1e-12


@pytest.mark.parametrize("strategy", ["scaled", "haar"])
def test_h1_sub_additivity(strategy):
    rng = np.random.default_rng(17)
    for config in CONFIGS:
        for _ in range(20):
            k1 = integer_kernel(rng, config, 3)
            k2 = integer_kernel(rng, config, 3)
            ks = make_kernel(config, k1.values + k2.values, 3)
            lhs = atomic_decompose(ks, strategy=strategy).h1_upper_bound
            rhs = (
                atomic_decompose(k1, strategy=strategy).h1_upper_bound
                + atomic_decompose(k2, strategy=strategy).h1_upper_bound
            )
            assert lhs <= rhs + 1e-9


def test_h1_upper_bound_scaling():
    # scaling is homogeneous away from the already-an-atom shortcut, so push
    # both kernels past the sup bound first
    rng = np.random.default_rng(18)
    base = random_kernel(rng, Q2, 3, complex_vals=False)
    k = make_kernel(Q2, 10 * base.values, 3)
    k4 = make_kernel(Q2, 4 * k.values, 3)
    assert not validate_atom(k).valid and not validate_atom(k4).valid
    assert np.isclose(h1_upper_bound(k4), 4 * h1_upper_bound(k), rtol=1e-12)


# -- shell pieces of the homogeneous extension


def test_shell_piece_window_and_values():
    rng = np.random.default_rng(19)
    for config in CONFIGS:
        k = random_kernel(rng, config, 2)
        for j in (0, 1, 3):
            f = shell_piece(k, j)
            assert (f.a, f.l) == (-(j + 1), k.m - (j + 1))
            for _ in range(20):
                y = random_element(rng, config, -(j + 3), 3, 6, allow_zero=False)
                want = evaluate_homogeneous(k, y) if valuation(y) == -(j + 1) else 0
                assert evaluate(f, y) == want


def test_shell_piece_l1_mass():
    rng = np.random.default_rng(20)
    for config in CONFIGS:
        k = random_kernel(rng, config, 3)
        sphere_l1 = math.fsum(np.hypot(k.values.real, k.values.imag)) * config.q ** (-k.m)
        for j in (0, 2):
            assert np.isclose(lr_norm(shell_piece(k, j), 1), config.q ** (j + 1) * sphere_l1, rtol=1e-12)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_shell_piece_cells_equal_homogeneous_extension(config):
    # every cell of the piece, at the natural resolution and one level finer,
    # holds exactly the extended kernel at the cell's representative
    rng = np.random.default_rng(24)
    for m in (1, 2, 3):
        k = random_kernel(rng, config, m)
        for j in (-3, -1, 0, 2):
            natural = k.m - (j + 1)
            for res in (natural, natural + 1):
                piece = shell_piece(k, j, resolution=res)
                w = piece.window
                assert (w.a, w.l) == (-(j + 1), res)
                for n in range(w.size):
                    x = w.element(n)
                    want = evaluate_homogeneous(k, x) if valuation(x) == w.a else 0
                    assert piece.values[n] == want


def test_shell_piece_resolution():
    rng = np.random.default_rng(21)
    k = random_kernel(rng, Q3, 2)
    f = shell_piece(k, 1)
    g = shell_piece(k, 1, resolution=f.l + 2)
    assert max_difference(refine(f, f.a, f.l + 2), g) == 0
    # coarser than natural, down to the support scale: the coset average, bit for bit
    for res in (f.l - 1, f.a):
        c = shell_piece(k, 1, resolution=res)
        assert (c.a, c.l) == (f.a, res)
        assert c.values.tobytes() == coarsen_resolution(f, res).values.tobytes()
    with pytest.raises(ValueError, match="support scale"):
        shell_piece(k, 0, resolution=-2)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_coset_tree_routes_match_the_replaced_float_routes(config):
    """Shell-piece averages and Haar differences against the one-shot mean and the
    kernel-order cube: bit for bit on the seed-42 corpus kernels at q = 2, whose
    values lie on a 48-bit dyadic grid so that every partial sum is exact, and
    within 1e-15 x max |value| on every other kernel."""
    rng = np.random.default_rng(63)
    corpus = list(seed42_corpus(config).kernels)
    for k in corpus + [random_kernel(rng, config, m) for m in (1, 2, 3, 4)]:
        exact = config.q == 2 and k in corpus
        tol = 1e-15 * float(np.max(np.abs(k.values)))
        pairs = list(zip(_haar_differences(k), kernel_order_haar_differences(k)))
        for j in (-1, 0, 1):
            natural = shell_piece(k, j)
            pairs += [(shell_piece(k, j, res).values, one_shot_coarsen(natural, res).values)
                      for res in range(natural.a, natural.l)]
        assert len(pairs) == 4 * k.m
        for got, want in pairs:
            assert got.shape == want.shape
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= tol
        dec = atomic_decompose(k, strategy="haar")
        assert np.max(np.abs(dec.reconstruction(config, k.m) - k.values)) < 1e-12
        assert all(validate_atom(atom).valid for _, atom in dec.terms)


# -- Taibleson smoothness modulus


def test_taibleson_rejects_bad_j():
    k = make_kernel(Q2, [1, -1], 2)
    with pytest.raises(ValueError):
        taibleson_modulus(k, 0)


def test_taibleson_zero_for_m1_and_zero_kernel():
    assert taibleson_modulus(make_kernel(Q3, [1, -1], 1), 5) == 0.0
    assert taibleson_modulus(make_kernel(Q2, [0.0, 0.0], 2), 3) == 0.0
    # constant kernel projects to zero, so its modulus vanishes
    const = make_kernel(Q2, [0.3, 0.3], 2)
    assert taibleson_modulus(mean_zero_project(const), 4) == 0.0


def test_taibleson_stabilizes_at_m_minus_1():
    rng = np.random.default_rng(22)
    for config in CONFIGS:
        k = random_kernel(rng, config, 3)
        full = taibleson_modulus(k, k.m - 1)
        assert taibleson_modulus(k, k.m) == full
        assert taibleson_modulus(k, k.m + 5) == full
        assert full > 0


# every corpus kernel of the four CONFIGS, and random kernels at p = 5 and 7 with m <= 3
TERM_KERNELS = [kern for config in CONFIGS for kern in seed42_corpus(config).kernels] + [
    random_kernel(np.random.default_rng(24 + m), FieldConfig(mode, p), m)
    for mode in ("padic", "laurent") for p in (5, 7) for m in (1, 2, 3)]


@pytest.mark.parametrize("kern", TERM_KERNELS, ids=[
    f"{kern.config.mode}{kern.config.p}_m{kern.m}_{i}" for i, kern in enumerate(TERM_KERNELS)])
def test_taibleson_terms_equal_the_per_shift_loop_bit_for_bit(kern):
    # one term per distinct shift, gathered into each column: the loop's floats, bit for bit
    for J in (1, kern.m, kern.m + 1):
        got, want = taibleson_terms(kern, J), per_shift_taibleson_terms(kern, J)
        assert got.shape == want.shape and (got.view(np.int64) == want.view(np.int64)).all()


def taibleson_oracle(k, J):
    # naive double loop straight from the definition, FieldElement arithmetic only
    w = Window(k.config, 0, k.m)
    kw = kernel_window_indices(k.config, k.m)
    meas = k.config.q ** (-k.m)
    best = 0.0
    for yi in kw:
        y = w.element(int(yi))
        total = 0.0
        for j in range(1, J + 1):
            shift = prime_shift(y, j)
            s = 0.0
            for xi in kw:
                x = w.element(int(xi))
                s += abs(evaluate_homogeneous(k, add(x, shift)) - evaluate_homogeneous(k, x))
            total += s * meas
        best = max(best, total)
    return best


def test_taibleson_matches_brute_force():
    rng = np.random.default_rng(23)
    for config in CONFIGS[:2]:
        k = random_kernel(rng, config, 3)
        for J in (1, 2, 4):
            assert np.isclose(taibleson_modulus(k, J), taibleson_oracle(k, J), rtol=1e-12)
