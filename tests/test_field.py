"""Field arithmetic, valuation, geometry, and character tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from localfield.field import (
    Ball,
    FieldConfig,
    FieldElement,
    Window,
    abs_value,
    add,
    angular_part,
    base_character,
    character,
    digit_reversal,
    digit_table,
    enumerate_cosets,
    multiply,
    negate,
    prime_shift,
    truncate,
    valuation,
)
from util import CONFIGS, one, random_element

Q2 = FieldConfig("padic", 2)
Q3 = FieldConfig("padic", 3)
F2 = FieldConfig("laurent", 2)


def petit(config, level, digits):
    return FieldElement.make(config, level, digits)


class TestConfig:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            FieldConfig("padic", 6)

    @pytest.mark.parametrize("p", [2.0, "2", True], ids=["float", "string", "bool"])
    def test_rejects_a_p_that_is_not_an_int(self, p):
        with pytest.raises(ValueError, match="^expected a prime integer, got "):
            FieldConfig("padic", p)

    @pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59], ids=["2^61-1", "2^64-59"])
    def test_accepts_a_large_prime(self, p):
        assert FieldConfig("padic", p).q == p

    # strong pseudoprimes: 2047 to base 2, 3215031751 to bases 2 to 7, and
    # 3825123056546413051 to bases 2 to 23
    @pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
    def test_rejects_a_strong_pseudoprime(self, n):
        with pytest.raises(ValueError, match=f"^expected a prime integer, got {n}$"):
            FieldConfig("padic", n)

    def test_rejects_p_from_2_to_the_64(self):
        with pytest.raises(ValueError,
                           match=f"^expected a prime integer below 2\\^64, got {2**64 + 1}$"):
            FieldConfig("padic", 2**64 + 1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FieldConfig("real", 2)

    def test_q_equals_p(self):
        assert Q3.q == 3


class TestValuation:
    def test_uniformizer(self):
        pi = petit(Q2, 1, [1])
        assert valuation(pi) == 1
        assert abs_value(pi) == Fraction(1, 2)

    def test_zero(self):
        z = FieldElement.zero(Q2)
        assert valuation(z) == math.inf
        assert abs_value(z) == 0

    def test_negative_level(self):
        x = petit(Q3, -2, [2, 1])
        assert abs_value(x) == 9


class TestAdd:
    def test_padic_carry(self):
        u = one(Q2)
        s = add(u, u)
        assert s.level == 1 and s.digits == (1,)
        assert abs_value(s) == Fraction(1, 2)

    def test_laurent_cancellation(self):
        u = one(F2)
        assert add(u, u).is_zero

    def test_config_mismatch(self):
        with pytest.raises(ValueError):
            add(one(Q2), one(Q3))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_ultrametric(self, config):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_element(rng, config)
            y = random_element(rng, config)
            s = add(x, y)
            assert abs_value(s) <= max(abs_value(x), abs_value(y))
            if abs_value(x) != abs_value(y):
                assert abs_value(s) == max(abs_value(x), abs_value(y))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_commutative_associative(self, config):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x, y, z = (random_element(rng, config) for _ in range(3))
            assert add(x, y) == add(y, x)
            assert add(add(x, y), z) == add(x, add(y, z))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_truncated_negation(self, config):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = random_element(rng, config)
            m = negate(x, 8)
            assert truncate(add(x, m), 8).is_zero


class TestMultiply:
    def test_uniformizer_square(self):
        pi = petit(Q2, 1, [1])
        assert multiply(pi, pi) == petit(Q2, 2, [1])

    def test_zero_absorbs(self):
        x = petit(Q2, -1, [1, 1])
        assert multiply(x, FieldElement.zero(Q2)).is_zero

    def test_padic_schoolbook(self):
        # (1 + pi)^2 over Q_3 has digits 1, 2, 1
        x = petit(Q3, 0, [1, 1])
        assert multiply(x, x) == petit(Q3, 0, [1, 2, 1])

    def test_laurent_mod_p(self):
        # (1 + t)^2 = 1 + t^2 over F_2((t))
        x = petit(F2, 0, [1, 1])
        assert multiply(x, x) == petit(F2, 0, [1, 0, 1])

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_absolute_value_multiplicative(self, config):
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = random_element(rng, config)
            y = random_element(rng, config)
            assert abs_value(multiply(x, y)) == abs_value(x) * abs_value(y)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_distributive(self, config):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, y, z = (random_element(rng, config) for _ in range(3))
            assert multiply(x, add(y, z)) == add(multiply(x, y), multiply(x, z))


class TestShiftAndAngular:
    def test_shift_one_gives_uniformizer(self):
        assert prime_shift(one(Q2), 1) == petit(Q2, 1, [1])

    def test_shift_zero_is_identity(self):
        x = petit(Q2, -2, [1, 0, 1])
        assert prime_shift(x, 0) == x

    def test_shift_inverse(self):
        x = petit(Q3, 2, [2, 1])
        assert prime_shift(prime_shift(x, 5), -5) == x

    def test_angular_of_unit_is_itself(self):
        u = petit(Q2, 0, [1, 1])
        assert angular_part(u) == u

    def test_angular_strips_shift(self):
        u = petit(Q2, 0, [1, 0, 1])
        assert angular_part(prime_shift(u, 3)) == u

    def test_angular_of_zero_raises(self):
        with pytest.raises(ValueError):
            angular_part(FieldElement.zero(Q2))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_angular_is_unit(self, config):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = random_element(rng, config, allow_zero=False)
            assert abs_value(angular_part(x)) == 1


class TestCharacter:
    def test_trivial_on_integers(self):
        rng = np.random.default_rng(13)
        for config in CONFIGS:
            for _ in range(50):
                lam = random_element(rng, config, min_level=0)
                x = random_element(rng, config, min_level=0)
                assert character(lam, x) == 1.0

    def test_q2_sign_character(self):
        lam = petit(Q2, -1, [1])
        assert character(lam, one(Q2)) == pytest.approx(-1.0)

    def test_nontrivial_on_first_shell(self):
        for config in CONFIGS:
            z = petit(config, -1, [1])
            assert abs(base_character(z) - 1.0) > 0.5

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_group_homomorphism(self, config):
        rng = np.random.default_rng(14)
        for _ in range(100):
            lam = random_element(rng, config, min_level=-3, max_level=2)
            x = random_element(rng, config, min_level=-2, max_level=3)
            y = random_element(rng, config, min_level=-2, max_level=3)
            lhs = character(lam, add(x, y))
            rhs = character(lam, x) * character(lam, y)
            assert abs(lhs - rhs) < 1e-12
            assert abs(abs(character(lam, x)) - 1.0) < 1e-12

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_inverse_pairs(self, config):
        rng = np.random.default_rng(15)
        for _ in range(100):
            lam = random_element(rng, config, min_level=-3, max_level=1)
            x = random_element(rng, config, min_level=-2, max_level=3)
            mx = negate(x, 10)  # deep enough that lam * (x + mx) lands in D
            assert abs(character(lam, x) * character(lam, mx) - 1.0) < 1e-12


class TestEnumerateCosets:
    def test_unit_window_q2(self):
        got = enumerate_cosets(Q2, 0, 1)
        assert got == [FieldElement.zero(Q2), one(Q2)]

    def test_two_digit_window_q2(self):
        got = enumerate_cosets(Q2, 0, 2)
        want = [petit(Q2, 0, d) for d in ([0], [1], [0, 1], [1, 1])]
        assert got == want

    def test_count(self):
        rng = np.random.default_rng(16)
        for config in CONFIGS:
            for _ in range(10):
                a = int(rng.integers(-3, 3))
                l = a + int(rng.integers(0, 4))
                assert len(enumerate_cosets(config, a, l)) == config.p ** (l - a)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            enumerate_cosets(Q2, 1, 0)


class TestBallSphere:
    def test_measures(self):
        x = petit(Q2, 0, [1])
        assert Ball(x, 3).measure == Fraction(1, 8)
        assert Ball(x, -2).measure == 4
        # the sphere |y| = q^(j+1) is P^(-(j+1)) minus P^(-j)
        for config, j, want in ((Q2, -1, Fraction(1, 2)), (Q3, 1, 6)):
            zero = FieldElement.zero(config)
            assert Ball(zero, -(j + 1)).measure - Ball(zero, -j).measure == want

    def test_unit_sphere_membership(self):
        # |x| = 1 iff x lies in the unit ball D and not in the maximal ideal P
        zero = FieldElement.zero(Q2)
        unit_ball, ideal = Ball(zero, 0), Ball(zero, 1)
        for x, on_sphere in ((one(Q2), True), (petit(Q2, 1, [1]), False), (zero, False),
                             (petit(Q2, -1, [1]), False)):
            assert (unit_ball.contains(x) and not ideal.contains(x)) == on_sphere
            assert (valuation(x) == 0) == on_sphere

    def test_ball_contains(self):
        b = Ball(petit(Q2, 0, [1]), 2)  # 1 + P^2
        assert b.contains(petit(Q2, 0, [1]))
        assert b.contains(petit(Q2, 0, [1, 0, 1]))
        assert not b.contains(petit(Q2, 0, [1, 1]))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_dichotomy(self, config):
        rng = np.random.default_rng(17)
        for _ in range(200):
            b1 = Ball(random_element(rng, config), int(rng.integers(-2, 4)))
            b2 = Ball(random_element(rng, config), int(rng.integers(-2, 4)))
            # ultrametric dichotomy: two balls are disjoint or one holds the other
            inner, outer = (b1, b2) if b1.scale >= b2.scale else (b2, b1)
            nested = outer.contains(inner.center)
            assert b1.intersects(b2) == b2.intersects(b1) == nested
            # a point of the inner ball lies in the outer one exactly when they are nested
            x = add(inner.center, prime_shift(random_element(rng, config, 0, 3), inner.scale))
            assert inner.contains(x)
            assert outer.contains(x) == nested

    def test_sphere_tiling(self):
        # the sphere |y| = q splits into cosets of P^2 whose measures add up
        for config in CONFIGS:
            zero = FieldElement.zero(config)
            reps = [x for x in enumerate_cosets(config, -1, 2) if valuation(x) == -1]
            assert len(reps) == (config.q - 1) * config.q**2
            assert (sum(Ball(x, 2).measure for x in reps)
                    == Ball(zero, -1).measure - Ball(zero, 0).measure)


class TestWindow:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_roundtrip(self, config):
        w = Window(config, -1, 2)
        for n in range(w.size):
            assert w.index_of(w.element(n)) == n

    def test_outside_window(self):
        w = Window(Q2, 0, 2)
        assert w.index_of(petit(Q2, -1, [1])) is None

    def test_truncates_fine_digits(self):
        w = Window(Q2, 0, 2)
        assert w.index_of(petit(Q2, 0, [1, 1, 1, 1])) == 3

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_index_arithmetic_matches_field(self, config):
        w = Window(config, -1, 2)
        rng = np.random.default_rng(18)
        for _ in range(100):
            i, j = (int(rng.integers(0, w.size)) for _ in range(2))
            x, y = w.element(i), w.element(j)
            assert int(w.index_add(i, j)) == w.index_of(add(x, y))
            assert int(w.index_sub(i, j)) == w.index_of(add(x, negate(y, w.l)))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_sub_table(self, config):
        w = Window(config, 0, 2)
        t = w.sub_table()
        for i in range(w.size):
            for j in range(w.size):
                assert t[i, j] == int(w.index_sub(i, j))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_valuation_levels(self, config):
        w = Window(config, -2, 2)
        levels = w.valuation_levels()
        for n in range(w.size):
            x = w.element(n)
            want = w.l if x.is_zero else x.level
            assert levels[n] == want


def divmod_digits(p, n):
    """Base-p digits of 0 .. p^n - 1, least significant first, built afresh per call."""
    idx = np.arange(p**n)
    out = np.empty((p**n, n), dtype=np.int64)
    for d in range(n):
        idx, out[:, d] = np.divmod(idx, p)
    return out


class TestDigitTable:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_shared_table_keeps_the_index_arithmetic(self, config):
        p = config.p
        w = Window(config, -1, 2)
        dm = divmod_digits(p, w.n)
        assert np.array_equal(w.digit_matrix(), dm)
        assert w.digit_matrix() is Window(config, 4, 4 + w.n).digit_matrix()

        def recompose(digits):
            return digits @ p ** np.arange(w.n)

        i, j = np.meshgrid(np.arange(w.size), np.arange(w.size), indexing="ij")
        if config.mode == "padic":
            want_add, want_sub = (i + j) % w.size, (i - j) % w.size
        else:
            want_add = recompose((dm[i] + dm[j]) % p)
            want_sub = recompose((dm[i] - dm[j]) % p)
        assert np.array_equal(w.index_add(i, j), want_add)
        assert np.array_equal(w.index_sub(i, j), want_sub)
        assert np.array_equal(w.sub_table(), want_sub)
        nz = dm != 0
        first = np.where(nz.any(axis=1), nz.argmax(axis=1), w.n)
        assert np.array_equal(w.valuation_levels(), w.a + first)

    @pytest.mark.parametrize("p, n", [(2, 0), (2, 5), (3, 3), (5, 2)])
    def test_table_is_read_only(self, p, n):
        table = digit_table(p, n)
        assert table.shape == (p**n, n) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
        assert np.array_equal(table, divmod_digits(p, n))
        # digit_reversal maps index i to the index whose digits are i's, reversed
        rev = digit_reversal(p, n)
        assert np.array_equal(table[rev], table[:, ::-1])
        assert not rev.flags.writeable
