"""Transform correctness: fast vs naive vs field-arithmetic oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from localfield.field import (
    Ball,
    FieldConfig,
    FieldElement,
    Window,
    character,
    dft_matrix,
    enumerate_cosets,
    multiply,
    valuation,
)
from localfield.functions import (
    TestFunction,
    convolve,
    from_indicator_combo,
    lr_norm,
    max_difference,
    refine,
)
from localfield.fourier import (
    SpectralFunction,
    apply_multiplier,
    forward,
    forward_naive,
    inverse,
    inverse_naive,
    spectral_l2_norm,
)
from util import CONFIGS, random_element, spectral_valuation_levels, translate

Q2 = FieldConfig("padic", 2)


def random_function(rng, config, a=-2, l=2):
    n = config.p ** (l - a)
    vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return TestFunction(config, a, l, vals)


class TestForwardFixtures:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_unit_ball_transforms_to_unit_dual_ball(self, config):
        f = refine(from_indicator_combo(config, [(1, Ball(FieldElement.zero(config), 0))]), -2, 2)
        F = forward(f)
        lv = spectral_valuation_levels(F)
        want = np.where(lv >= 0, 1.0, 0.0)
        assert np.max(np.abs(F.values - want)) < 1e-12

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_small_ball_scaling(self, config, k):
        f = refine(from_indicator_combo(config, [(1, Ball(FieldElement.zero(config), k))]), -2, 2)
        F = forward(f)
        lv = spectral_valuation_levels(F)
        want = np.where(lv >= -k, float(Fraction(config.q) ** (-k)), 0.0)
        assert np.max(np.abs(F.values - want)) < 1e-12

    def test_zero_transforms_to_zero(self):
        F = forward(TestFunction.zero(Q2, -1, 1))
        assert np.all(F.values == 0)


class TestAgainstFieldOracle:
    """The naive path checked against raw FieldElement character sums."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_small_window(self, config):
        rng = np.random.default_rng(41)
        f = random_function(rng, config, a=-1, l=1)
        F = forward_naive(f)
        cells = enumerate_cosets(config, -1, 1)
        freqs = enumerate_cosets(config, 1, 1 + (1 - (-1)))  # dual grid (-l=-1 -> level 1)? no
        # dual representatives live on window (-l, -a) = (-1, 1)
        freqs = enumerate_cosets(config, -1, 1)
        meas = float(Fraction(config.q) ** (-1))
        for u, lam in enumerate(freqs):
            want = sum(np.conj(character(lam, h)) * f.values[m] for m, h in enumerate(cells)) * meas
            assert F.values[u] == pytest.approx(want, abs=1e-12)


class TestFastEqualsNaive:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_forward(self, config):
        rng = np.random.default_rng(42)
        l = 3 if config.p == 2 else 2
        f = random_function(rng, config, a=-2, l=l)
        F_fast, F_slow = forward(f), forward_naive(f)
        assert np.max(np.abs(F_fast.values - F_slow.values)) < 1e-10

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_inverse(self, config):
        rng = np.random.default_rng(43)
        n = config.p ** 4
        F = SpectralFunction(config, 2, -2, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        assert max_difference(inverse(F), inverse_naive(F)) < 1e-10


def fftn_dft(w, values, inverse=False):
    """The replaced laurent route: an n-axis fftn over the F-order (p, ..., p) digit cube."""
    values = np.asarray(values, dtype=np.complex128)
    if w.n == 0:
        return values.copy()
    cube = values.reshape((w.config.p,) * w.n, order="F")
    out = np.fft.ifftn(cube) * w.size if inverse else np.fft.fftn(cube)
    return out.ravel(order="F")


def max_relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


LAURENT_WINDOWS = [(p, n) for p in (2, 3, 5) for n in range(7)] + [(2, 14)]


class TestLaurentGroupDFT:
    """Window.dft as two Kronecker-factor products against fftn and the naive sums."""

    @pytest.mark.parametrize("p, n", LAURENT_WINDOWS)
    def test_matches_fftn(self, p, n):
        rng = np.random.default_rng(1000 * p + n)
        w = Window(FieldConfig("laurent", p), -(n // 2), n - n // 2)
        x = rng.uniform(-1, 1, w.size) + 1j * rng.uniform(-1, 1, w.size)
        for inv in (False, True):
            assert max_relative_gap(w.dft(x, inverse=inv), fftn_dft(w, x, inv)) < 1e-12
        real = rng.uniform(-1, 1, w.size)
        assert max_relative_gap(w.dft(real), fftn_dft(w, real)) < 1e-12

    @pytest.mark.parametrize("p, n", [(p, n) for p, n in LAURENT_WINDOWS if p**n <= 729])
    def test_forward_inverse_match_naive(self, p, n):
        rng = np.random.default_rng(2000 * p + n)
        config = FieldConfig("laurent", p)
        a = -(n // 2)
        f = random_function(rng, config, a=a, l=a + n)
        assert max_relative_gap(forward(f).values, forward_naive(f).values) < 1e-12
        F = SpectralFunction(config, a + n, a, f.values)
        assert max_relative_gap(inverse(F).values, inverse_naive(F).values) < 1e-12

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_factor_matrices_are_read_only(self, p, k):
        W = dft_matrix(p, k)
        assert W.shape == (p**k, p**k) and not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 0
        assert dft_matrix(p, k) is W
        if p == 2:
            assert np.all(np.abs(W.real) == 1) and np.all(W.imag == 0)


class TestRoundTrip:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_function_roundtrip(self, config):
        rng = np.random.default_rng(44)
        for _ in range(25):
            f = random_function(rng, config, a=-2, l=2)
            assert max_difference(inverse(forward(f)), f) < 1e-12

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_spectral_roundtrip(self, config):
        rng = np.random.default_rng(45)
        n = config.p ** 3
        F = SpectralFunction(config, 1, -2, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        G = forward(inverse(F))
        assert np.max(np.abs(G.values - F.values)) < 1e-12


class TestPlancherel:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_parseval(self, config):
        rng = np.random.default_rng(46)
        for _ in range(50):
            f = random_function(rng, config, a=-1, l=2)
            lhs, rhs = lr_norm(f, 2), spectral_l2_norm(forward(f))
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)


class TestStructuralIdentities:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_convolution_theorem(self, config):
        rng = np.random.default_rng(47)
        f = random_function(rng, config, a=-1, l=2)
        g = random_function(rng, config, a=-1, l=2)
        lhs = forward(convolve(f, g))
        rhs_f, rhs_g = forward(f), forward(g)
        assert np.max(np.abs(lhs.values - rhs_f.values * rhs_g.values)) < 1e-10

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_translation_modulation(self, config):
        rng = np.random.default_rng(48)
        f = random_function(rng, config, a=-1, l=2)
        h = random_element(rng, config, min_level=-1, max_level=2, allow_zero=False)
        F = forward(f)
        G = forward(translate(f, h))
        freqs = enumerate_cosets(config, -f.l, -f.a)
        twist = np.array([np.conj(character(lam, h)) for lam in freqs])
        assert np.max(np.abs(G.values - twist * F.values)) < 1e-10


class TestMultiplier:
    def test_identity(self):
        rng = np.random.default_rng(49)
        f = random_function(rng, Q2)
        g = apply_multiplier(f, np.ones(f.values.size))
        assert max_difference(f, g) < 1e-13

    def test_zero(self):
        rng = np.random.default_rng(50)
        f = random_function(rng, Q2)
        g = apply_multiplier(f, np.zeros(f.values.size))
        assert np.max(np.abs(g.values)) < 1e-13

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(52)
        f = random_function(rng, Q2, a=0, l=2)
        with pytest.raises(ValueError):
            apply_multiplier(f, np.ones(3))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_low_pass_matches_naive_filter(self, config):
        # indicator of Gamma^0 applied to the indicator of P^{-1}
        f = refine(from_indicator_combo(config, [(1, Ball(FieldElement.zero(config), -1))]), -2, 2)
        F = forward_naive(f)
        keep = spectral_valuation_levels(F) >= 0
        filtered = inverse_naive(SpectralFunction(config, F.l, F.a, np.where(keep, F.values, 0)))
        fast = apply_multiplier(f, keep.astype(float))
        assert max_difference(filtered, fast) < 1e-11


def bracket_symbol(f, alpha):
    """<xi>^alpha per spectral cell of f, with <xi> = max(1, |xi|) and f.a <= 0."""
    levels = Window(f.config, -f.l, -f.a).valuation_levels()
    return np.float_power(float(f.config.q), alpha * np.maximum(0, -levels))


class TestPType:
    """The p-type symbol <xi>^alpha through apply_multiplier."""

    def test_unit_ball_fixed_point(self):
        for config in CONFIGS:
            f = from_indicator_combo(config, [(1, Ball(FieldElement.zero(config), 0))])
            for alpha in (0.5, 1, 2):
                g = apply_multiplier(f, bracket_symbol(f, alpha))
                assert max_difference(f, g) <= 1e-12

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
    def test_derivative_integral_roundtrip(self, config):
        rng = np.random.default_rng(55)
        for alpha in (0.5, 1.0, 1.7):
            f = random_function(rng, config, a=-1, l=2)
            g = apply_multiplier(f, bracket_symbol(f, alpha))
            g = apply_multiplier(g, bracket_symbol(g, -alpha))
            assert max_difference(f, g) < 1e-12

    def test_integral_symbol_contracts(self):
        # <xi>^{-alpha} never grows anything: ||I_alpha f||_2 <= ||f||_2
        rng = np.random.default_rng(57)
        for config in CONFIGS:
            f = random_function(rng, config, a=-2, l=1)
            g = apply_multiplier(f, bracket_symbol(f, -0.7))
            assert lr_norm(g, 2) <= lr_norm(f, 2) * (1 + 1e-12)
