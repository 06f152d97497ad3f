"""Shared helpers for the test suite: seeded random field data and small
definition-level operations that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from localfield.field import FieldConfig, FieldElement, q_power
from localfield.fourier import SpectralFunction
from localfield.functions import TestFunction, refine

CONFIGS = [FieldConfig("padic", 2), FieldConfig("padic", 3), FieldConfig("laurent", 2), FieldConfig("laurent", 3)]


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


def spectral_valuation_levels(F: SpectralFunction) -> np.ndarray:
    """Per spectral cell: the valuation of its representatives.

    For the zero cell (all frequencies with |xi| <= q^a) the sentinel -a is
    returned, the smallest valuation consistent with every member.
    """
    return F.dual_window.valuation_levels()
