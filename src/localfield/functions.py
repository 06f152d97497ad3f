"""Locally constant, compactly supported complex functions on a local field.

A TestFunction lives on a window (a, l): support inside the ball P^a,
constant on cosets of P^l.  Its q^{l-a} cell values follow the coset order
of field.enumerate_cosets(a, l).  All window bookkeeping is exact; values
are complex doubles: one row, or a (rows, cells) stack of functions on one
window, every operation acting along the last axis; lr_norms and
weak_level_measures give one value per row, each bit for bit its function's.
coset_tree walks the nested cosets c + P^j of a window: the one tree that
coarsen_resolution, decomp's blocks and CZ split and the Haar atoms read.
check_norm_exponent and check_level state the domains of the exponent r and
the threshold lambda once, for every caller.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import (FieldConfig, FieldElement, Window, check_window, expect, q_power, truncate,
                    valuation)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_norm_exponent(r) -> None:
    """Raise ValueError unless r is a real with 1 <= r <= the largest float."""
    if not (_is_real(r) and 1 <= r <= sys.float_info.max):
        raise ValueError(f"norm exponent {r!r} must be a finite float >= 1")


def check_level(lam) -> None:
    """Raise ValueError unless lam is a real with 0 < lam <= the largest float."""
    if not (_is_real(lam) and 0 < lam <= sys.float_info.max):
        raise ValueError(f"threshold lambda = {lam!r} must be a finite float > 0")


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


def _value_pairs(values: np.ndarray) -> list:
    """Serialized [re, im] pairs of complex cell values; _finite_values reads them back."""
    return [[z.real, z.imag] for z in values]


def _finite_values(pairs) -> np.ndarray:
    """Complex cell values from serialized [re, im] pairs; NaN and inf are refused."""
    vals = np.array([complex(re, im) for re, im in pairs])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"non-finite value at cell {int(bad[0])}")
    return vals


def check_cell_count(values: np.ndarray, factor: int, q: int, e: int) -> None:
    """Raise ValueError unless values is one row of factor * q^e cells (factor >= 1, q >= 2).

    factor * q^e >= 2^e, so an e past the bit length of the count is refused unbuilt."""
    n = values.size
    expect(values.ndim == 1 and e < n.bit_length() and factor * q**e == n,
           f"{factor} x {q}^{e} cell values", n)


def dyadic_ints(values) -> tuple[np.ndarray, int]:
    """Integers n (a Python-int object array) and one power of two d with values == n / d.

    Each double is m 2^(e-53) with an integer m below 2^53, so one shift per
    entry puts every entry over the common denominator d; sums, products and
    comparisons of the integers are then exact at any size.
    """
    vals = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("exact arithmetic needs finite values")
    mant, exp = np.frexp(vals)
    shift = 53 - exp.astype(np.int64)
    k = int(shift.max(initial=0))
    return (mant * 2.0**53).astype(np.int64).astype(object) << (k - shift), 1 << k


@dataclass(frozen=True, eq=False)
class TestFunction:
    __test__ = False  # keep pytest from collecting this as a test case

    config: FieldConfig
    a: int
    l: int
    values: np.ndarray

    def __post_init__(self):
        if self.a > self.l:
            raise ValueError(f"invalid window: a = {self.a} > l = {self.l}")
        object.__setattr__(self, "values", _frozen(self.values))
        size = self.config.p ** (self.l - self.a)
        if self.values.shape[-1:] != (size,) or self.values.ndim > 2:
            raise ValueError(f"expected {size} cell values, got {self.values.shape}")

    @property
    def window(self) -> Window:
        return Window(self.config, self.a, self.l)

    @property
    def cell_measure(self) -> Fraction:
        return Fraction(self.config.q) ** (-self.l)

    @staticmethod
    def zero(config: FieldConfig, a: int = 0, l: int = 0) -> "TestFunction":
        return TestFunction(config, a, l, np.zeros(config.p ** (l - a)))

    def to_dict(self) -> dict:
        return {"a": self.a, "l": self.l, "values": _value_pairs(self.values)}

    @staticmethod
    def from_dict(config: FieldConfig, d: dict) -> "TestFunction":
        check_window((d["a"], d["l"]))
        vals = _finite_values(d["values"])
        check_cell_count(vals, 1, config.q, d["l"] - d["a"])
        return TestFunction(config, d["a"], d["l"], vals)


def from_indicator_combo(config: FieldConfig, terms: list) -> TestFunction:
    """Build sum_i coeff_i * indicator(ball_i) as a windowed function.

    terms is a list of (coefficient, Ball) pairs; the empty list gives the
    zero function on the trivial window.
    """
    if not terms:
        return TestFunction.zero(config)
    a = min(min(term[1].scale, valuation(term[1].center)) for term in terms)
    a = int(a)  # valuation may be math.inf; the min with scale is an int
    l = max(a, max(term[1].scale for term in terms))
    w = Window(config, a, l)
    vals = np.zeros(w.size, dtype=np.complex128)
    idx = np.arange(w.size)
    for coeff, ball in terms:
        if ball.config != config:
            raise ValueError("ball does not belong to the given field configuration")
        center = truncate(ball.center, ball.scale)
        if ball.scale <= a:
            if center.is_zero:
                vals += coeff
            continue
        ic = Window(config, a, ball.scale).index_of(center)
        if ic is None:
            # ball lies outside P^a; impossible given how a was chosen
            raise AssertionError("indicator ball escaped the window")
        vals[idx % config.p ** (ball.scale - a) == ic] += coeff
    return TestFunction(config, a, l, vals)


def evaluate(f: TestFunction, x: FieldElement) -> complex:
    idx = f.window.index_of(x)
    return 0j if idx is None else complex(f.values[idx])


def refine(f: TestFunction, a_new: int, l_new: int) -> TestFunction:
    """Re-represent f on a finer window (a_new <= a, l_new >= l); exact."""
    if a_new > f.a or l_new < f.l:
        raise ValueError("refine can only extend the window")
    if (a_new, l_new) == (f.a, f.l):
        return f
    p = f.config.p
    pad, sup = p ** (f.a - a_new), p ** (f.l - f.a)
    idx = np.arange(p ** (l_new - a_new))
    inside = idx % pad == 0
    vals = np.where(inside, f.values[..., (idx // pad) % sup], 0)
    return TestFunction(f.config, a_new, l_new, vals)


def coset_tree(values: np.ndarray, q: int, depth: int, reduce=np.mean) -> list:
    """[v_0, ..., v_depth], v_0 = values: v_(d+1) reduces over axis -2 the q siblings
    i, i + n/q, ... of each coset one level up, n the size of v_d's last axis.

    np.mean gives E_l f, E_(l-1) f, ...; np.sum on dyadic_ints' integers the exact sums.
    """
    tree = [values]
    for _ in range(depth):
        v = tree[-1]
        tree.append(reduce(v.reshape(v.shape[:-1] + (q, -1)), axis=-2))
    return tree


def coarsen_resolution(f: TestFunction, l_new: int) -> TestFunction:
    """E_{l_new} f: the average of f over each coset of P^{l_new}, a <= l_new <= l.

    The last level of f's coset_tree, up to the rounding of each mean: it
    keeps the integral of f, reproduces f where f is already constant on
    those cosets, and g * f = g * E_{l_new} f for every g constant on them.
    """
    if l_new < f.a or l_new > f.l:
        raise ValueError("l_new outside [a, l]")
    vals = coset_tree(f.values, f.config.p, f.l - l_new)[-1]
    return TestFunction(f.config, f.a, l_new, vals)


def lr_norms(f: TestFunction, r: float) -> list:
    """(sum_cells |v|^r q^{-l})^{1/r} of each row; fsum of the row buffer is exact, in any order."""
    check_norm_exponent(r)
    vals = np.atleast_2d(f.values)
    if r == 2:
        sums = [math.fsum(re.data) + math.fsum(im.data)
                for re, im in zip(vals.real**2, vals.imag**2)]
    else:
        moduli = np.hypot(vals.real, vals.imag)
        sums = [math.fsum(row.data) for row in (moduli if r == 1 else moduli**r)]
    return [(s * q_power(f.config.q, -f.l)) ** (1.0 / r) for s in sums]


def lr_norm(f: TestFunction, r: float) -> float:
    """The L^r norm of one function: lr_norms of a one-row stack."""
    (norm,) = lr_norms(f, r)
    return norm


def weak_level_measures(f: TestFunction, lam: float) -> list:
    """Exact Haar measure of {x : |f(x)| > lam}, row by row."""
    check_level(lam)
    vals = np.atleast_2d(f.values)
    counts = np.count_nonzero(np.hypot(vals.real, vals.imag) > lam, axis=-1)
    return [int(c) * Fraction(f.config.q) ** (-f.l) for c in counts]


def common_refinement(f: TestFunction, g: TestFunction) -> tuple[TestFunction, TestFunction]:
    if f.config != g.config:
        raise ValueError("functions live over different field configurations")
    a, l = min(f.a, g.a), max(f.l, g.l)
    return refine(f, a, l), refine(g, a, l)


def convolve(f: TestFunction, g: TestFunction) -> TestFunction:
    """Exact group convolution (f * g)(x) = int f(y) g(x - y) dy.

    Both factors are supported in P^{min(a_f, a_g)}, a subgroup, so the
    quotient-group convolution at the common refinement needs no wraparound
    correction.  The quotient-group sum runs through the group DFT: pointwise
    product of the transforms, then the inverse.  Either factor may be a
    stack; the other is then transformed once for all its rows.
    """
    rf, rg = common_refinement(f, g)
    w = rf.window
    vals = w.dft(w.dft(rf.values) * w.dft(rg.values), inverse=True)
    # cell measure q^{-l} times the 1/N = q^{a-l} the unnormalised inverse omits
    return TestFunction(f.config, rf.a, rf.l, vals * q_power(f.config.q, rf.a - 2 * rf.l))


def max_difference(f: TestFunction, g: TestFunction) -> float:
    rf, rg = common_refinement(f, g)
    d = rf.values - rg.values
    return float(np.max(np.hypot(d.real, d.imag))) if d.size else 0.0
