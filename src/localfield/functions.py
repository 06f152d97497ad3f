"""Locally constant, compactly supported complex functions on a local field.

A TestFunction lives on a window (a, l): support inside the ball P^a,
constant on cosets of P^l.  Its q^{l-a} cell values follow the coset order
of field.enumerate_cosets(a, l).  All window bookkeeping is exact; values
are complex doubles: one row, or a (rows, cells) stack of functions on one
window, every operation acting along the last axis; lr_norms gives one value
per row, each bit for bit its function's, and weak_level_measures one cell
count per row and level, all levels from one modulus pass.  exact_sums gives
the correctly rounded sum (math.fsum's, bit for bit) of every segment of a
flat array in one numpy pass; lr_norms_each puts the rows of several stacks
through one such call (lr_norms_of_parts, which decomp's block norms call
with ready |v|^r), and fourier sums its norms with it too; a sum past the
float range, where it raises fsum's OverflowError, reads inf, and the norm
layer refuses it.  convolve transforms its second factor through
_input_spectrum, a memo of the last two (input, window) spectra that
operators.apply_truncated reads too.  coset_tree walks the nested cosets
c + P^j of a window down: the one tree that coarsen_resolution, decomp's
blocks and CZ split and the Haar atoms read.  lift reads it upward,
spreading each coarse cell over its descendants, and refine is one strided
write that pads f onto the larger support, then lift.
check_norm_exponent and check_level state the domains of the exponent r and
the threshold lambda once, for every caller.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

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


def _frozen(values, dtype=np.complex128) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
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
        vals[ic::config.p ** (ball.scale - a)] += coeff  # the cells = ic mod q^(scale - a)
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
    p, e = f.config.p, l_new - a_new
    if e >= 63 or p**e >= 2**63:  # numpy indexes no array of that many cells
        raise ValueError(f"window ({a_new}, {l_new}) has {p}^{e} cells, "
                         "more than an int64 index reaches")
    padded = np.zeros(f.values.shape + (p ** (f.a - a_new),), dtype=np.complex128)
    padded[..., 0] = f.values  # cell i0 + pad i1 of (a_new, l) is f's cell i1 if i0 = 0, else 0
    vals = padded.reshape(f.values.shape[:-1] + (-1,))
    return TestFunction(f.config, a_new, l_new, lift(vals, p**e) if l_new > f.l else vals)


def lift(values: np.ndarray, size: int) -> np.ndarray:
    """A fresh array of size cells along the last axis, cell i reading values[..., i mod n]:
    coset_tree read upward, each of the n coarse cells spread over its descendants."""
    *rows, n = values.shape
    out = np.empty((*rows, size // n, n), values.dtype)
    out[...] = values[..., None, :]
    return out.reshape(*rows, size)


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


@np.errstate(over="ignore", invalid="ignore")  # segments that take fsum compute garbage first
def exact_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """math.fsum of each segment values[starts[i]:starts[i + 1]], bit for bit.

    values is a flat array of nonnegative doubles and starts the increasing
    offsets of its nonempty segments, starts[0] = 0.  A correctly rounded sum
    is unique, so an exact one in numpy is fsum's.  Each segment is scaled by
    2^k so that its float sum estimate lies in [2^60, 2^61); its integer parts,
    then its fractions on the grid 2^-g (g = 62 - bit length of values.size),
    are summed exactly in int64, and whatever lies below that grid
    is ORed into bit 0.  The 53-bit rounding point lies at least 7 bits
    higher, so the one int64 -> float64 conversion rounds the exact sum to
    nearest even, and 2^-k rescales it exactly.  A segment with a negative
    or non-finite value, a nonzero estimate outside [2^-899, 2^1020) (|k| >=
    960: near the ends of the float range) or a carry out of the fractions
    that the bound cannot rule out takes math.fsum; an all-zero one is 0.0.
    """
    if not starts.size:
        return np.zeros(0)
    ends = np.concatenate((starts[1:], [values.size]))
    lengths = ends - starts
    est = np.add.reduceat(values, starts)
    k = 61 - np.frexp(est)[1]
    y = np.repeat(np.ldexp(1.0, k), lengths)
    y *= values  # values 2^k, exact but for values scaled below 2^-1022
    # such a value may round to 0; it is still a tail
    tail = np.logical_or.reduceat((y == 0) & (values != 0), starts) if k.min() < 0 else False
    whole = y.astype(np.int64)
    total = np.add.reduceat(whole, starts)
    g = 62 - values.size.bit_length()
    y -= whole
    y *= 2.0**g  # the fractions on the grid 2^-g, then their parts below it
    np.copyto(whole, y, casting="unsafe")
    low = np.add.reduceat(whole, starts)
    y -= whole
    tail |= np.add.reduceat(y, starts) > 0  # a sum of nonnegative doubles is 0 only if all are
    below = low & ((1 << g) - 1)
    total += low >> g
    total |= tail | (below != 0)
    out = np.ldexp(total.astype(np.float64), -k)
    # certified: no negative or NaN value, a finite estimate in range, and no carry
    # (each of the n tails is under one grid unit, so below <= 2^g - n cannot carry)
    live = ((np.minimum.reduceat(values, starts) >= 0) & (est < 2.0**1020) & (k < 960)
            & (below <= (1 << g) - lengths))
    if not live.all():
        for i in np.flatnonzero(~live):
            out[i] = math.fsum(values[starts[i]:ends[i]])
    return out


def lr_norms_each(fs: list, r: float) -> list:
    """The L^r norms of every row of every stack in fs: lr_norms_of_parts of |v|^r, or of
    re^2 and im^2 for r = 2."""
    check_norm_exponent(r)
    vals = [np.atleast_2d(f.values) for f in fs]
    parts = ([x**2 for v in vals for x in (v.real, v.imag)] if r == 2
             else [np.hypot(v.real, v.imag) ** r for v in vals])
    return lr_norms_of_parts(fs, parts, r)


def lr_norms_of_parts(fs: list, parts: list, r: float) -> list:
    """The L^r norms of every row of every stack in fs, all summed in one exact_sums call.

    parts are 2-D, one (rows, cells) array per stack: |v|^r, or for r = 2 two
    arrays, re^2 and im^2, whose sums are two segments per row; a row's sum is
    then the float sum of their two correctly rounded sums.  When a sum is past
    the float range, where exact_sums raises fsum's OverflowError, every norm
    reads inf."""
    widths = np.repeat([p.shape[-1] for p in parts], [len(p) for p in parts])
    try:
        sums = exact_sums(np.concatenate([p.ravel() for p in parts]), np.cumsum(widths) - widths)
    except OverflowError:
        sums = np.full(widths.size, math.inf)
    rows = list(accumulate(map(len, parts), initial=0))
    sums = [sums[a:b] for a, b in zip(rows, rows[1:])]
    if r == 2:
        sums = [re + im for re, im in zip(sums[::2], sums[1::2])]
    cells = [q_power(f.config.q, -f.l) for f in fs]
    return [[(s * cell) ** (1.0 / r) for s in row_sums.tolist()]
            for cell, row_sums in zip(cells, sums)]


def lr_norms(f: TestFunction, r: float) -> list:
    """(sum_cells |v|^r q^{-l})^{1/r} of each row; each sum is exact_sums', math.fsum's bits.

    A norm past the float range is refused."""
    (norms,) = lr_norms_each([f], r)
    if not all(map(math.isfinite, norms)):
        raise ValueError(f"r = {r}: an L^r norm is not a finite float")
    return norms


def lr_norm(f: TestFunction, r: float) -> float:
    """The L^r norm of one function, inf past the float range: lr_norms_each of one row."""
    ((norm,),) = lr_norms_each([f], r)
    return norm


def weak_level_measures(f: TestFunction, lambdas) -> list:
    """For each level lam in lambdas, row by row, the number of cells where |f(x)| > lam,
    all from one modulus pass; each cell has Haar measure q^-l (cell_measure), so the
    count times it is the exact measure."""
    for lam in lambdas:
        check_level(lam)
    vals = np.atleast_2d(f.values)
    moduli = np.hypot(vals.real, vals.imag)
    return [np.count_nonzero(moduli > lam, axis=-1).tolist() for lam in lambdas]


def _common_window(f: TestFunction, g: TestFunction) -> tuple:
    if f.config != g.config:
        raise ValueError("functions live over different field configurations")
    return min(f.a, g.a), max(f.l, g.l)


def common_refinement(f: TestFunction, g: TestFunction) -> tuple[TestFunction, TestFunction]:
    a, l = _common_window(f, g)
    return refine(f, a, l), refine(g, a, l)


@functools.lru_cache(maxsize=2)
def _input_spectrum(f: TestFunction, a: int, l: int) -> np.ndarray:
    """The window DFT of f refined onto (a, l); read-only, kept for the last two (f, a, l)
    only: a verify stack's spectra on T_k f's window and on its piece convolutions'."""
    return _frozen(Window(f.config, a, l).dft(refine(f, a, l).values))


def convolve(f: TestFunction, g: TestFunction) -> TestFunction:
    """Exact group convolution (f * g)(x) = int f(y) g(x - y) dy.

    Both factors are supported in P^{min(a_f, a_g)}, a subgroup, so the
    quotient-group convolution at the common refinement needs no wraparound
    correction.  The quotient-group sum runs through the group DFT: both
    factors are transformed on that window and convolve_spectra takes the
    product and the inverse.  Either factor may be a stack; the other is then
    transformed once for all its rows.  The transform of g is _input_spectrum's,
    so convolving many f with one g transforms g once per window.
    operators.apply_truncated calls convolve_spectra with a cached transform of
    its kernel and _input_spectrum of its input, so T_k f is this convolution
    bit for bit.
    """
    a, l = _common_window(f, g)
    w = Window(f.config, a, l)
    return convolve_spectra(w, w.dft(refine(f, a, l).values), _input_spectrum(g, a, l))


def convolve_spectra(w: Window, fhat: np.ndarray, ghat: np.ndarray) -> TestFunction:
    """f * g on window w from the window DFTs fhat and ghat of f and g refined onto it:
    the inverse DFT of fhat * ghat, in that operand order, times q^(a - 2l)."""
    vals = w.dft(fhat * ghat, inverse=True)
    # cell measure q^{-l} times the 1/N = q^{a-l} the unnormalised inverse omits
    return TestFunction(w.config, w.a, w.l, vals * q_power(w.config.q, w.a - 2 * w.l))


def max_difference(f: TestFunction, g: TestFunction) -> float:
    rf, rg = common_refinement(f, g)
    d = rf.values - rg.values
    return float(np.max(np.hypot(d.real, d.imag))) if d.size else 0.0
