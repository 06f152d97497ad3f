"""Exact arithmetic, balls, and characters for two local-field models.

Supported models: the p-adic numbers (mode "padic", addition with carries) and
the field of formal Laurent series over F_p (mode "laurent", digit-wise
addition mod p).  Elements are finite digit expansions x = sum c_j pi^j with
digits c_j in {0, ..., p-1} and pi the uniformizer.  The residue field has
q = p elements; |x| = q^{-k} where k is the level of the leading digit.

All digit and measure arithmetic is exact (integers and Fractions).  Only
character values, which are points on the unit circle, live in floating point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

INFINITY = math.inf

# the first 12 primes: as Miller-Rabin bases they decide every n below 3.1e23 exactly
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality of n, exact below 3.1e23 (check_prime stops at 2^64)."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    return True


def expect(ok: bool, expected: str, value) -> None:
    """Raise ValueError("expected <expected>, got <value>") unless ok."""
    if not ok:
        raise ValueError(f"expected {expected}, got {value!r}")


def is_int(x) -> bool:
    """Whether x is an int and not a bool (JSON's true and false read as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_mode(mode) -> None:
    """Raise ValueError unless mode names a supported field."""
    expect(mode in ("padic", "laurent"), "mode 'padic' or 'laurent'", mode)


def check_prime(p) -> None:
    """Raise ValueError unless p is a prime int below 2^64, not a bool."""
    expect(is_int(p) and (p >= 2**64 or _is_prime(p)), "a prime integer", p)
    expect(p < 2**64, "a prime integer below 2^64", p)


def check_window(window) -> None:
    """Raise ValueError unless window is a pair (a, l) of ints, not bools, with a <= l."""
    expect(isinstance(window, (list, tuple)) and len(window) == 2 and all(map(is_int, window))
           and window[0] <= window[1], "[a, l] with integer scales and a <= l", window)


@dataclass(frozen=True)
class FieldConfig:
    """Which local field we work in: mode ("padic" or "laurent") and the prime p."""

    mode: str
    p: int

    def __post_init__(self):
        check_mode(self.mode)
        check_prime(self.p)

    @property
    def q(self) -> int:
        # residue field size; equal to p under the c = 1 restriction
        return self.p

    def to_dict(self) -> dict:
        return {"mode": self.mode, "p": self.p}

    @staticmethod
    def from_dict(d: dict) -> "FieldConfig":
        return FieldConfig(mode=d["mode"], p=d["p"])


@dataclass(frozen=True)
class FieldElement:
    """A finite digit expansion sum_{j>=level} digits[j-level] * pi^j.

    Canonical form: leading and trailing digits nonzero; the zero element is
    level None with an empty digit tuple.  Construct via FieldElement.make
    (or the helpers below), which normalizes raw digit data.
    """

    config: FieldConfig
    level: int | None
    digits: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.level is None:
            if self.digits:
                raise ValueError("zero element must have empty digits")
            return
        if not self.digits:
            raise ValueError("nonzero element must have at least one digit")
        if self.digits[0] == 0 or self.digits[-1] == 0:
            raise ValueError("digits not in canonical form (leading/trailing zero)")
        if any(d < 0 or d >= self.config.p for d in self.digits):
            raise ValueError(f"digits out of range for p = {self.config.p}")

    @staticmethod
    def make(config: FieldConfig, level: int, digits) -> "FieldElement":
        """Build an element from possibly non-canonical digit data."""
        ds = list(digits)
        while ds and ds[-1] == 0:
            ds.pop()
        lead = 0
        while lead < len(ds) and ds[lead] == 0:
            lead += 1
        if lead == len(ds):
            return FieldElement(config, None, ())
        return FieldElement(config, level + lead, tuple(ds[lead:]))

    @staticmethod
    def zero(config: FieldConfig) -> "FieldElement":
        return FieldElement(config, None, ())

    @staticmethod
    def from_mantissa(config: FieldConfig, level: int, mantissa: int) -> "FieldElement":
        """Element with base-p expansion of `mantissa` starting at `level`."""
        if mantissa < 0:
            raise ValueError("mantissa must be nonnegative")
        ds = []
        m = mantissa
        while m:
            m, r = divmod(m, config.p)
            ds.append(r)
        return FieldElement.make(config, level, ds)

    @property
    def is_zero(self) -> bool:
        return self.level is None

    def mantissa(self) -> int:
        """The integer sum digits[i] * p^i (0 for the zero element)."""
        m = 0
        for d in reversed(self.digits):
            m = m * self.config.p + d
        return m

    def digit_at(self, j: int) -> int:
        """Digit at level j (0 outside the stored range)."""
        if self.level is None:
            return 0
        i = j - self.level
        if i < 0 or i >= len(self.digits):
            return 0
        return self.digits[i]

    def to_dict(self) -> dict:
        return {"level": self.level, "digits": list(self.digits)}


def valuation(x: FieldElement) -> int | float:
    """Leading digit level; math.inf for zero, so that |x| = q^{-valuation}."""
    return INFINITY if x.level is None else x.level


def abs_value(x: FieldElement) -> Fraction:
    """Exact absolute value q^{-valuation(x)} as a Fraction (0 for zero); an oracle."""
    if x.level is None:
        return Fraction(0)
    return Fraction(x.config.q) ** (-x.level)


@functools.lru_cache(maxsize=None)
def q_power(q: int, e: int) -> float:
    """q^e as the correctly rounded float, for Haar measures entering float sums."""
    return float(Fraction(q) ** e)


@functools.lru_cache(maxsize=None)
def digit_table(p: int, n: int) -> np.ndarray:
    """Read-only (p^n, n) array: row i holds the base-p digits of i, least significant first."""
    idx = np.arange(p**n)
    out = np.empty((p**n, n), dtype=np.int64)
    for d in range(n):
        idx, out[:, d] = np.divmod(idx, p)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def digit_reversal(p: int, n: int) -> np.ndarray:
    """Read-only permutation of 0 .. p^n - 1 that reverses the n base-p digits of each index."""
    # the digits of i, least significant first, are its coordinates in an F-order p-ary cube
    out = np.arange(p**n).reshape((p,) * n, order="F").T.ravel(order="F")
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def dft_matrix(p: int, k: int) -> np.ndarray:
    """Read-only DFT matrix of (Z/p)^k: W[u, v] = w^(<digits u, digits v> mod p).

    w = exp(-2 pi i / p) comes from one root table, the length-p DFT of a
    unit impulse, so for p = 2 every entry is exactly +-1.
    """
    roots = np.fft.fft(np.eye(p)[1])
    digits = digit_table(p, k)
    out = roots[(digits @ digits.T) % p]
    out.setflags(write=False)
    return out


def add(x: FieldElement, y: FieldElement) -> FieldElement:
    if x.config != y.config:
        raise ValueError("cannot add elements from different field configurations")
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    cfg = x.config
    k = min(x.level, y.level)
    if cfg.mode == "padic":
        p = cfg.p
        m = x.mantissa() * p ** (x.level - k) + y.mantissa() * p ** (y.level - k)
        return FieldElement.from_mantissa(cfg, k, m)
    top = max(x.level + len(x.digits), y.level + len(y.digits))
    ds = [(x.digit_at(j) + y.digit_at(j)) % cfg.p for j in range(k, top)]
    return FieldElement.make(cfg, k, ds)


def negate(x: FieldElement, truncation_level: int) -> FieldElement:
    """An element congruent to -x modulo P^truncation_level.

    In padic mode -x has an infinite digit tail, so only a truncated negative
    exists as a finite expansion; laurent negation is digit-wise and the
    truncation merely drops levels >= truncation_level.
    """
    if x.is_zero or x.level >= truncation_level:
        return FieldElement.zero(x.config)
    cfg = x.config
    if cfg.mode == "padic":
        n = truncation_level - x.level
        m = x.mantissa() % cfg.p**n
        if m == 0:
            return FieldElement.zero(cfg)
        return FieldElement.from_mantissa(cfg, x.level, cfg.p**n - m)
    ds = [(-x.digit_at(j)) % cfg.p for j in range(x.level, truncation_level)]
    return FieldElement.make(cfg, x.level, ds)


def truncate(x: FieldElement, level: int) -> FieldElement:
    """Drop all digits at levels >= level (i.e. reduce modulo P^level)."""
    if x.is_zero or x.level >= level:
        return FieldElement.zero(x.config)
    return FieldElement.make(x.config, x.level, x.digits[: level - x.level])


def multiply(x: FieldElement, y: FieldElement) -> FieldElement:
    if x.config != y.config:
        raise ValueError("cannot multiply elements from different field configurations")
    if x.is_zero or y.is_zero:
        return FieldElement.zero(x.config)
    cfg = x.config
    k = x.level + y.level
    if cfg.mode == "padic":
        return FieldElement.from_mantissa(cfg, k, x.mantissa() * y.mantissa())
    out = [0] * (len(x.digits) + len(y.digits) - 1)
    for i, a in enumerate(x.digits):
        if a == 0:
            continue
        for j, b in enumerate(y.digits):
            out[i + j] = (out[i + j] + a * b) % cfg.p
    return FieldElement.make(cfg, k, out)


def prime_shift(x: FieldElement, j: int) -> FieldElement:
    """Multiply by pi^j: every digit moves j levels deeper."""
    if x.is_zero:
        return x
    return FieldElement(x.config, x.level + j, x.digits)


def angular_part(x: FieldElement) -> FieldElement:
    """The unit u with x = pi^{valuation(x)} u, so |u| = 1."""
    if x.is_zero:
        raise ValueError("zero has no angular part")
    return FieldElement(x.config, 0, x.digits)


def base_character(z: FieldElement) -> complex:
    """The fixed additive character chi, trivial on D and nontrivial on P^{-1}.

    padic: chi(z) = exp(2 pi i frac(z)) where frac keeps the digits at
    negative levels; laurent: chi(z) = exp(2 pi i c_{-1}(z) / p).
    """
    cfg = z.config
    if cfg.mode == "padic":
        if z.is_zero or z.level >= 0:
            return 1.0 + 0.0j
        den = cfg.p ** (-z.level)
        num = z.mantissa() % den
        if num == 0:
            return 1.0 + 0.0j
        return cmath.exp(2j * math.pi * (num / den))
    c = z.digit_at(-1)
    if c == 0:
        return 1.0 + 0.0j
    return cmath.exp(2j * math.pi * (c / cfg.p))


def character(lam: FieldElement, x: FieldElement) -> complex:
    """chi_lambda(x) = chi(lambda x); the definition-level oracle for the transforms."""
    return base_character(multiply(lam, x))


def enumerate_cosets(config: FieldConfig, a: int, l: int) -> list[FieldElement]:
    """Canonical representatives of the q^{l-a} cosets of P^l inside P^a.

    Representative n carries the base-p digits of n at levels a, a+1, ...,
    l-1, least-significant digit at level a.  This ordering is the indexing
    contract for all value arrays in the package; Window.element is its fast
    form, and this list is the oracle for it.
    """
    if a > l:
        raise ValueError(f"invalid window: a = {a} > l = {l}")
    return [FieldElement.from_mantissa(config, a, n) for n in range(config.p ** (l - a))]


@dataclass(frozen=True)
class Ball:
    """The set center + P^scale, of exact Haar measure q^{-scale}."""

    center: FieldElement
    scale: int

    @property
    def config(self) -> FieldConfig:
        return self.center.config

    @property
    def measure(self) -> Fraction:
        return Fraction(self.config.q) ** (-self.scale)

    def canonical_center(self) -> FieldElement:
        return truncate(self.center, self.scale)

    def contains(self, x: FieldElement) -> bool:
        # |x - center| <= q^{-scale} iff the digit expansions agree below scale
        return truncate(x, self.scale) == self.canonical_center()

    def intersects(self, other: "Ball") -> bool:
        inner, outer = (self, other) if self.scale >= other.scale else (other, self)
        return outer.contains(inner.center)


class Window:
    """Indexing helper for the coset grid of P^l inside P^a.

    Cell n corresponds to enumerate_cosets(a, l)[n]; index arithmetic below
    realizes the quotient group P^a / P^l (cyclic Z/p^n for padic, (Z/p)^n
    for laurent) without leaving integer land.
    """

    def __init__(self, config: FieldConfig, a: int, l: int):
        if a > l:
            raise ValueError(f"invalid window: a = {a} > l = {l}")
        self.config = config
        self.a = a
        self.l = l
        self.n = l - a
        self.size = config.p**self.n

    def __eq__(self, other):
        return (isinstance(other, Window)
                and (self.config, self.a, self.l) == (other.config, other.a, other.l))

    def __repr__(self):
        return f"Window({self.config.mode}, p={self.config.p}, a={self.a}, l={self.l})"

    def element(self, n: int) -> FieldElement:
        return FieldElement.from_mantissa(self.config, self.a, n)

    def index_of(self, x: FieldElement) -> int | None:
        """Cell index of x, or None when x lies outside P^a.

        Digits at levels >= l are ignored (x is reduced modulo P^l first).
        """
        if x.is_zero:
            return 0
        if x.level < self.a:
            return None
        n = 0
        for j in range(self.l - 1, self.a - 1, -1):
            n = n * self.config.p + x.digit_at(j)
        return n

    # -- vectorized index arithmetic -------------------------------------

    def digit_matrix(self) -> np.ndarray:
        """Read-only (size, n) array, row i = base-p digits of i, least significant first."""
        return digit_table(self.config.p, self.n)

    def _recompose(self, digits: np.ndarray) -> np.ndarray:
        p = self.config.p
        out = np.zeros(digits.shape[:-1], dtype=np.int64)
        for d in range(self.n - 1, -1, -1):
            out = out * p + digits[..., d]
        return out

    def index_add(self, i, j):
        if self.config.mode == "padic":
            return (np.asarray(i) + np.asarray(j)) % self.size
        di = self.digit_matrix()[np.asarray(i)]
        dj = self.digit_matrix()[np.asarray(j)]
        return self._recompose((di + dj) % self.config.p)

    def index_sub(self, i, j):
        if self.config.mode == "padic":
            return (np.asarray(i) - np.asarray(j)) % self.size
        di = self.digit_matrix()[np.asarray(i)]
        dj = self.digit_matrix()[np.asarray(j)]
        return self._recompose((di - dj) % self.config.p)

    def sub_table(self) -> np.ndarray:
        """(size, size) table T[i, j] = index of element_i - element_j; the convolution oracle."""
        idx = np.arange(self.size)
        return self.index_sub(idx[:, None], idx[None, :])

    def dft(self, values: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Unnormalised DFT of the quotient group over the cell values.

        padic: the group is cyclic Z/p^n, so a plain length-p^n DFT.  laurent:
        it is (Z/p)^n, whose character matrix is the n-fold Kronecker power of
        the p x p root table.  Split the digits at lo = n // 2: the cell
        values, reshaped in C order, form a (p^(n-lo), p^lo) matrix X whose
        rows are the high digits and columns the low digits, and the DFT is
        W_(n-lo) X W_lo with W_k = dft_matrix(p, k).  The inverse uses the
        conjugate matrices, as conj(W_(n-lo) conj(X) W_lo), so only one
        matrix per size is kept; it carries no 1/N factor.  A leading axis
        of values holds rows, each transformed as it would be alone.
        """
        if self.config.mode == "padic":
            return np.fft.ifft(values) * self.size if inverse else np.fft.fft(values)
        if self.n == 0:
            return np.array(values, dtype=np.complex128)
        p, lo = self.config.p, self.n // 2
        x = np.reshape(values, np.shape(values)[:-1] + (p ** (self.n - lo), p**lo))
        if inverse:
            out = np.conj(dft_matrix(p, self.n - lo) @ np.conj(x) @ dft_matrix(p, lo))
        else:
            out = dft_matrix(p, self.n - lo) @ x @ dft_matrix(p, lo)
        return out.reshape(np.shape(values))

    def valuation_levels(self) -> np.ndarray:
        """Per cell: valuation of every element in the cell, l for the zero cell.

        Cell n != 0 consists of elements sharing the leading digit position,
        so valuation is constant = a + (position of lowest nonzero digit),
        that is a + the number of times p divides n.  The zero cell is P^l,
        where valuation >= l; the sentinel l is returned.
        """
        levels = np.empty(self.size, dtype=np.int64)
        for d in range(self.n + 1):
            levels[:: self.config.p**d] = self.a + d
        return levels
