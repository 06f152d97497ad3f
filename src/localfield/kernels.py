"""Rough kernels on the unit sphere, atoms, atomic decomposition, Taibleson modulus.

An AngularKernel stores the values of the angular function on the
(q-1) q^{m-1} cells of the unit sphere at digit resolution m.  Cell order:
leading digit c_0 runs from 1 to q-1 outermost, then the remaining digits
(c_1, ..., c_{m-1}) in dictionary order, so c_{m-1} varies fastest.
Evaluation anywhere off 0 routes through the angular part, which makes the
scale invariance structural rather than numerical.

Mean-zero and atom conditions are checked exactly, in integers over a common
power of two; the projection and atom constructions snap results onto a
dyadic grid so those exact checks genuinely pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import (FieldConfig, FieldElement, Window, angular_part, digit_reversal, expect,
                    is_int, q_power)
from .functions import (TestFunction, _finite_values, _frozen, _value_pairs, check_cell_count,
                        coarsen_resolution, coset_tree, dyadic_ints, lift, refine)

_ATOM_LAMBDA_MARGIN = 1.0 + 2.0**-40
_GRID_BITS = 48


def sphere_cell_count(config: FieldConfig, m: int) -> int:
    return (config.p - 1) * config.p ** (m - 1)


def _component_sums(values: np.ndarray) -> tuple[int, int, int]:
    """Exact real and imaginary sums of values as integers over one denominator."""
    ints, den = dyadic_ints(np.stack([values.real, values.imag]))
    re, im = ints.sum(axis=1)
    return re, im, den


def _exactly_mean_zero(values: np.ndarray) -> bool:
    re, im, _ = _component_sums(values)
    return re == 0 and im == 0


@dataclass(frozen=True, eq=False)
class AngularKernel:
    """Kernel values on the unit sphere at resolution m; also the shape of an atom."""

    config: FieldConfig
    m: int
    values: np.ndarray
    is_mean_zero: bool

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    def to_dict(self) -> dict:
        return {"m": self.m, "values": _value_pairs(self.values)}

    @staticmethod
    def from_dict(config: FieldConfig, d: dict) -> "AngularKernel":
        return make_kernel(config, _finite_values(d["values"]), d["m"])


def check_resolution(m) -> None:
    """Raise ValueError unless m, a kernel's digit resolution, is an int >= 1."""
    expect(is_int(m) and m >= 1, "an integer >= 1", m)


def make_kernel(config: FieldConfig, values, m: int) -> AngularKernel:
    """Store kernel values unchanged; the mean-zero flag records the exact check."""
    check_resolution(m)
    vals = np.asarray(values, dtype=np.complex128)
    check_cell_count(vals, config.q - 1, config.q, m - 1)  # (q-1) q^(m-1) sphere cells
    return AngularKernel(config, m, vals, _exactly_mean_zero(vals))


@functools.lru_cache(maxsize=None)
def kernel_window_indices(config: FieldConfig, m: int) -> np.ndarray:
    """Read-only map kernel cell -> cell index in the window (0, m) covering the unit ball.

    Window indices are little-endian in the digits (c_0 fastest) while kernel
    cells run c_0 outermost and the tail in dictionary order, so the tail
    digits get reversed.
    """
    q = config.p
    rev = digit_reversal(q, m - 1)
    lead = np.arange(1, q)
    out = (lead[:, None] + q * rev[None, :]).ravel()
    out.setflags(write=False)
    return out


def kernel_as_test_function(k: AngularKernel) -> TestFunction:
    """The kernel as a function on the unit ball, zero off the unit sphere."""
    vals = np.zeros(k.config.p**k.m, dtype=np.complex128)
    vals[kernel_window_indices(k.config, k.m)] = k.values
    return TestFunction(k.config, 0, k.m, vals)


def _kernel_cell_index(k: AngularKernel, digits) -> int:
    """Kernel array position for angular digits (c_0, ..., c_{m-1})."""
    q = k.config.p
    tail = 0
    for i in range(1, k.m):
        tail = tail * q + int(digits[i])
    return (int(digits[0]) - 1) * q ** (k.m - 1) + tail


def evaluate_homogeneous(k: AngularKernel, y: FieldElement) -> complex:
    """Kernel value at y via the angular part; invariant under prime shifts of y.

    The point-by-point oracle for shell_piece and the Taibleson modulus.
    """
    if y.is_zero:
        raise ValueError("the homogeneous kernel is undefined at 0")
    u = angular_part(y)
    return complex(k.values[_kernel_cell_index(k, [u.digit_at(i) for i in range(k.m)])])


# -- exact mean-zero snapping -------------------------------------------------


def _snap_component(comp: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Quantize one real component to a dyadic grid with exactly zero sum."""
    amax = float(np.max(np.abs(comp)))
    if amax == 0.0:
        return comp
    e = int(math.ceil(math.log2(amax))) - _GRID_BITS
    ints = np.rint(comp * math.ldexp(1.0, -e)).astype(np.int64)
    r = int(ints.sum())
    if r != 0:
        sign = 1 if r > 0 else -1
        base, rem = divmod(abs(r), ints.size)
        ints -= sign * base
        ints[order[:rem]] -= sign
    return ints.astype(np.float64) * math.ldexp(1.0, e)


def _snap_zero_sum(values: np.ndarray) -> np.ndarray:
    """Snap a complex array so both component sums are exactly zero.

    Residual grid units land on the smallest-modulus cells, which keeps the
    perturbation harmless relative to any sup constraint.
    """
    order = np.argsort(np.hypot(values.real, values.imag), kind="stable")
    return _snap_component(values.real.copy(), order) + 1j * _snap_component(
        values.imag.copy(), order
    )


def mean_zero_project(k: AngularKernel) -> AngularKernel:
    """Subtract the sphere average; exact zero integral, idempotent."""
    if k.is_mean_zero:
        return k
    # exact rational mean, correctly rounded, so constant kernels land exactly on zero
    re, im, den = _component_sums(k.values)
    mean = complex(re / (den * k.values.size), im / (den * k.values.size))
    out = make_kernel(k.config, _snap_zero_sum(k.values - mean), k.m)
    assert out.is_mean_zero
    return out


# -- atoms --------------------------------------------------------------------


@dataclass(frozen=True)
class AtomCheck:
    """Outcome of validate_atom; support holds by construction for an AngularKernel."""

    valid: bool
    violation: str | None = None  # first failed condition: sup_bound | mean


def _sup_bound_holds(values: np.ndarray, config: FieldConfig) -> bool:
    # |z|^2 <= (q/(q-1))^2 with z = (re + i im)/den, cleared of denominators
    (re, im), den = dyadic_ints(np.stack([values.real, values.imag]))
    q = config.q
    return bool(np.all((re**2 + im**2) * (q - 1) ** 2 <= (q * den) ** 2))


def validate_atom(a: AngularKernel) -> AtomCheck:
    """Check the atom conditions exactly and report the first violation.

    An AngularKernel lives on the unit sphere, so (i) the support condition
    always holds; validate_atom checks (ii) sup modulus at most
    (1 - q^{-1})^{-1} and (iii) exact zero mean.
    """
    if not _sup_bound_holds(a.values, a.config):
        return AtomCheck(False, "sup_bound")
    if not _exactly_mean_zero(a.values):
        return AtomCheck(False, "mean")
    return AtomCheck(True)


@dataclass(frozen=True, eq=False)
class AtomicDecomposition:
    terms: tuple  # of (lambda_i: float, atom_i: AngularKernel)
    h1_upper_bound: float

    def reconstruction(self, config: FieldConfig, m: int) -> np.ndarray:
        out = np.zeros(sphere_cell_count(config, m), dtype=np.complex128)
        for lam, atom in self.terms:
            out = out + lam * atom.values
        return out


def _scaled_atom(config: FieldConfig, m: int, values: np.ndarray) -> tuple[float, AngularKernel]:
    """Normalize values into lam * atom with the sup saturating its bound."""
    sup = float(np.max(np.hypot(values.real, values.imag)))
    lam = sup * (config.q - 1) / config.q * _ATOM_LAMBDA_MARGIN
    for _ in range(6):
        snapped = _snap_zero_sum(values / lam)
        atom = make_kernel(config, snapped, m)
        if atom.is_mean_zero and _sup_bound_holds(snapped, config):
            return lam, atom
        lam *= 1.0 + 2.0**-38
    raise AssertionError("atom normalization failed to satisfy the sup bound")


def _haar_differences(k: AngularKernel) -> list[np.ndarray]:
    """Martingale differences along the q-ary coset tree of the unit sphere.

    Depth d is E_(d+1), which fixes (c_0, ..., c_d) and averages the rest: a
    level of the functions.coset_tree of kernel_as_test_function(k), lifted
    onto (0, m) by functions.lift and read at the kernel's cells (the sphere
    is a union of cosets of P^1).  The differences telescope from the exactly-zero global average
    up to the resolution-m values in m levels.
    """
    p = k.config.p
    cells = kernel_window_indices(k.config, k.m)
    tree = coset_tree(kernel_as_test_function(k).values, p, k.m - 1)[::-1]  # E_1 .. E_m
    levels = [lift(e, p**k.m)[cells] for e in tree]
    return [level - prev for prev, level in zip([0, *levels], levels)]


def atomic_decompose(k: AngularKernel, strategy: str = "scaled") -> AtomicDecomposition:
    """Write k as a sum of scalars times valid atoms, exact at resolution m.

    strategy "scaled" (default): a kernel that is already a valid atom is its
    own decomposition with scalar 1; anything else becomes the single atom
    k / lam with lam just above (1 - q^{-1}) sup|k|, saturating the sup
    condition.  The 2^-40 relative margin keeps h1_upper_bound sub-additive
    across sums of kernels to within ~1e-12.

    strategy "haar": one atom per nonzero martingale difference along the
    coset tree; sub-additive by linearity but never the identity on atoms.
    """
    if not k.is_mean_zero:
        raise ValueError("decompose requires a mean-zero kernel; project first")
    if not np.any(k.values != 0):
        return AtomicDecomposition((), 0.0)
    if strategy == "scaled":
        if validate_atom(k).valid:
            return AtomicDecomposition(((1.0, k),), 1.0)
        lam, atom = _scaled_atom(k.config, k.m, k.values)
        return AtomicDecomposition(((lam, atom),), lam)
    if strategy == "haar":
        terms = []
        for diff in _haar_differences(k):
            if not np.any(diff != 0):
                continue
            terms.append(_scaled_atom(k.config, k.m, diff))
        return AtomicDecomposition(tuple(terms), math.fsum(lam for lam, _ in terms))
    raise ValueError(f"unknown decomposition strategy {strategy!r}")


def h1_upper_bound(k: AngularKernel) -> float:
    return atomic_decompose(k).h1_upper_bound


# -- homogeneous extension on windows ------------------------------------------


def shell_piece(k: AngularKernel, j: int, resolution: int | None = None) -> TestFunction:
    """The extended kernel restricted to the shell of radius q^{j+1}.

    The extension is constant on cosets at level m - (j+1) inside that
    shell, so the natural window is (-(j+1), m-(j+1)); a finer resolution
    refines it, a coarser one down to -(j+1) gives its coset average.
    Multiplying by pi^{-(j+1)} carries the natural window's cells onto those
    of the unit-ball window (0, m) with the same digits, so the piece is
    kernel_as_test_function(k) relabelled.
    """
    a = -(j + 1)
    natural = k.m + a
    res = natural if resolution is None else resolution
    if res < a:
        raise ValueError("resolution coarser than the shell's support scale")
    piece = TestFunction(k.config, a, natural, kernel_as_test_function(k).values)
    return refine(piece, a, res) if res >= natural else coarsen_resolution(piece, res)


# -- Taibleson smoothness modulus ----------------------------------------------


def taibleson_terms(k: AngularKernel, J: int) -> np.ndarray:
    """Shifted-difference L1 masses, one row per unit-sphere cell y, one column per j.

    Column j - 1 integrates |k(x + pi^j y) - k(x)| over the unit sphere, for
    j = 1 .. min(J, m).  Terms with j >= m vanish identically (the shift
    stays inside one resolution-m cell), so column m - 1, when present, must
    be exactly 0.0.
    """
    if J < 1:
        raise ValueError(f"J = {J} must be >= 1")
    w = Window(k.config, 0, k.m)
    kw = kernel_window_indices(k.config, k.m)
    back = np.full(w.size, -1, dtype=np.int64)
    back[kw] = np.arange(kw.size)
    meas = q_power(k.config.q, -k.m)
    terms = np.zeros((kw.size, min(J, k.m)))
    for j, column in enumerate(terms.T, 1):
        # pi^j y is cell y p^j mod p^m = (y mod p^(m-j)) p^j: one term per distinct shift
        step = k.config.p**j
        shifts, which = np.unique(kw % (w.size // step) * step, return_inverse=True)
        diffs = (k.values[back[w.index_add(kw, s)]] - k.values for s in shifts.tolist())
        column[:] = np.array([math.fsum(np.hypot(d.real, d.imag)) * meas for d in diffs])[which]
    return terms


def taibleson_modulus(k: AngularKernel, J: int) -> float:
    """Largest over unit y of the sum over j <= J of the taibleson_terms.

    The sum runs to min(J, m): from J = m - 1 on the value is stable, and
    J >= m adds the first vanishing term.
    """
    return max(math.fsum(row) for row in taibleson_terms(k, J))
