"""Truncated rough convolution operator and its per-atom version.

The truncated operator integrates f(x - y) against the homogeneous extension
of an angular kernel over |y| > q^k, weighted by |y|^{-1}.  On a declared
output window the dyadic sum over shells is finite: shells larger than both
the window and the support of f cannot reach any output point, so the tail
vanishes identically rather than approximately.

The whole operator collapses to a single group convolution with a compactly
windowed kernel function, which keeps the fast path inside the tested
convolution machinery; sphere_integral, the definition-level sphere sum, is
kept as the slow exact route, the oracle for apply_truncated.  The per-atom
operator takes an AngularKernel and refuses one that validate_atom rejects.
Both operators also take a stack of functions (a row axis), whose rows
then share one transform of the truncation kernel.

A convolution keeps the resolution of f: if f is constant on the cosets of
P^l, then f * g = f * E_l g, where E_l g averages g over those cosets
(functions.coarsen_resolution), and f * g is constant on them too.  So the
truncation kernel is built from shell pieces at the resolution of f
(kernels.shell_piece), and a shell inside one coset of P^l, which averages
to the kernel's mean 0, is skipped.  T_k f is computed at the resolution of
f whatever the kernel's own, and the finer output window output_spec
declares is an exact refinement of it.

truncation_kernel is memoized: the harness applies every corpus kernel to
every corpus function at each k, so without a cache the same (kernel, k,
jmax, l) kernel would be rebuilt once per function.  The cache is keyed on
the kernel object itself (AngularKernel compares by identity, and the cache
keeps the key alive, so an id is never reused) and holds at most 32
entries, enough for one run's distinct keys (20 in the default verify
run); the cached values are read-only, so sharing them is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import FieldElement, add, negate, q_power
from .functions import (
    TestFunction,
    coarsen_resolution,
    convolve,
    evaluate,
    refine,
    restrict_support,
)
from .kernels import AngularKernel, shell_piece, validate_atom


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation level k (integrate over |y| > q^k) plus the output window."""

    k: int
    out_a: int
    out_l: int

    def __post_init__(self):
        if self.out_a > self.out_l:
            raise ValueError(f"output window ({self.out_a}, {self.out_l}) is empty")

    def to_dict(self) -> dict:
        return {"k": self.k, "out_a": self.out_a, "out_l": self.out_l}


def tail_cutoff(out_a: int, f_a: int) -> int:
    """Largest shell index that can touch the output window: beyond it,
    |x - y| = |y| exceeds the support of f for every represented x."""
    return -min(out_a, f_a) - 1


def output_spec(f: TestFunction, m: int, k: int) -> TruncationSpec:
    """The window the CLI gives T_k f: one scale of spill room beyond the support
    of f, at the finer of its resolution and that of a resolution-m kernel's shell k."""
    return TruncationSpec(k, f.a - 1, max(f.l, m - (k + 1)))


def resolution_spec(f: TestFunction, k: int) -> TruncationSpec:
    """T_k f at the resolution of f, with one scale of spill room: (a - 1, l).

    T_k f is constant on the cosets of P^l (module docstring), so this window
    holds it whole; the harness measures every T_k f on it.
    """
    return TruncationSpec(k, f.a - 1, f.l)


def sphere_integral(f: TestFunction, kernel: AngularKernel, j: int, x: FieldElement) -> complex:
    """Integral of f(x - y) against the extended kernel over the shell |y| = q^{j+1}.

    Exact coset sum at refinement level max(l_f, m - (j+1)); linear in f and
    in the kernel.  The oracle for apply_truncated.
    """
    if f.config != kernel.config:
        raise ValueError("function and kernel live on different fields")
    level = max(f.l, kernel.m - (j + 1))
    piece = shell_piece(kernel, j, resolution=level)
    w = piece.window
    meas = q_power(f.config.q, -level)
    re, im = [], []
    for idx in np.flatnonzero(piece.values != 0):
        y = w.element(int(idx))
        z = evaluate(f, add(x, negate(y, level))) * piece.values[idx]
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im)) * meas


@functools.lru_cache(maxsize=32)
def truncation_kernel(kernel: AngularKernel, k: int, jmax: int, l: int) -> TestFunction:
    """The windowed convolution kernel |y|^{-1} ext(y) on q^{k+1} <= |y| <= q^{jmax+1},
    built at res = min(m - (k+1), l), never finer than an f on the cosets of P^l
    (module docstring); each shell j < -res lies in one coset of P^res, averages
    to the kernel's exact mean 0 (apply_truncated requires it) and is skipped."""
    if k > jmax:
        raise ValueError("empty shell range")
    a = -(jmax + 1)
    res = min(kernel.m - (k + 1), l)
    total = np.zeros(kernel.config.p ** (res - a), dtype=np.complex128)
    for j in range(max(k, -res), jmax + 1):
        piece = refine(shell_piece(kernel, j, res), a, res)
        total += q_power(kernel.config.q, -(j + 1)) * piece.values
    return TestFunction(kernel.config, a, res, total)


def _fit_window(f: TestFunction, a_new: int, l_new: int) -> TestFunction:
    """Window change that never invents values: restriction may drop outside
    mass by design, but coarsening is refused unless each row is constant
    on the coarser cells (up to convolution rounding noise in that row)."""
    g = f
    if a_new > g.a:
        g = restrict_support(g, a_new)
    if l_new < g.l:
        c = coarsen_resolution(g, l_new)
        tol = 1e-9 * (1.0 + np.max(np.abs(g.values), axis=-1, initial=0.0))
        d = refine(c, g.a, g.l).values - g.values
        if np.any(np.max(np.hypot(d.real, d.imag), axis=-1, initial=0.0) > tol):
            raise ValueError("declared output resolution would lose information")
        g = c
    elif l_new > g.l:
        g = refine(g, g.a, l_new)
    return g


def apply_truncated(f: TestFunction, kernel: AngularKernel, spec: TruncationSpec) -> TestFunction:
    """The truncated operator on the declared output window.

    Dyadic sum over shells j = spec.k .. tail_cutoff, realized as one group
    convolution at the resolution of f; linear in f and in the kernel.
    """
    if f.config != kernel.config:
        raise ValueError("function and kernel live on different fields")
    if not kernel.is_mean_zero:
        raise ValueError("truncated operator requires a mean-zero kernel")
    jmax = tail_cutoff(spec.out_a, f.a)
    if spec.k > jmax:
        shape = f.values.shape[:-1] + (f.config.p ** (spec.out_l - spec.out_a),)
        return TestFunction(f.config, spec.out_a, spec.out_l, np.zeros(shape, dtype=np.complex128))
    conv = convolve(f, truncation_kernel(kernel, spec.k, jmax, f.l))
    return _fit_window(conv, spec.out_a, spec.out_l)


def apply_atom_operator(f: TestFunction, atom: AngularKernel, spec: TruncationSpec) -> TestFunction:
    """The per-atom operator: same shell sum, but the kernel must be a valid atom."""
    chk = validate_atom(atom)
    if not chk.valid:
        raise ValueError(f"invalid atom: {chk.violation} condition fails")
    return apply_truncated(f, atom, spec)
