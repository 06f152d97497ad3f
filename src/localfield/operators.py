"""Truncated rough convolution operator, its per-atom version and shell pieces.

The truncated operator integrates f(x - y) against the homogeneous extension
of an angular kernel over |y| > q^k, weighted by |y|^{-1}.  On a declared
output window the dyadic sum over shells is finite: shells larger than both
the window and the support of f cannot reach any output point, so the tail
vanishes identically rather than approximately.  sphere_integral, the
definition-level sphere sum, is the slow exact route, the oracle for
apply_truncated.  The per-atom operator refuses a kernel that validate_atom
rejects (check_atom).  Every operator also takes a stack of functions.

A convolution keeps the resolution of f: if f is constant on the cosets of
P^l, then f * g = f * E_l g, where E_l g averages g over those cosets
(functions.coarsen_resolution), and f * g is constant on them too.  So the
truncation kernel is built from shell pieces at the resolution of f
(kernels.shell_piece), and a shell inside one coset of P^l, which averages
to the kernel's mean 0, is skipped.  So T_k f is computed at the resolution
of f on every window, and has one window rule, resolution_spec: the
resolution of f with one scale of spill room.  A declared window finer than
f gets the exact refinement of that result; one coarser than f, or narrower
than its support, is refused.

Every operator output is a convolution on a window: a cached multiplier (the
window DFT of its kernel factor) times the input's spectrum, then one inverse
(functions.convolve_spectra), so it is functions.convolve of its factors, in
the same order (a vectorized complex product need not commute bit for bit),
bit for bit.  T_k f is f * K_k on (-(jmax+1), l), with K_k =
truncation_kernel(kernel, k, jmax, l), and apply_shell's g_j * f lies on
(min(a, -(j+1)), l), with g_j = shell_piece(kernel, j, l).  Both caches are
keyed on objects (AngularKernel and TestFunction compare by identity, and a
cache keeps its keys alive, so an id is never reused) and hold read-only
arrays:
- the multipliers, truncation_multiplier on (kernel, k, jmax, l) and
  shell_multiplier on (kernel, j, a, l), at most 32 entries each: the default
  verify run has 20 and 15 distinct keys, a pass of 96 large-window calls 12
  and 0.  A multiplier takes 16 bytes per window cell, 512 KiB on 32,768.
- functions._input_spectrum, the last two (input, window) spectra, so
  apply-tk's loop over k transforms its input once, and each verify protocol
  each corpus stack once per window (T_k f's and the pieces').
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import FieldElement, Window, add, negate, q_power
from .functions import (TestFunction, _input_spectrum, convolve_spectra, evaluate, refine,
                        window_spectrum)
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


def resolution_spec(f: TestFunction, k: int) -> TruncationSpec:
    """T_k f at the resolution of f, with one scale of spill room: (a - 1, l).

    T_k f is constant on the cosets of P^l (module docstring), so this window
    holds it whole; the harness measures and apply-tk writes every T_k f on it.
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


@functools.lru_cache(maxsize=32)
def truncation_multiplier(kernel: AngularKernel, k: int, jmax: int, l: int) -> np.ndarray:
    """The window DFT of truncation_kernel(kernel, k, jmax, l) refined onto (-(jmax+1), l),
    the window T_k f is convolved on for an f on the cosets of P^l; read-only."""
    return window_spectrum(truncation_kernel(kernel, k, jmax, l), -(jmax + 1), l)


@functools.lru_cache(maxsize=32)
def shell_multiplier(kernel: AngularKernel, j: int, a: int, l: int) -> np.ndarray:
    """The window DFT of shell_piece(kernel, j, l) refined onto (a, l), a <= -(j+1),
    the window g_j * f is convolved on for an f on the cosets of P^l; read-only."""
    return window_spectrum(shell_piece(kernel, j, l), a, l)


def apply_truncated(f: TestFunction, kernel: AngularKernel, spec: TruncationSpec) -> TestFunction:
    """The truncated operator on the declared output window: the dyadic sum over shells
    j = spec.k .. tail_cutoff, f * K_k at f's resolution (module docstring), refined onto
    the window; linear in f and in the kernel.  The window must hold f's cells, out_a <=
    f.a and out_l >= f.l, or refine raises ValueError."""
    if f.config != kernel.config:
        raise ValueError("function and kernel live on different fields")
    if not kernel.is_mean_zero:
        raise ValueError("truncated operator requires a mean-zero kernel")
    jmax = tail_cutoff(spec.out_a, f.a)
    if spec.k > jmax:
        shape = f.values.shape[:-1] + (f.config.p ** (spec.out_l - spec.out_a),)
        return TestFunction(f.config, spec.out_a, spec.out_l, np.zeros(shape, dtype=np.complex128))
    w = Window(f.config, -(jmax + 1), f.l)
    conv = convolve_spectra(w, _input_spectrum(f, w.a, w.l),
                            truncation_multiplier(kernel, spec.k, jmax, f.l))
    return refine(conv, spec.out_a, spec.out_l)


def apply_shell(f: TestFunction, kernel: AngularKernel, j: int) -> TestFunction:
    """g_j * f on (min(a, -(j+1)), l), g_j = shell_piece(kernel, j, l) at f's resolution l:
    shell_multiplier times f's spectrum, then one inverse (module docstring)."""
    if f.config != kernel.config:
        raise ValueError("function and kernel live on different fields")
    w = Window(f.config, min(f.a, -(j + 1)), f.l)
    return convolve_spectra(w, shell_multiplier(kernel, j, w.a, w.l), _input_spectrum(f, w.a, w.l))


def check_atom(atom: AngularKernel) -> AngularKernel:
    """atom, or ValueError unless validate_atom accepts it."""
    chk = validate_atom(atom)
    if not chk.valid:
        raise ValueError(f"invalid atom: {chk.violation} condition fails")
    return atom


def apply_atom_operator(f: TestFunction, atom: AngularKernel, spec: TruncationSpec) -> TestFunction:
    """The per-atom operator: same shell sum, but the kernel must be a valid atom."""
    return apply_truncated(f, check_atom(atom), spec)
