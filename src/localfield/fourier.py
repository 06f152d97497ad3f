"""Fourier transforms between function and spectral windows, and the multiplier route.

A TestFunction on window (a, l) transforms to a SpectralFunction supported
in the character group ball Gamma^l and constant on Gamma^a-cosets; the
spectral grid is indexed exactly like enumerate_cosets(-l, -a) through the
lambda <-> chi_lambda identification.

The fast path is the quotient-group DFT of field.Window.dft plus the Haar
scaling: a cyclic FFT in padic mode, two Kronecker-factor matrix products
in laurent mode.  In laurent mode a digit-reversal permutation follows the
group DFT, because the pairing couples digit i of the point with digit
n-1-i of the frequency.  The O(N^2) definition sums (forward_naive /
inverse_naive) are kept as an independent route, the oracle for the fast
path.  apply_multiplier is the one forward -> symbol -> inverse route.
spectral_l2_norm is functions.lr_norms_of_parts of lr_parts at r = 2 with
cell q^a, the route of lr_norm on the function side: correctly rounded, and
inf past the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import FieldConfig, Window, digit_reversal, q_power
from .functions import TestFunction, _frozen, _value_pairs, lr_norms_of_parts, lr_parts

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Fourier-side data: support in Gamma^l, constant on Gamma^a-cosets (a <= l)."""

    config: FieldConfig
    l: int
    a: int
    values: np.ndarray

    def __post_init__(self):
        if self.a > self.l:
            raise ValueError(f"invalid spectral window: a = {self.a} > l = {self.l}")
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.shape != (self.config.p ** (self.l - self.a),):
            raise ValueError("spectral value count does not match the window")

    @property
    def dual_window(self) -> Window:
        """Indexing window for the frequency representatives."""
        return Window(self.config, -self.l, -self.a)

    def to_dict(self) -> dict:
        return {"l": self.l, "a": self.a, "values": _value_pairs(self.values)}


def _pairing_order(w: Window, values: np.ndarray) -> np.ndarray:
    """Match group-DFT order to the character pairing: the identity in padic
    mode; in laurent mode reverse the base-p digits of the cell index."""
    if w.config.mode == "padic":
        return values
    return values[digit_reversal(w.config.p, w.n)]


def forward(f: TestFunction) -> SpectralFunction:
    """fhat(xi) = q^{-l} sum_cells value * conj(chi_xi(cell)), fast path."""
    w = f.window
    spec = _pairing_order(w, w.dft(f.values))
    return SpectralFunction(f.config, f.l, f.a, spec * q_power(f.config.q, -f.l))


def inverse(F: SpectralFunction) -> TestFunction:
    """Inverse transform back onto the function window (a, l) = (F.a, F.l)."""
    w = Window(F.config, F.a, F.l)
    vals = w.dft(_pairing_order(w, F.values), inverse=True)
    return TestFunction(F.config, F.a, F.l, vals * q_power(F.config.q, F.a))


def _character_sum(w: Window, values: np.ndarray, unit: complex) -> np.ndarray:
    """out[u] = sum_v exp(unit 2 pi <u, v>) values[v] over the cells of w, unit -1j or 1j.

    The pairing <u, v> is u v / N in padic mode and, in laurent mode, the
    digits of u against the reversed digits of v over p.  This O(N^2) sum is
    the definition, independent of Window.dft.
    """
    padic = w.config.mode == "padic"
    order = w.size if padic else w.config.p
    roots = np.exp(unit * _TWO_PI * np.arange(order) / order)
    cells = np.arange(w.size)
    digits = None if padic else w.digit_matrix()
    out = np.empty(w.size, dtype=np.complex128)
    for u in range(w.size):
        phase = u * cells if padic else digits @ digits[u, ::-1]
        out[u] = roots[phase % order] @ values
    return out


def forward_naive(f: TestFunction) -> SpectralFunction:
    """Definition-level O(N^2) character sum; the independent slow route, oracle for forward."""
    out = _character_sum(f.window, f.values, -1j)
    return SpectralFunction(f.config, f.l, f.a, out * q_power(f.config.q, -f.l))


def inverse_naive(F: SpectralFunction) -> TestFunction:
    """Definition-level O(N^2) character sum; the oracle for inverse."""
    out = _character_sum(F.dual_window, F.values, 1j)
    return TestFunction(F.config, F.a, F.l, out * q_power(F.config.q, F.a))


def apply_multiplier(f: TestFunction, symbol) -> TestFunction:
    """F^{-1}(symbol . F f) for a symbol given as q^{l-a} values in spectral cell order."""
    F = forward(f)
    m = np.asarray(symbol, dtype=np.complex128)
    if m.shape != F.values.shape:
        raise ValueError(f"multiplier has shape {m.shape}, expected {F.values.shape}")
    return inverse(SpectralFunction(F.config, F.l, F.a, F.values * m))


def spectral_l2_norm(F: SpectralFunction) -> float:
    """L^2 norm of the spectral data under dual Haar measure |Gamma^a| = q^a, summed by
    functions.lr_norms_of_parts as lr_norm is; inf past the float range."""
    ((norm,),) = lr_norms_of_parts(lr_parts([F.values[None]], 2), [q_power(F.config.q, F.a)], 2)
    return norm
