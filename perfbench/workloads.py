"""The benchmark workloads: inputs made from a seed, timed units, output checks.

A workload is built once (its set-up), then run_unit() is called repeatedly.
Each unit returns the wall times of its timed parts and, outside those timed
parts, checks its own outputs; check_run() makes the more expensive
definition-level checks once per run.  Both return (attempted, failed)
operation counts.

verify-padic2 and verify-laurent3 run ``localfield verify`` in-process through
localfield.cli.main; thousands of small-window calls make per-call overhead
dominate, and the laurent p = 3 run enters the multi-radix fftn branch that
padic p = 2 never does.  large-windows makes the library calls behind the
transform, apply-tk, norms and cz-decompose subcommands on 4,096- and
16,384-cell windows, where FFT throughput and the exact Fraction CZ audit
dominate and the direct convolution path is never taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# timed calls go through the module attributes, where the tracer installs
# its wrappers, so a traced unit sees them
from localfield import cli, decomp, fourier, functions, operators
from localfield.field import FieldConfig, Window
from localfield.functions import TestFunction
from localfield.operators import TruncationSpec, sphere_integral, tail_cutoff
from localfield.verify import DEFAULT_SRT_LIST, generate_corpus

KERNEL_RESOLUTIONS = (2, 3, 4)
ORACLE_TOL = 1e-12
ROUNDTRIP_TOL = 1e-12
PLANCHEREL_TOL = 1e-10
BF_GAP_TOL = 1e-11
# the one CZ clause the CLI reports without letting it fail a run
INFORMATIONAL_CZ_CLAUSES = ("remark_bad_l1_within_f_l1",)


def operator_window(f: TestFunction, m: int, k: int) -> TruncationSpec:
    """The output window the CLI and the harness give T_k f."""
    out_a = f.a - 1
    return TruncationSpec(k, out_a, max(f.l, m - (k + 1), out_a))


def oracle_cell(f: TestFunction, kernel, spec: TruncationSpec, cell: int) -> complex:
    """T_k f at one output cell from the definition-level sphere sums."""
    x = Window(f.config, spec.out_a, spec.out_l).element(cell)
    q = Fraction(f.config.q)
    return sum(float(q ** (-(j + 1))) * sphere_integral(f, kernel, j, x)
               for j in range(spec.k, tail_cutoff(spec.out_a, f.a) + 1))


def _oracle_samples(rng, draws) -> tuple:
    """(attempted, failed) over sampled (f, kernel, k, cell) operator outputs."""
    failed = 0
    for f, kernel, k in draws:
        spec = operator_window(f, kernel.m, k)
        got = operators.apply_truncated(f, kernel, spec)
        cell = int(rng.integers(got.values.size))
        if not abs(got.values[cell] - oracle_cell(f, kernel, spec, cell)) <= ORACLE_TOL:
            failed += 1
    return len(draws), failed


def _finite_ratios(report: dict) -> bool:
    tables = report["tables"]
    values = [row[3] for row in tables.get("lebesgue", []) + tables.get("besov_tl", [])]
    values += [row["ratio"] for row in tables.get("pieces", []) + tables.get("l2_weak", [])]
    values += [row[key] for row in tables.get("taibleson", [])
               for key in ("modulus", "sup_l2_ratio_k0")]
    return bool(values) and all(math.isfinite(v) for v in values)


class VerifyWorkload:
    """One ``localfield verify`` call per unit, each writing a fresh directory."""

    ORACLE_SAMPLES = 8

    def __init__(self, seed: int, workdir: Path, mode: str, p: int, window: str,
                 count: int | None):
        self.workdir = workdir
        self.seed = seed
        self.argv = ["verify", "--mode", mode, "--p", str(p), f"--window={window}",
                     "--seed", str(seed)]
        config = None
        if count is not None:
            config = workdir / "config.json"
            config.write_text(json.dumps({"corpus": {"count": count}}))
            self.argv += ["--config", str(config)]
        a, l = (int(x) for x in window.split(":"))
        self.config = cli.parse_config(config, {"field.mode": mode, "field.p": p,
                                                "window": [a, l], "corpus.seed": seed})
        self.units = 0
        self.first_report = None
        self.report_bytes = 0

    def run_unit(self):
        out = self.workdir / f"run{self.units}"
        self.units += 1
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            status = cli.main(self.argv + ["--out", str(out)])
            elapsed = time.perf_counter() - t0
        report = (out / "report.json").read_bytes()
        self.report_bytes = len(report)
        ok = status == 0 and (out / "report.csv").is_file()
        if self.first_report is None:
            self.first_report = report
            ok = ok and _finite_ratios(json.loads(report))
        else:
            ok = ok and report == self.first_report
        return {"command_s": elapsed}, (1, 0 if ok else 1)

    def check_run(self) -> tuple:
        cfg = self.config
        corpus = generate_corpus(cfg.field, cfg.seed, cfg.count, cfg.window,
                                 cfg.kernel_resolutions)
        rng = np.random.default_rng([self.seed, 2])
        draws = [(corpus.functions[rng.integers(len(corpus.functions))],
                  corpus.kernels[rng.integers(len(corpus.kernels))],
                  cfg.k_list[rng.integers(len(cfg.k_list))])
                 for _ in range(self.ORACLE_SAMPLES)]
        return _oracle_samples(rng, draws)

    def layer_values(self) -> dict:
        return {"verify.report_bytes": self.report_bytes}


class LargeWindowsWorkload:
    """Library calls behind four subcommands on large windows, one pass per unit.

    Each CZ threshold lam is paired with an input uniform on [0, lam / 0.9),
    so every audit of one size selects about as many balls as the lam = 0.9
    audit of a uniform [0, 1) input (about 1,550 at 16,384 cells).  With one
    unscaled input the lam = 0.65 audit selects about 3,900 balls, and its
    pairwise disjointness check alone takes about 23 s, longer than a run.

    The values of each CZ input are one fixed draw that the seed only
    permutes.  The number of cells above a threshold, and with it the number
    of balls the audit compares pairwise, then hardly depends on the seed:
    over ten seeds the interquartile spread of the summed squared ball counts
    is 0.8% this way and 12% with an independent draw per seed.
    """

    SPECTRAL_WINDOW = (-7, 7)
    FUNCTIONS_PER_MODE = 8
    K_LIST = (-1, 0)
    R_LIST = (1.5, 2.0, 3.0)
    CZ_WINDOWS = ((-6, 6), (-7, 7))
    CZ_LAMBDAS = (0.65, 0.9)
    CZ_VALUES_SEED = 0
    ORACLE_SAMPLES_PER_MODE = 2

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        a, l = self.SPECTRAL_WINDOW
        self.spectral = []  # (fns, kernels) per field
        for mode in ("padic", "laurent"):
            field = FieldConfig(mode, 2)
            size = field.q ** (l - a)
            fns = [TestFunction(field, a, l, rng.random(size) + 1j * rng.random(size))
                         for _ in range(self.FUNCTIONS_PER_MODE)]
            corpus = generate_corpus(field, seed, 2, (-1, 1), KERNEL_RESOLUTIONS)
            # the random mean-zero kernels come after the two fixtures
            self.spectral.append((fns, corpus.kernels[-len(KERNEL_RESOLUTIONS):]))
        padic2 = FieldConfig("padic", 2)
        fixed = np.random.default_rng(self.CZ_VALUES_SEED)
        self.cz_inputs = []  # (f, lam)
        for a, l in self.CZ_WINDOWS:
            base = rng.permutation(fixed.random(padic2.q ** (l - a)))
            for lam in self.CZ_LAMBDAS:
                self.cz_inputs.append((TestFunction(padic2, a, l, base * (lam / 0.9)), lam))

    def run_unit(self):
        times = {}
        attempted = failed = 0
        for name, run, check in (("transform_s", self._transform, _check_transform),
                                 ("apply_tk_s", self._apply_tk, _check_apply_tk),
                                 ("norms_s", self._norms, _check_norms),
                                 ("cz_decompose_s", self._cz, _check_cz)):
            t0 = time.perf_counter()
            outputs = run()
            times[name] = time.perf_counter() - t0
            failed += sum(1 for out in outputs if not check(out))
            attempted += len(outputs)
        times["command_s"] = sum(times.values())
        return times, (attempted, failed)

    # -- timed parts: the calls each subcommand makes, without JSON I/O -------

    def _transform(self):
        out = []
        for fns, _ in self.spectral:
            for f in fns:
                F = fourier.forward(f)
                g = fourier.inverse(F)
                roundtrip = functions.max_difference(f, g)
                nf, nF = functions.lr_norm(f, 2.0), fourier.spectral_l2_norm(F)
                out.append((roundtrip, abs(nf - nF) / nf if nf > 0 else abs(nF)))
        return out

    def _apply_tk(self):
        return [(kernel.is_mean_zero,
                 operators.apply_truncated(f, kernel, operator_window(f, kernel.m, k)))
                for fns, kernels in self.spectral
                for f in fns for kernel in kernels for k in self.K_LIST]

    def _norms(self):
        out = []
        for fns, _ in self.spectral:
            for f in fns:
                bf = [(r, t, decomp.besov_norm(f, s, r, t).value,
                       decomp.triebel_lizorkin_norm(f, s, r, t).value)
                      for s, r, t in DEFAULT_SRT_LIST]
                out.append((bf, [decomp.lebesgue_norm_report(f, r).value
                                 for r in self.R_LIST]))
        return out

    def _cz(self):
        return [decomp.check_cz_clauses(f, decomp.cz_decompose(f, lam, f.a))[0]
                for f, lam in self.cz_inputs]

    def check_run(self) -> tuple:
        rng = np.random.default_rng([self.seed, 2])
        draws = [(fns[rng.integers(len(fns))],
                  kernels[rng.integers(len(kernels))],
                  self.K_LIST[rng.integers(len(self.K_LIST))])
                 for fns, kernels in self.spectral
                 for _ in range(self.ORACLE_SAMPLES_PER_MODE)]
        return _oracle_samples(rng, draws)

    def layer_values(self) -> dict:
        return {}


# -- per-operation output checks of large-windows, outside the timed parts ----


def _check_transform(out) -> bool:
    roundtrip, plancherel = out
    return roundtrip < ROUNDTRIP_TOL and plancherel < PLANCHEREL_TOL


def _check_apply_tk(out) -> bool:
    mean_zero, g = out
    return mean_zero and bool(np.all(np.isfinite(g.values)))


def _check_norms(out) -> bool:
    bf, lebesgue = out
    values = [b for *_, b, _ in bf] + [fl for *_, fl in bf] + lebesgue
    return (all(math.isfinite(v) and v > 0 for v in values)
            and all(abs(b - fl) <= BF_GAP_TOL for r, t, b, fl in bf if r == t))


def _check_cz(clauses) -> bool:
    return all(ok for name, ok in clauses.items() if name not in INFORMATIONAL_CZ_CLAUSES)


WORKLOADS = {
    "verify-padic2": lambda seed, workdir: VerifyWorkload(
        seed, workdir, "padic", 2, "-3:3", None),
    # corpus count 10 instead of the default 50: one call takes about 5.5 s
    # instead of 27 s, so several fit in a run; the work per function, and
    # so each layer's share of the run, is unchanged
    "verify-laurent3": lambda seed, workdir: VerifyWorkload(
        seed, workdir, "laurent", 3, "-2:2", 10),
    "large-windows": lambda seed, workdir: LargeWindowsWorkload(seed),
}
