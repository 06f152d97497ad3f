"""Acceptance gate: one visible PASS/FAIL line per stated criterion.

Each test computes its criterion at the stated tolerance, prints a line that
bypasses capture, then asserts.  Criteria 6 and 7 measure the k-stability of
fitted operator constants on the pinned corpus; the measured per-k constants
scale exactly like q^k, because the q^{-k} normalization is never saturated:
against a mean-zero kernel, shells finer than a function's resolution
annihilate exactly, so enlarging the shell range leaves the corpus sup
unchanged while q^{-k} keeps doubling.  The spread over four k values is
exactly q^3 = 8 and the factor-4 target fails.  Those two tests report the
honest measurement and fail; the fitted constants themselves stay bounded,
which is the substance of the underlying inequality.  See the README section
on known red acceptance checks.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from localfield.decomp import (
    besov_norm,
    check_cz_clauses,
    cz_decompose,
    littlewood_paley,
    triebel_lizorkin_norm,
)
from localfield.field import Ball, FieldConfig, FieldElement, Window, add, prime_shift
from localfield.fourier import forward, forward_naive, inverse, spectral_l2_norm
from localfield.functions import (
    TestFunction,
    from_indicator_combo,
    lr_norm,
    max_difference,
    refine,
)
from localfield.kernels import (
    atomic_decompose,
    evaluate_homogeneous,
    kernel_window_indices,
    make_kernel,
    mean_zero_project,
    sphere_cell_count,
    taibleson_modulus,
    validate_atom,
)
from localfield.operators import (
    TruncationSpec,
    apply_atom_operator,
    apply_truncated,
    tail_cutoff,
)
from localfield.verify import (
    Corpus,
    _first_atoms,
    check_l2_and_weak11,
    k_stability,
    run_verification,
)
from util import CONFIGS, kernel_resolution_spec, naive_sphere_sum, naive_truncated

Q2 = FieldConfig("padic", 2)
Q3 = FieldConfig("padic", 3)


def emit(capsys, ok: bool, label: str, detail: str):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label} [{detail}]")


def random_fn(rng, config, a, l, nonneg=False):
    n = config.p ** (l - a)
    if nonneg:
        return TestFunction(config, a, l, rng.uniform(0.2, 1.0, n))
    return TestFunction(config, a, l, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def random_kernel(rng, config, m):
    n = sphere_cell_count(config, m)
    v = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return mean_zero_project(make_kernel(config, v, m))


def unit_ball(config, a=-1, l=2):
    f = from_indicator_combo(config, [(1.0, Ball(FieldElement.zero(config), 0))])
    return refine(f, a, l)


@pytest.fixture(scope="module")
def default_run():
    t0 = time.perf_counter()
    report = run_verification()
    return report, time.perf_counter() - t0


def test_criterion_01_fourier_correctness(capsys):
    t0 = time.perf_counter()
    worst_rt, worst_naive, worst_pl = 0.0, 0.0, 0.0
    rng = np.random.default_rng(1001)
    for config in CONFIGS:
        dmax = 8 if config.p == 2 else 5
        for _ in range(100):
            a = int(rng.integers(-2, 1))
            l = a + int(rng.integers(1, dmax + 1))
            f = random_fn(rng, config, a, l)
            F = forward(f)
            worst_rt = max(worst_rt, max_difference(f, inverse(F)))
            diff = np.max(np.abs(F.values - forward_naive(f).values))
            worst_naive = max(worst_naive, float(diff))
            nf = lr_norm(f, 2)
            worst_pl = max(worst_pl, abs(nf - spectral_l2_norm(F)) / nf)
    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-12 and worst_naive < 1e-10 and worst_pl < 1e-10 and elapsed < 30
    emit(capsys, ok, "criterion 1 fourier correctness",
         f"roundtrip={worst_rt:.2e} naive={worst_naive:.2e} "
         f"plancherel={worst_pl:.2e} elapsed={elapsed:.1f}s")
    assert worst_rt < 1e-12
    assert worst_naive < 1e-10
    assert worst_pl < 1e-10
    assert elapsed < 30


def test_criterion_02_discretization_identity(capsys):
    rng = np.random.default_rng(1002)
    worst = 0.0
    count = 0
    while count < 50:
        config = CONFIGS[count % len(CONFIGS)]
        a = int(rng.integers(-1, 1))
        l = a + 2
        f = random_fn(rng, config, a, l)
        m = int(rng.integers(1, 3)) if config.p == 3 else 2
        kern = random_kernel(rng, config, m)
        k = int(rng.integers(-2, 2))
        spec = kernel_resolution_spec(f, kern.m, k)
        got = apply_truncated(f, kern, spec)
        want = naive_truncated(f, kern, spec)
        worst = max(worst, max_difference(got, want))
        count += 1
    ok = worst < 1e-12
    emit(capsys, ok, "criterion 2 discretization identity",
         f"max dev vs naive double sum={worst:.2e} on 50 triples")
    assert worst < 1e-12


def test_criterion_03_atomic_machinery(capsys):
    rng = np.random.default_rng(1003)
    all_valid = True
    worst_recon, worst_split = 0.0, 0.0
    for i in range(20):
        config = CONFIGS[i % len(CONFIGS)]
        m = 2 if config.p == 2 else int(rng.integers(1, 3))
        kern = random_kernel(rng, config, m)
        for strategy in ("scaled", "haar"):
            dec = atomic_decompose(kern, strategy)
            all_valid = all_valid and all(validate_atom(atom).valid for _, atom in dec.terms)
            recon = dec.reconstruction(config, m)
            worst_recon = max(worst_recon, float(np.max(np.abs(recon - kern.values))))
        f = random_fn(rng, config, -1, 2)
        spec = kernel_resolution_spec(f, kern.m, 0)
        whole = apply_truncated(f, kern, spec)
        parts = np.zeros(whole.values.shape, dtype=complex)
        for lam, atom in atomic_decompose(kern, "haar").terms:
            parts = parts + lam * apply_atom_operator(f, atom, spec).values
        worst_split = max(worst_split, float(np.max(np.abs(whole.values - parts))))
    ok = all_valid and worst_recon < 1e-12 and worst_split < 1e-10
    emit(capsys, ok, "criterion 3 atomic machinery",
         f"atoms_valid={all_valid} reconstruction={worst_recon:.2e} "
         f"splitting={worst_split:.2e} on 20 kernels")
    assert all_valid
    assert worst_recon < 1e-12
    assert worst_split < 1e-10


def test_criterion_04_cz_decomposition(capsys):
    rng = np.random.default_rng(1004)
    factors = (1.02, 1.3, 3.0)
    failures = []
    per_config = 50  # 100 pairs per field mode
    for config in CONFIGS:
        for i in range(per_config):
            a = int(rng.integers(-1, 1))
            l = a + 2 + int(config.p == 2)
            # uniform [0.2, 1) values keep every remark reading satisfiable
            f = random_fn(rng, config, a, l, nonneg=True)
            mean = sum(Fraction(v) for v in f.values.real) / f.values.size
            lam = float(mean) * factors[i % len(factors)]
            dec = cz_decompose(f, lam, f.a)
            clauses, _ = check_cz_clauses(f, dec)
            for name, holds in clauses.items():
                if not holds:
                    failures.append((config.mode, config.p, name))
    ok = not failures
    emit(capsys, ok, "criterion 4 calderon-zygmund clauses",
         f"{4 * per_config} decompositions, clause failures={failures[:3]}")
    assert not failures


def test_criterion_05_littlewood_paley_norms(capsys):
    rng = np.random.default_rng(1005)
    worst_recon = 0.0
    for config in CONFIGS:
        for a, l in ((-2, 3) if config.p == 2 else (-1, 2), (0, 2)):
            f = random_fn(rng, config, a, l)
            blocks = [littlewood_paley(f, j) for j in range(0, max(l, 0) + 1)]
            total = blocks[0].values.copy()
            for b in blocks[1:]:
                total = total + b.values
            g = TestFunction(config, blocks[0].a, blocks[0].l, total)
            worst_recon = max(worst_recon, max_difference(g, refine(f, g.a, g.l)))
    worst_unit = 0.0
    ball = unit_ball(Q2)
    for s in (0.5, 1.0):
        for r in (1.5, 2.0, 3.0):
            for t in (1.5, 2.0, 3.0):
                for rep in (besov_norm(ball, s, r, t), triebel_lizorkin_norm(ball, s, r, t)):
                    worst_unit = max(worst_unit, abs(rep.value - 1.0))
    worst_bf = 0.0
    for config in CONFIGS[:2]:
        for _ in range(10):
            f = random_fn(rng, config, -1, 2)
            for s, r in ((0.5, 1.5), (1.0, 2.0), (0.5, 3.0)):
                b = besov_norm(f, s, r, r).value
                fl = triebel_lizorkin_norm(f, s, r, r).value
                worst_bf = max(worst_bf, abs(b - fl))
    ok = worst_recon < 1e-11 and worst_unit < 1e-11 and worst_bf < 1e-11
    emit(capsys, ok, "criterion 5 littlewood-paley and norms",
         f"reconstruction={worst_recon:.2e} unit_ball_norms={worst_unit:.2e} "
         f"b_equals_f={worst_bf:.2e}")
    assert worst_recon < 1e-11
    assert worst_unit < 1e-11
    assert worst_bf < 1e-11


def test_criterion_06_lebesgue_k_stability(default_run, capsys):
    report, _ = default_run
    by_name = {c["name"]: c for c in report.checks}
    check = by_name["lebesgue_k_stability"]
    per_k = report.tables["lebesgue_per_k"]
    rows = len(report.tables["lebesgue"])
    ok = bool(check["pass"])
    emit(capsys, ok, "criterion 6 lebesgue k-stability",
         f"spread={check['measured']} target<{check['claimed']} per_k={per_k} "
         f"table_rows={rows}")
    assert rows == 50 * 5 * 4 * 3  # full table emitted: functions x kernels x k x r
    assert ok, f"per-k fitted constants {per_k} spread {check['measured']} exceeds 4"


def test_criterion_07_besov_tl_k_stability(default_run, capsys):
    report, _ = default_run
    by_name = {c["name"]: c for c in report.checks}
    bes, tri = by_name["besov_k_stability"], by_name["triebel_k_stability"]
    ok = bool(bes["pass"]) and bool(tri["pass"])
    emit(capsys, ok, "criterion 7 besov/triebel k-stability",
         f"besov_spread={bes['measured']} triebel_spread={tri['measured']} "
         f"target<{bes['claimed']}")
    assert len(report.tables["besov_tl"]) == 50 * 5 * 4 * 12  # both spaces, 6 srt each
    assert bool(bes["pass"]), f"besov spread {bes['measured']} exceeds 4"
    assert bool(tri["pass"]), f"triebel spread {tri['measured']} exceeds 4"


def _reading_b_oracle(f, atom, spec):
    # literal unit-sphere pieces: every shell contributes the same convolution
    config = f.config
    w = Window(config, spec.out_a, spec.out_l)
    jmax = tail_cutoff(spec.out_a, f.a)
    weight = sum(float(Fraction(config.q) ** (-(j + 1))) for j in range(spec.k, jmax + 1))
    out = np.array([naive_sphere_sum(f, atom, -1, w.element(i)) for i in range(w.size)])
    return TestFunction(config, spec.out_a, spec.out_l, weight * out)


def _superlevel_measure(g, lam):
    count = sum(1 for v in g.values if math.hypot(v.real, v.imag) > lam)
    return Fraction(count) * Fraction(g.config.q) ** (-g.l)


def test_criterion_08_proof_constant_instrumentation(capsys):
    rng = np.random.default_rng(1008)
    fixtures = [
        (unit_ball(Q2), make_kernel(Q2, [1.0, -1.0], 2), 0),
        (refine(from_indicator_combo(
            Q2, [(1.0, Ball(FieldElement.zero(Q2), 1))]), -1, 2),
         make_kernel(Q2, [2.0, -2.0], 2), -1),
        (random_fn(rng, Q3, -1, 1), make_kernel(Q3, [1.5, -1.5], 1), -2),
    ]
    worst = 0.0
    for fi, (f, kern, k) in enumerate(fixtures):
        corpus = Corpus(f.config, (f.a, f.l), (f,), (kern,))
        atom = _first_atoms(corpus)[0][1]
        spec = kernel_resolution_spec(f, atom.m, k)
        oracles = {"A": naive_truncated(f, atom, spec),
                   "B": _reading_b_oracle(f, atom, spec)}
        sup_out = max(float(np.max(np.abs(g.values))) for g in oracles.values())
        lams = [0.37 * sup_out, 3.0 * sup_out]
        report = check_l2_and_weak11(corpus, [k], lams)
        q = f.config.q
        claimed_l2 = float(Fraction(q) ** (-k)) / (q - 1)
        for row in report["rows"]:
            g = oracles[row["reading"]]
            if row["check"] == "l2":
                want = lr_norm(g, 2) / (claimed_l2 * lr_norm(f, 2))
            else:
                lam = row["param"]
                # verify both routes classify every cell identically
                assert all(abs(math.hypot(v.real, v.imag) - lam) > 1e-8 for v in g.values)
                want = float(_superlevel_measure(g, lam) * Fraction(lam)) / (
                    lr_norm(f, 1) * (1 + 4 * q))
            dev = abs(row["ratio"] - want) / max(want, 1.0)
            worst = max(worst, dev)
    ok = worst < 1e-10
    emit(capsys, ok, "criterion 8 proof-constant instrumentation",
         f"max dev vs brute force={worst:.2e} over both readings, 3 fixtures")
    assert worst < 1e-10


def taibleson_oracle(k, J):
    # naive double loop straight from the definition, field arithmetic only
    w = Window(k.config, 0, k.m)
    kw = kernel_window_indices(k.config, k.m)
    meas = k.config.q ** (-k.m)
    best = 0.0
    for yi in kw:
        y = w.element(int(yi))
        total = 0.0
        for j in range(1, J + 1):
            shift = prime_shift(y, j)
            s = 0.0
            for xi in kw:
                x = w.element(int(xi))
                s += abs(evaluate_homogeneous(k, add(x, shift)) - evaluate_homogeneous(k, x))
            total += s * meas
        best = max(best, total)
    return best


def test_criterion_09_taibleson_stabilization(capsys):
    rng = np.random.default_rng(1009)
    stable = True
    worst = 0.0
    for config in CONFIGS:
        for m in (1, 2, 3):
            kern = random_kernel(rng, config, m)
            j_stab = max(m - 1, 1)
            at_stab = taibleson_modulus(kern, j_stab)
            stable = stable and at_stab == taibleson_modulus(kern, m) \
                and at_stab == taibleson_modulus(kern, m + 2)
            for J in (1, j_stab, m + 1):
                got, want = taibleson_modulus(kern, J), taibleson_oracle(kern, J)
                worst = max(worst, abs(got - want) / max(want, 1.0))
    ok = stable and worst < 1e-12
    emit(capsys, ok, "criterion 9 taibleson stabilization",
         f"exact_at_m_minus_1={stable} max dev vs oracle={worst:.2e}")
    assert stable
    assert worst < 1e-12


def test_criterion_10_end_to_end_reproducibility(default_run, capsys):
    report, elapsed = default_run
    rerun = run_verification()
    identical = report.canonical_json() == rerun.canonical_json()
    csv_same = report.to_csv() == rerun.to_csv()
    ok = identical and csv_same and elapsed < 300
    emit(capsys, ok, "criterion 10 end-to-end verify",
         f"elapsed={elapsed:.1f}s byte_identical={identical and csv_same}")
    assert elapsed < 300
    assert identical
    assert csv_same
