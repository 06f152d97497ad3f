"""Decomposition layer: CZ stopping time, LP blocks, B/F norms."""

import collections
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from localfield import decomp, functions
from localfield.decomp import (
    CZDecomposition,
    NormReport,
    _all_blocks,
    besov_norm,
    check_cz_clauses,
    cz_decompose,
    lebesgue_norm_report,
    littlewood_paley,
    norm_columns,
    triebel_lizorkin_norm,
)
from localfield.field import Ball, FieldConfig, FieldElement, Window
from localfield.fourier import forward, forward_naive
from localfield.functions import (
    TestFunction,
    coset_tree,
    dyadic_ints,
    from_indicator_combo,
    lr_norm,
    lr_norms_each,
    max_difference,
    refine,
    weak_level_measures,
)
from localfield.verify import DEFAULT_SRT_LIST

import cz_oracle
from cz_oracle import node_ball
from util import (CONFIGS, P5_CONFIGS, add_functions, fsum_lr_norms, integral, linf_norm,
                  per_row_norm_columns, scalar_multiple, seed42_corpus, spectral_valuation_levels)


def unit_ball(config: FieldConfig) -> TestFunction:
    return from_indicator_combo(config, [(1.0, Ball(FieldElement.zero(config), 0))])


def random_fn(rng: np.random.Generator, config: FieldConfig, a: int, l: int) -> TestFunction:
    n = config.q ** (l - a)
    vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    return TestFunction(config, a, l, vals)


def random_nonneg(rng: np.random.Generator, config: FieldConfig, a: int, l: int,
                  low: float = 0.2) -> TestFunction:
    n = config.q ** (l - a)
    return TestFunction(config, a, l, rng.uniform(low, 1.0, n).astype(np.complex128))


def exact_ball_average(f: TestFunction, ball: Ball) -> Fraction:
    w = Window(f.config, f.a, f.l)
    total = Fraction(0)
    count = 0
    for n in range(f.values.size):
        if ball.contains(w.element(n)):
            total += Fraction(f.values[n].real)
            count += 1
    return total / count


# ---------------------------------------------------------------------------
# CZ decomposition


def test_cz_no_selection_below_threshold():
    for config in CONFIGS[:2]:
        f = refine(unit_ball(config), 0, 2)
        dec = cz_decompose(f, 2.0, 0)
        assert dec.balls == ()
        assert dec.exceptional_measure == 0
        assert np.all(dec.bad_part.values == 0)
        assert np.all(dec.good_part.values == f.values)


def test_cz_concentrated_mass_hand_walk():
    # mass q on the maximal ideal: the two-level walk keeps the root and
    # selects exactly the depth-one coset through zero
    for config in CONFIGS:
        q = config.q
        f = from_indicator_combo(config, [(float(q), Ball(FieldElement.zero(config), 1))])
        dec = cz_decompose(f, 1.0, 0)
        assert dec.balls == ((0, 1),)
        assert node_ball(dec.bad_part.window, dec.balls[0]) == Ball(FieldElement.zero(config), 1)
        assert dec.ball_averages == (Fraction(q),)
        assert dec.exceptional_measure == Fraction(1, q)
        g = refine(f, 0, dec.good_part.l)
        assert np.all(dec.good_part.values == g.values)
        assert np.all(dec.bad_part.values == 0)


def test_cz_rejections():
    config = CONFIGS[0]
    f = refine(unit_ball(config), 0, 2)
    with pytest.raises(ValueError):
        cz_decompose(f, 0.0, 0)
    with pytest.raises(ValueError):
        cz_decompose(f, -1.0, 0)
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            cz_decompose(f, lam, 0)
    neg = TestFunction(config, 0, 1, [-1.0, 0.5])
    with pytest.raises(ValueError):
        cz_decompose(neg, 1.0, 0)
    cmplx = TestFunction(config, 0, 1, [1.0 + 1j, 0.5])
    with pytest.raises(ValueError):
        cz_decompose(cmplx, 1.0, 0)
    with pytest.raises(ValueError, match="enlarge"):
        cz_decompose(f, 1.0, 1)  # starting ball misses part of the support
    spike = TestFunction(config, 0, 1, [4.0, 4.0])
    with pytest.raises(ValueError, match="enlarge"):
        cz_decompose(spike, 1.0, 0)  # root average 4 > 1


def test_cz_random_clause_sweep():
    rng = np.random.default_rng(20240211)
    windows = {CONFIGS[0]: (-1, 4), CONFIGS[1]: (0, 3), CONFIGS[2]: (-2, 3), CONFIGS[3]: (0, 3)}
    checked = 0
    selections = 0
    for config in CONFIGS:
        a, l = windows[config]
        for _ in range(25):
            f = random_nonneg(rng, config, a, l)
            mean = sum((Fraction(x) for x in f.values.real), Fraction(0)) / f.values.size
            for factor in (1.02, 1.2, 3.0):
                lam = float(mean) * factor
                dec = cz_decompose(f, lam, a)
                clauses, metrics = check_cz_clauses(f, dec)
                assert all(clauses.values()), {k: v for k, v in clauses.items() if not v}
                assert metrics["float_view_max_dev"] <= 1e-14
                assert dec.exceptional_measure == sum(
                    (Fraction(config.q) ** -(a + d) for _, d in dec.balls), Fraction(0)
                )
                checked += 1
                selections += len(dec.balls)
    assert checked == 300
    assert selections > 100  # the sweep actually exercises selected balls


def test_cz_selected_balls_are_maximal():
    # stopping-time oracle straight from the definition: each selected ball
    # has average > lambda while its parent coset does not
    rng = np.random.default_rng(7)
    for config in CONFIGS[:2]:
        f = random_nonneg(rng, config, 0, 3)
        mean = float(integral(f).real)
        lam = mean * 1.15
        dec = cz_decompose(f, lam, 0)
        assert dec.balls, "sweep needs at least one selection to be meaningful"
        g = refine(f, 0, f.l)
        for node in dec.balls:
            ball = node_ball(g.window, node)
            assert exact_ball_average(g, ball) > Fraction(lam)
            parent = Ball(ball.center, ball.scale - 1)
            assert exact_ball_average(g, parent) <= Fraction(lam)


def test_cz_exceptional_measure_monotone_in_threshold():
    rng = np.random.default_rng(99)
    config = CONFIGS[2]
    f = random_nonneg(rng, config, 0, 4)
    mean = float(integral(f).real)
    lams = [mean * c for c in (1.01, 1.1, 1.4, 2.0, 6.0)]
    measures = [cz_decompose(f, lam, 0).exceptional_measure for lam in lams]
    assert all(m1 >= m2 for m1, m2 in zip(measures, measures[1:]))
    assert measures[-1] == 0  # threshold above the sup selects nothing


def test_cz_spike_breaks_strong_l1_remark_only():
    # one unit spike among zeros: the selected 4-cell ball gives
    # ||bad||_1 = 1.5 ||f||_1, outside the strong remark but inside 2||f||_1
    config = FieldConfig("padic", 2)
    vals = np.zeros(8)
    vals[0] = 1.0
    f = TestFunction(config, 0, 3, vals.astype(np.complex128))
    dec = cz_decompose(f, 0.2, 0)
    assert len(dec.balls) == 1 and dec.balls[0][1] == 1  # depth 1 below P^0: scale 1
    clauses, metrics = check_cz_clauses(f, dec)
    assert clauses["remark_bad_l1_within_f_l1"] is False
    assert clauses["remark_bad_l1_at_most_double"]
    for name, ok in clauses.items():
        if name != "remark_bad_l1_within_f_l1":
            assert ok, name
    assert metrics["bad_l1"] == pytest.approx(1.5 * metrics["f_l1"], rel=1e-12)
    assert metrics["float_view_max_dev"] == 0.0  # dyadic averages render exactly


def test_cz_good_l1_reported_for_both_remark_readings():
    rng = np.random.default_rng(3)
    config = CONFIGS[1]
    f = random_nonneg(rng, config, 0, 3)
    lam = float(integral(f).real) * 1.1
    dec = cz_decompose(f, lam, 0)
    _, metrics = check_cz_clauses(f, dec)
    # nonnegative f: averaging preserves total mass, so the good part's
    # L1 matches f's; the bad part's generally does not
    assert metrics["good_l1"] == pytest.approx(metrics["f_l1"], rel=1e-12)


def test_cz_serialization_is_json_ready():
    config = CONFIGS[0]
    q = config.q
    f = from_indicator_combo(config, [(float(q), Ball(FieldElement.zero(config), 1))])
    dec = cz_decompose(f, 1.0, 0)
    blob = json.dumps(dec.to_dict())
    parsed = json.loads(blob)
    assert parsed["lambda"] == 1.0
    assert parsed["ball_averages"] == [[q, 1]]
    assert parsed["exceptional_measure"] == [1, q]


# -- the integer core against the Fraction oracle and adversarial inputs


def assert_same_split(new: CZDecomposition, old: CZDecomposition):
    assert new.lam == old.lam
    assert new.balls == old.balls
    assert all(type(t) is int and type(d) is int for t, d in new.balls)
    assert new.ball_averages == old.ball_averages
    assert all(type(avg) is Fraction for avg in new.ball_averages)
    assert new.exceptional_measure == old.exceptional_measure
    for new_part, old_part in ((new.bad_part, old.bad_part), (new.good_part, old.good_part)):
        assert (new_part.a, new_part.l) == (old_part.a, old_part.l)
        assert new_part.values.tobytes() == old_part.values.tobytes()


def assert_matches_oracle(f: TestFunction, lam: float, start_scale: int) -> CZDecomposition:
    dec = cz_decompose(f, lam, start_scale)
    assert_same_split(dec, cz_oracle.cz_decompose(f, lam, start_scale))
    clauses, metrics = check_cz_clauses(f, dec)
    assert all(type(v) is bool for v in clauses.values())
    assert (clauses, metrics) == cz_oracle.check_cz_clauses(f, dec)
    return dec


def test_cz_matches_fraction_oracle_on_criterion_4_inputs():
    # the generator of acceptance criterion 4, draw for draw
    rng = np.random.default_rng(1004)
    factors = (1.02, 1.3, 3.0)
    selections = 0
    for config in CONFIGS:
        for i in range(50):
            a = int(rng.integers(-1, 1))
            l = a + 2 + int(config.p == 2)
            f = TestFunction(config, a, l, rng.uniform(0.2, 1.0, config.p ** (l - a)))
            mean = sum(Fraction(v) for v in f.values.real) / f.values.size
            selections += len(assert_matches_oracle(f, float(mean) * factors[i % 3], a).balls)
    assert selections > 50


def sweep_values(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return rng.random(n)
    if kind == "sparse":  # mostly zeros: spikes select small balls next to empty ones
        return rng.random(n) * (rng.random(n) < 0.2)
    if kind == "dyadic":  # small integers: ball averages hit lambda exactly
        return rng.integers(0, 4, n).astype(np.float64)
    if kind == "heavy":
        return rng.pareto(1.5, n)
    if kind == "powers":  # sparse powers of two: lambda one ulp below 1/8 is finer than the cells
        return 2.0 ** -rng.integers(1, 4, n) * (rng.random(n) < 0.15)
    # tiny next to large: the common denominator spans the whole double range
    vals = rng.random(n)
    vals[rng.integers(n, size=3)] = 5e-324
    vals[rng.integers(n, size=3)] = 1e-300
    vals[rng.integers(n)] = 1.0
    vals[rng.integers(n)] = 0.0
    return vals


def hits_threshold(f: TestFunction, lam: float) -> bool:
    # some coset below the root averages exactly lam: the strict comparison decides
    vals, q = f.values.real, f.config.q
    return any(np.any(vals.reshape(-1, q**d).mean(axis=0) == lam) for d in range(1, f.l - f.a + 1))


def test_cz_matches_fraction_oracle_on_seeded_sweep():
    rng = np.random.default_rng(20260611)
    windows = {CONFIGS[0]: (-3, 4), CONFIGS[1]: (-2, 3), CONFIGS[2]: (0, 6), CONFIGS[3]: (-1, 3)}
    kinds = ("uniform", "sparse", "dyadic", "heavy", "powers", "tiny")
    selections = ties = 0
    for config in CONFIGS:
        a, l = windows[config]
        for kind in kinds:
            for _ in range(4):
                f = TestFunction(config, a, l, sweep_values(rng, config.q ** (l - a), kind))
                mean = float(integral(f).real) * config.q**a  # average over P^a
                for lam in (mean * 1.05, mean * 2.5, 1.5, 2.0, np.nextafter(0.125, 0)):
                    if lam <= 0 or lam < mean:
                        continue
                    dec = assert_matches_oracle(f, lam, a)
                    selections += len(dec.balls)
                    ties += hits_threshold(f, lam)
    assert selections > 500 and ties > 10


def test_cz_matches_fraction_oracle_with_larger_starting_ball():
    rng = np.random.default_rng(5)
    for config in CONFIGS:
        f = TestFunction(config, 0, 3, sweep_values(rng, config.q**3, "tiny"))
        assert_matches_oracle(f, 0.3, -2)


def audited_split():
    f = TestFunction(CONFIGS[0], -2, 4, np.random.default_rng(17).random(64))
    dec = cz_decompose(f, 0.9, -2)
    clauses, _ = check_cz_clauses(f, dec)
    assert len(dec.balls) >= 2 and all(clauses.values())
    return f, dec, clauses


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_cz_balls_are_the_level_set_of_the_maximal_function(config):
    """{M f > lam}, M f(x) the largest average of f over a coset c + P^j below the
    starting ball that holds x, equals the union of the CZ balls cell for cell.

    M f comes from the exact tree: a coset e levels above the cells has an
    integer sum over den q^e, so its average exceeds lam iff that sum exceeds
    floor(lam den q^e).  On the seed-42 corpus, f = |corpus function|."""
    q = config.q
    cases = 0
    for h in seed42_corpus(config).functions:
        f = TestFunction(config, h.a, h.l, np.abs(h.values))
        depth = f.l - f.a
        ints, den = dyadic_ints(f.values.real)
        tree = coset_tree(ints, q, depth, np.sum)
        cells = np.arange(f.values.size)
        for factor in (0.5, 1, 1.5, 3):
            lam = factor * float(np.mean(f.values.real))
            try:
                dec = cz_decompose(f, lam, f.a)
            except ValueError:  # the starting ball's average exceeds lam
                continue
            level_set = np.zeros(cells.size, dtype=bool)
            for e, sums in enumerate(tree[:-1]):
                bound = math.floor(Fraction(lam) * den * q**e)
                level_set |= sums[cells % q ** (depth - e)] > bound
            union = np.zeros(cells.size, dtype=bool)
            for node in dec.balls:
                ball = node_ball(f.window, node)
                d = ball.scale - f.a
                union |= cells % q**d == f.window.index_of(ball.center) % q**d
            assert np.array_equal(level_set, union)
            assert dec.exceptional_measure == int(level_set.sum()) * f.cell_measure
            cases += 1
    assert cases == {2: 27, 3: 25}[q]  # of 40; 104 of 160 over the four CONFIGS


def test_cz_audit_flags_duplicated_and_nested_balls():
    f, dec, _ = audited_split()
    first, avg = dec.balls[0], dec.ball_averages[0]
    t, d = first
    assert d > 1
    parent = (t % f.config.q ** (d - 1), d - 1)
    for extra in (first, parent):
        bad = replace(dec, balls=dec.balls + (extra,), ball_averages=dec.ball_averages + (avg,))
        got, _ = check_cz_clauses(f, bad)
        assert got["balls_disjoint"] is False
        assert got == cz_oracle.check_cz_clauses(f, bad)[0]


def test_cz_audit_flags_tampered_ball_average():
    f, dec, _ = audited_split()
    avgs = (dec.ball_averages[0] + Fraction(1, 10**30),) + dec.ball_averages[1:]
    tampered = replace(dec, ball_averages=avgs)
    got, _ = check_cz_clauses(f, tampered)
    assert got["bad_mean_zero_per_ball"] is False
    assert got == cz_oracle.check_cz_clauses(f, tampered)[0]


def test_cz_audit_flags_good_view_one_ulp_off():
    f, dec, clauses = audited_split()
    w = Window(f.config, dec.good_part.a, dec.good_part.l)
    cell, _ = dec.balls[0]  # the residue is a cell of its ball
    good = np.array(dec.good_part.values)
    good[cell] = np.nextafter(good[cell].real, np.inf)
    tampered = replace(dec, good_part=TestFunction(f.config, w.a, w.l, good))
    got, metrics = check_cz_clauses(f, tampered)
    assert (got, metrics) == cz_oracle.check_cz_clauses(f, tampered)
    assert got == {**clauses, "sum_identity": False}


def random_nodes(rng: np.random.Generator, w: Window, count: int) -> tuple:
    # a random cell and scale a < s <= l name the node of the coset of P^s through that cell
    nodes = []
    for _ in range(count):
        cell, depth = int(rng.integers(w.size)), int(rng.integers(w.a + 1, w.l + 1)) - w.a
        nodes.append((cell % w.config.q**depth, depth))
    return tuple(nodes)


def test_cz_coverage_count_matches_pairwise_intersects():
    rng = np.random.default_rng(404)
    outcomes = set()
    for config in CONFIGS:
        a, l = -1, 3
        w = Window(config, a, l)
        f = TestFunction(config, a, l, rng.random(w.size))
        dec = cz_decompose(f, 1.0, a)  # selects nothing; the balls come from the sweep
        for _ in range(60):
            nodes = random_nodes(rng, w, int(rng.integers(1, 6)))
            balls = [node_ball(w, node) for node in nodes]
            pairwise = all(
                not b1.intersects(b2) for i, b1 in enumerate(balls) for b2 in balls[i + 1:]
            )
            fake = replace(dec, balls=nodes, ball_averages=(Fraction(1, 2),) * len(nodes))
            got, _ = check_cz_clauses(f, fake)
            assert got["balls_disjoint"] is pairwise
            outcomes.add(pairwise)
    assert outcomes == {True, False}


def test_cz_audit_never_compares_ball_pairs(monkeypatch):
    # nor builds a field element: the split and the audit stay on tree nodes
    def refuse(*args):
        raise AssertionError("the CZ split or audit left the coset tree")

    monkeypatch.setattr(Ball, "intersects", refuse)
    monkeypatch.setattr(Window, "element", refuse)
    monkeypatch.setattr(Window, "index_of", refuse)
    monkeypatch.setattr(FieldElement, "__post_init__", refuse)
    config = CONFIGS[0]
    f = TestFunction(config, -7, 7, np.random.default_rng(0).random(16384))
    dec = cz_decompose(f, 0.9, -7)
    clauses, metrics = check_cz_clauses(f, dec)
    assert all(clauses.values()) and metrics["ball_count"] > 1000


def test_cz_audit_rejects_balls_the_window_cannot_represent():
    f, dec, _ = audited_split()  # window (-2, 4): depths 1..6
    # the whole window, a depth past l, a residue past q^depth, a negative residue
    for node in ((0, 0), (0, 7), (2**3, 3), (-1, 1)):
        with pytest.raises(ValueError, match="proper coset"):
            check_cz_clauses(f, replace(dec, balls=(node,), ball_averages=(Fraction(1),)))


# ---------------------------------------------------------------------------
# Littlewood-Paley blocks


def test_lp_unit_ball_spectrum_and_blocks():
    for config in CONFIGS[:2]:
        f = refine(unit_ball(config), 0, 2)
        F = forward_naive(f)
        levels = spectral_valuation_levels(F)
        mags = np.hypot(F.values.real, F.values.imag)
        assert np.all(mags[levels < 0] <= 1e-12)
        assert np.all(mags[levels >= 0] >= 1 - 1e-12)
        assert max_difference(littlewood_paley(f, 0), f) <= 1e-12
        for j in (1, 2):
            assert linf_norm(littlewood_paley(f, j)) <= 1e-12


def test_lp_blocks_beyond_window_are_exactly_zero():
    config = CONFIGS[3]
    rng = np.random.default_rng(5)
    f = random_fn(rng, config, -1, 2)
    blk = littlewood_paley(f, 5)
    assert np.all(blk.values == 0)
    assert blk.a == -1 and blk.l == 2


def test_lp_negative_index_rejected():
    f = unit_ball(CONFIGS[0])
    with pytest.raises(ValueError):
        littlewood_paley(f, -1)


def test_lp_reconstruction_random():
    rng = np.random.default_rng(11)
    for config in CONFIGS:
        for a, l in [(-2, 3), (0, 2), (1, 3), (-3, 0)]:
            f = random_fn(rng, config, a, l)
            blocks = [littlewood_paley(f, j) for j in range(max(l, 0) + 1)]
            total = blocks[0]
            for b in blocks[1:]:
                total = add_functions(total, b)
            assert max_difference(total, f) <= 1e-11


def test_lp_orthogonality_and_idempotence():
    rng = np.random.default_rng(13)
    config = CONFIGS[0]
    f = random_fn(rng, config, -1, 3)
    b2 = littlewood_paley(f, 2)
    assert linf_norm(littlewood_paley(b2, 1)) <= 1e-12
    assert max_difference(littlewood_paley(b2, 2), b2) <= 1e-11


def test_lp_spectrum_containment():
    rng = np.random.default_rng(17)
    for config in CONFIGS[:2]:
        f = random_fn(rng, config, -1, 3)
        for j in range(4):
            blk = littlewood_paley(f, j)
            F = forward_naive(blk)
            levels = spectral_valuation_levels(F)
            off = (levels < 0) if j == 0 else (levels != -j)
            assert np.all(np.hypot(F.values.real, F.values.imag)[off] <= 1e-12)


def test_lp_blocks_of_approximate_identity_are_ball_differences():
    # delta = q^l 1_(P^l): block 0 is 1_(P^0) and block j >= 1 is
    # q^j 1_(P^j) - q^(j-1) 1_(P^(j-1)), whose sup is q^(j-1) (q - 1)
    l = 4
    for config in (FieldConfig("padic", 2), FieldConfig("laurent", 3)):
        q = config.q
        zero = FieldElement.zero(config)
        delta = refine(from_indicator_combo(config, [(float(q**l), Ball(zero, l))]), 0, l)
        coset_blocks = _all_blocks(delta)
        for j in range(l + 1):
            terms = [(1.0, Ball(zero, 0))] if j == 0 else [
                (float(q**j), Ball(zero, j)), (-float(q ** (j - 1)), Ball(zero, j - 1))]
            want = from_indicator_combo(config, terms)
            assert max_difference(coset_blocks[j], want) == 0
            assert max_difference(littlewood_paley(delta, j), want) <= 1e-12 * q**l
            if j >= 1:
                assert linf_norm(want) == q ** (j - 1) * (q - 1)


def test_lp_padding_for_positive_scale_window():
    config = CONFIGS[1]
    rng = np.random.default_rng(19)
    f = random_fn(rng, config, 1, 3)  # window strictly inside the maximal ideal
    blk = littlewood_paley(f, 0)
    assert blk.a == 0  # padded so the deep spectrum sits in block zero
    blocks = [littlewood_paley(f, j) for j in range(4)]
    total = blocks[0]
    for b in blocks[1:]:
        total = add_functions(total, b)
    assert max_difference(total, f) <= 1e-11


def assert_blocks_match_fft_oracle(f: TestFunction):
    """_all_blocks against littlewood_paley, block by block, at 1e-12 x max |f|."""
    tol = 1e-12 * linf_norm(f)
    a, l = min(f.a, 0), f.l
    blocks = _all_blocks(f)
    assert len(blocks) == max(l, 0) + 1
    total = TestFunction.zero(f.config, a, l)
    for j, b in enumerate(blocks):
        assert (b.a, b.l) == (a, min(j, l))
        lifted = refine(b, a, l)
        assert max_difference(lifted, littlewood_paley(f, j)) <= tol
        # the block's spectrum lies on the shell |xi| = q^j (|xi| <= 1 for j = 0)
        F = forward(lifted)
        levels = spectral_valuation_levels(F)
        off = (levels < 0) if j == 0 else (levels != -j)
        assert np.all(np.hypot(F.values.real, F.values.imag)[off] <= tol)
        total = add_functions(total, lifted)
    assert max_difference(total, f) <= tol


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_lp_coset_blocks_match_fft_oracle(config):
    rng = np.random.default_rng(47)
    # (1, 3) is padded to a = 0; (-2, 0) and (-2, -1) have the one block 0
    for a, l in [(-1, 2), (1, 3), (-2, 0), (-2, -1)]:
        assert_blocks_match_fft_oracle(random_fn(rng, config, a, l))
    # max |f| = 0 makes every bound exact
    assert_blocks_match_fft_oracle(TestFunction.zero(config, -1, 2))


@pytest.mark.parametrize("mode", ["padic", "laurent"])
def test_lp_coset_blocks_match_fft_oracle_on_16384_cells(mode):
    f = random_fn(np.random.default_rng(53), FieldConfig(mode, 2), -7, 7)
    assert f.values.size == 16384
    assert_blocks_match_fft_oracle(f)


def test_norms_run_no_transform(monkeypatch):
    def refuse(self, values, inverse=False):
        raise AssertionError("the B/F norm layer ran a group DFT")

    monkeypatch.setattr(Window, "dft", refuse)
    rng = np.random.default_rng(59)
    for config in CONFIGS:
        f = random_fn(rng, config, -1, 3)
        besov_norm(f, 1.0, 2.0, 2.0)
        triebel_lizorkin_norm(f, 0.5, 1.5, 3.0)
        norm_columns(f, DEFAULT_SRT_LIST)


# ---------------------------------------------------------------------------
# Norms


def test_norm_unit_ball_is_one_for_all_exponents():
    f = refine(unit_ball(CONFIGS[0]), 0, 3)
    for s, r, t in [(0.0, 1.0, 1.0), (1.0, 2.0, 2.0), (0.5, 1.5, 3.0), (-1.0, 2.0, 1.0)]:
        rb = besov_norm(f, s, r, t)
        rf = triebel_lizorkin_norm(f, s, r, t)
        assert rb.space == "B" and rf.space == "F"
        assert rb.value == pytest.approx(1.0, abs=1e-11)
        assert rf.value == pytest.approx(1.0, abs=1e-11)


def test_norm_zero_function():
    f = TestFunction.zero(CONFIGS[2], -1, 2)
    assert besov_norm(f, 1.0, 2.0, 2.0).value == 0.0
    assert triebel_lizorkin_norm(f, 1.0, 2.0, 2.0).value == 0.0
    assert lebesgue_norm_report(f, 2.0).value == 0.0


def test_norm_scalar_homogeneity():
    rng = np.random.default_rng(23)
    f = random_fn(rng, CONFIGS[0], -1, 3)
    g = scalar_multiple(f, 2.0)
    for s, r, t in [(0.0, 2.0, 2.0), (1.0, 1.0, 3.0)]:
        assert besov_norm(g, s, r, t).value == pytest.approx(
            2 * besov_norm(f, s, r, t).value, rel=1e-12
        )
        assert triebel_lizorkin_norm(g, s, r, t).value == pytest.approx(
            2 * triebel_lizorkin_norm(f, s, r, t).value, rel=1e-12
        )


def test_norm_b_equals_f_when_r_equals_t():
    rng = np.random.default_rng(29)
    cases = 0
    for config in CONFIGS:
        for _ in range(25):
            f = random_fn(rng, config, int(rng.integers(-2, 1)), int(rng.integers(1, 4)))
            for rt, s in [(1.0, 0.0), (2.0, 1.0), (3.5, -0.5)]:
                vb = besov_norm(f, s, rt, rt).value
                vf = triebel_lizorkin_norm(f, s, rt, rt).value
                assert abs(vb - vf) <= 1e-11 * (1 + vb)
                cases += 1
    assert cases == 300


def test_norm_besov_matches_per_block_oracle():
    rng = np.random.default_rng(31)
    f = random_fn(rng, CONFIGS[1], -1, 2)
    s, r, t = 0.75, 2.0, 1.5
    q = float(f.config.q)
    terms = [
        q ** (s * j * t) * lr_norm(littlewood_paley(f, j), r) ** t
        for j in range(max(f.l, 0) + 1)
    ]
    assert besov_norm(f, s, r, t).value == pytest.approx(
        math.fsum(terms) ** (1 / t), rel=1e-14
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_norm_triebel_lizorkin_matches_per_block_oracle(config):
    # full-resolution FFT blocks, summed pointwise on the padded window
    rng = np.random.default_rng(61)
    s, r, t = 0.75, 1.5, 2.5
    q = float(config.q)
    for a, l in [(-1, 2), (1, 3), (-2, -1)]:
        f = random_fn(rng, config, a, l)
        blocks = [littlewood_paley(f, j) for j in range(max(l, 0) + 1)]
        pointwise = sum(q ** (s * j * t) * np.abs(b.values) ** t for j, b in enumerate(blocks))
        want = (math.fsum(pointwise ** (r / t)) * q ** -l) ** (1 / r)
        assert triebel_lizorkin_norm(f, s, r, t).value == pytest.approx(want, rel=1e-12)


def test_norm_monotone_under_top_block_truncation():
    rng = np.random.default_rng(37)
    for config in CONFIGS[:2]:
        f = random_fn(rng, config, 0, 3)
        top = littlewood_paley(f, f.l)
        dropped = add_functions(f, scalar_multiple(top, -1.0))
        for s, r, t in [(1.0, 2.0, 2.0), (0.5, 1.0, 2.5)]:
            assert besov_norm(dropped, s, r, t).value <= besov_norm(f, s, r, t).value + 1e-11
            assert (
                triebel_lizorkin_norm(dropped, s, r, t).value
                <= triebel_lizorkin_norm(f, s, r, t).value + 1e-11
            )


def test_norm_exponent_validation():
    f = unit_ball(CONFIGS[0])
    for bad_r, bad_t in [(0.5, 2.0), (2.0, 0.0), (math.inf, 2.0), (2.0, math.inf)]:
        with pytest.raises(ValueError):
            besov_norm(f, 0.0, bad_r, bad_t)
        with pytest.raises(ValueError):
            triebel_lizorkin_norm(f, 0.0, bad_r, bad_t)


# DEFAULT_SRT_LIST plus exponents outside the verify ranges, a repeated r
# with a new t, and a repeated triple
TABLE_SRT = DEFAULT_SRT_LIST + ((0.0, 1.0, 1.0), (-1.0, 2.0, 1.0), (0.75, 2.0, 3.5),
                                (0.5, 2.0, 2.0))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_norm_columns_equal_single_norms_bit_for_bit(config):
    # the one-row columns of a many-triple call, as the norms command reads them
    rng = np.random.default_rng(43)
    # a > 0 takes the padded path; l <= 0 leaves block 0 alone
    windows = [(-1, 2), (1, 3), (-2, 0), (-2, -1)]
    inputs = [random_fn(rng, config, a, l) for a, l in windows]
    inputs += [refine(unit_ball(config), -1, 2), TestFunction.zero(config, -1, 2)]
    for f in inputs:
        columns = norm_columns(f, TABLE_SRT)
        assert set(columns) == {(space, srt) for space in "BF" for srt in TABLE_SRT}
        for srt in TABLE_SRT:
            assert columns[("B", srt)] == [besov_norm(f, *srt).value]
            assert columns[("F", srt)] == [triebel_lizorkin_norm(f, *srt).value]
    assert norm_columns(inputs[0], []) == {}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_norm_columns_rows_equal_one_row_tables_bit_for_bit(config):
    rng = np.random.default_rng(44)
    for a, l in [(-1, 2), (1, 3), (-2, 0)]:
        rows = [random_fn(rng, config, a, l) for _ in range(3)] + [TestFunction.zero(config, a, l)]
        stack = TestFunction(config, a, l, np.stack([f.values for f in rows]))
        tables = [norm_columns(f, TABLE_SRT) for f in rows]
        for spaces in ("BF", "B", "F"):
            columns = norm_columns(stack, TABLE_SRT, spaces)
            assert set(columns) == {(space, srt) for space in spaces for srt in TABLE_SRT}
            for key, column in columns.items():
                assert column == [table[key][0] for table in tables]


def hexes(values) -> list:
    return [float(x).hex() for x in values]


# triples with r = t, r != t on either side, and r = 1 or t = 1
DIFFERENTIAL_SRT = [(0.5, 2.0, 2.0), (0.25, 1.5, 3.0), (1.0, 3.0, 1.5), (-0.5, 1.0, 2.5),
                    (2.0, 2.0, 1.0)]


# CONFIGS on windows (-2, 2) and (1, 3); P5_CONFIGS on (-1, 2) and (1, 3), so that no
# window, the second stack's (a - 1, l) included, has more than 5^4 cells
NORM_ROUTE_CASES = [pytest.param(config, window, id=f"{side}-{config.mode}{config.p}")
                    for configs, windows in ((CONFIGS, [(-2, 2), (1, 3)]),
                                             (P5_CONFIGS, [(-1, 2), (1, 3)]))
                    for side, window in zip(["a<0", "a>0"], windows) for config in configs]


@pytest.mark.parametrize("config, window", NORM_ROUTE_CASES)
@pytest.mark.parametrize("rows", [1, 5], ids=["one_row", "stacked"])
def test_norm_layer_equals_the_per_row_route_bit_for_bit(config, window, rows):
    rng = np.random.default_rng([45, rows])
    fs = [random_fn(rng, config, *window) for _ in range(rows)]
    f = fs[0] if rows == 1 else TestFunction(config, *window, np.stack([g.values for g in fs]))
    want = per_row_norm_columns(f, DIFFERENTIAL_SRT)
    for spaces in ("BF", "B", "F"):
        got = norm_columns(f, DIFFERENTIAL_SRT, spaces)
        assert set(got) == {(space, srt) for space in spaces for srt in DIFFERENTIAL_SRT}
        for key, column in got.items():
            assert hexes(column) == hexes(want[key]), key
    other = random_fn(rng, config, window[0] - 1, window[1])
    for r in (1, 1.5, 2, 3, 7.25):
        assert [hexes(norms) for norms in lr_norms_each([f, other], r)] == \
            [hexes(fsum_lr_norms(g, r)) for g in (f, other)]


def overflowing_case(route):
    """(f, spaces, srt_list) whose second triple alone leaves the float range, by route:
    a B sum of finite powers, an F sum of finite terms, or a power of a finite norm."""
    q2 = FieldConfig("padic", 2)
    if route == "b_sum":  # both block norms are 2e200, and each 2e200^1.5375 is finite
        vals = np.zeros(16)
        vals[:2] = 1e200, 3e200
        return TestFunction(q2, -3, 1, vals), "B", [(0.5, 1.0, 1.0), (0.0, 1.0, 1.5375)]
    if route == "f_sum":  # 16 cells of 1e200^1.537, each finite
        return TestFunction(q2, -3, 1, np.full(16, 1e200)), "F", [(0.5, 1.0, 1.0),
                                                                   (0.0, 1.537, 1.537)]
    # block 0 has norm above 1, so its power to t = 1e300 is past the float range
    return TestFunction(q2, -1, 2, np.full(8, 3.0)), "BF", [(0.5, 2.0, 2.0), (1e-300, 1.5, 1e300)]


@pytest.mark.parametrize("route", ["b_sum", "f_sum", "power"])
@np.errstate(over="ignore", invalid="ignore")  # the per-row route's numpy powers overflow too
def test_norm_columns_name_an_overflowing_triple_that_is_not_first(route):
    f, spaces, srt_list = overflowing_case(route)
    want = per_row_norm_columns(f, srt_list, spaces)
    assert all(math.isfinite(v) for space in spaces for v in want[space, srt_list[0]])
    assert not all(math.isfinite(v) for space in spaces for v in want[space, srt_list[1]])
    with pytest.raises(ValueError,
                       match=rf"^\(s, r, t\) = {re.escape(str(srt_list[1]))}: a B or F norm"):
        norm_columns(f, srt_list, spaces)
    # alone, the first triple reads its per-row values
    got = norm_columns(f, srt_list[:1], spaces)
    assert {key: hexes(v) for key, v in got.items()} == \
        {(space, srt_list[0]): hexes(want[space, srt_list[0]]) for space in spaces}


# ---------------------------------------------------------------------------
# the block table: one per input, kept for the last input only


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
@pytest.mark.parametrize("rows", [1, 5], ids=["one_row", "stacked"])
def test_cold_and_warm_block_tables_give_the_per_row_bits(config, rows):
    rng = np.random.default_rng([46, rows])
    fs = [random_fn(rng, config, -2, 2) for _ in range(rows)]
    f = fs[0] if rows == 1 else TestFunction(config, -2, 2, np.stack([g.values for g in fs]))
    want = {key: hexes(column) for key, column in per_row_norm_columns(f, DIFFERENTIAL_SRT).items()}
    for spaces in ("BF", "B", "F"):
        decomp._block_table.cache_clear()
        cold = norm_columns(f, DIFFERENTIAL_SRT, spaces)
        warm = norm_columns(f, DIFFERENTIAL_SRT, spaces)
        for got in (cold, warm):
            assert {key: hexes(column) for key, column in got.items()} == \
                {key: want[key] for key in got}
    # F's powers |block|^t serve B's r = t, one triple at a time, in either order
    for first, second in ("FB", "BF"):
        decomp._block_table.cache_clear()
        for space in (first, second):
            for srt in DIFFERENTIAL_SRT:
                assert hexes(norm_columns(f, [srt], space)[space, srt]) == want[space, srt]


def counting(monkeypatch) -> collections.Counter:
    """Calls of decomp._all_blocks and of np.hypot from here on, on a cold block table."""
    counts = collections.Counter()
    blocks, hypot = decomp._all_blocks, np.hypot

    def counted_blocks(f):
        counts["blocks"] += 1
        return blocks(f)

    def counted_hypot(*args, **kwargs):
        counts["hypot"] += 1
        return hypot(*args, **kwargs)

    monkeypatch.setattr(decomp, "_all_blocks", counted_blocks)
    monkeypatch.setattr(np, "hypot", counted_hypot)
    decomp._block_table.cache_clear()
    return counts


def test_a_second_norm_of_one_input_builds_no_blocks_and_no_moduli(monkeypatch):
    counts = counting(monkeypatch)
    f = random_fn(np.random.default_rng(47), CONFIGS[1], -2, 3)
    triebel_lizorkin_norm(f, 0.5, 1.5, 3.0)
    assert counts == {"blocks": 1, "hypot": len(decomp._block_table(f).blocks)}
    counts.clear()
    for s, r, t in DEFAULT_SRT_LIST:
        besov_norm(f, s, r, t)
        triebel_lizorkin_norm(f, s, r, t)
    assert norm_columns(f, DEFAULT_SRT_LIST)
    assert counts == {}


def test_a_large_windows_pass_builds_one_block_stack_per_function(monkeypatch):
    # the norms calls of perfbench's large-windows unit on smaller windows: 16 functions,
    # a B and an F norm of each for every default triple, 12 calls that built 192 stacks
    rng = np.random.default_rng(48)
    fs = [random_fn(rng, FieldConfig(mode, 2), -3, 3) for mode in ("padic", "laurent")
          for _ in range(8)]
    blocks = len(_all_blocks(fs[0]))
    counts = counting(monkeypatch)
    for f in fs:
        for s, r, t in DEFAULT_SRT_LIST:
            besov_norm(f, s, r, t)
            triebel_lizorkin_norm(f, s, r, t)
        for r in (1.5, 2.0, 3.0):
            lebesgue_norm_report(f, r)
    assert counts["blocks"] == len(fs) == 16
    # one modulus pass per block of each table, and one per Lebesgue r != 2
    assert counts["hypot"] == len(fs) * (blocks + 2)


def test_a_large_windows_pass_sums_the_blocks_once_per_distinct_r(monkeypatch):
    # the 12 norm calls of one large-windows function: 6 B norms over 3 distinct r
    f = random_fn(np.random.default_rng(51), FieldConfig("laurent", 2), -3, 3)
    cold = []
    for s, r, t in DEFAULT_SRT_LIST:
        for norm in (besov_norm, triebel_lizorkin_norm):
            decomp._block_table.cache_clear()
            cold.append(norm(f, s, r, t).value)
    calls = []
    kernel = functions.exact_sums

    def counted(values, starts):
        calls.append(len(starts))
        return kernel(values, starts)

    # every norm sums through lr_norms_of_parts, the one caller of exact_sums
    monkeypatch.setattr(functions, "exact_sums", counted)
    decomp._block_table.cache_clear()
    warm = [norm(f, s, r, t).value for s, r, t in DEFAULT_SRT_LIST
            for norm in (besov_norm, triebel_lizorkin_norm)]
    blocks = len(decomp._block_table(f).blocks)
    # a B norm with a new r sums every block once (r = 2: re^2 and im^2), an F norm its row
    assert [r for _, r, _ in DEFAULT_SRT_LIST] == [2.0, 1.5, 3.0] * 2
    assert calls == [2 * blocks, 1, blocks, 1, blocks, 1, 1, 1, 1]
    assert hexes(warm) == hexes(cold)


def test_an_equal_input_gets_a_table_of_its_own(monkeypatch):
    f = random_fn(np.random.default_rng(49), CONFIGS[2], -1, 2)
    twin = TestFunction(f.config, f.a, f.l, f.values.copy())
    counts = counting(monkeypatch)
    table = decomp._block_table(f)
    assert decomp._block_table(f) is table
    assert decomp._block_table(twin) is not table
    assert counts["blocks"] == 2
    assert norm_columns(twin, DIFFERENTIAL_SRT) == norm_columns(f, DIFFERENTIAL_SRT)
    # the memo keeps the last input only: twin's table evicted f's, which is built again
    assert decomp._block_table.cache_info().currsize == 1 and counts["blocks"] == 3


def test_block_table_arrays_refuse_writes():
    f = TestFunction(CONFIGS[0], -1, 2, np.random.default_rng(50).random((3, 8)))
    decomp._block_table.cache_clear()
    norm_columns(f, DIFFERENTIAL_SRT)
    table = decomp._block_table(f)
    arrays = [b.values for b in table.blocks] + table.moduli
    arrays += [m for t in (1.0, 1.5, 2.0, 2.5, 3.0) for m in table.powers(t)]
    assert len(arrays) == 7 * len(table.blocks)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[..., 0] = 1.0


@pytest.mark.parametrize("route", ["b_sum", "f_sum", "power"])
@np.errstate(over="ignore", invalid="ignore")
def test_a_warm_block_table_still_names_an_overflowing_triple(route):
    f, spaces, srt_list = overflowing_case(route)
    decomp._block_table.cache_clear()
    first = norm_columns(f, srt_list[:1], spaces)
    for _ in range(2):  # warm, then with the overflowing triple's powers in the table too
        with pytest.raises(ValueError,
                           match=rf"^\(s, r, t\) = {re.escape(str(srt_list[1]))}: a B or F norm"):
            norm_columns(f, srt_list, spaces)
        assert norm_columns(f, srt_list[:1], spaces) == first


# every entry point of the norm layer refuses the same values: each takes the
# shared list after its value below the domain (0.5 for an exponent, 0 for a level)
BAD_VALUES = [math.inf, math.nan, True, "2", 10**400]


def bad_id(x) -> str:
    return "10**400" if x == 10**400 else str(x)


ENTRY_POINTS = {
    "lr_norm": lr_norm,
    "lebesgue_norm_report": lebesgue_norm_report,
    "besov_norm.r": lambda f, x: besov_norm(f, 1.0, x, 2.0),
    "besov_norm.t": lambda f, x: besov_norm(f, 1.0, 2.0, x),
    "triebel_lizorkin_norm.r": lambda f, x: triebel_lizorkin_norm(f, 1.0, x, 2.0),
    "triebel_lizorkin_norm.t": lambda f, x: triebel_lizorkin_norm(f, 1.0, 2.0, x),
    "norm_columns.r": lambda f, x: norm_columns(f, [(1.0, 2.0, 2.0), (0.0, x, 2.0)]),
    "norm_columns.t": lambda f, x: norm_columns(f, [(1.0, 2.0, 2.0), (0.0, 2.0, x)]),
    "weak_level_measures": lambda f, x: weak_level_measures(f, [x]),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in ENTRY_POINTS
    for bad in [0 if entry == "weak_level_measures" else 0.5] + BAD_VALUES
], ids=bad_id)
def test_norm_entry_points_refuse_the_same_values(entry, bad):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](unit_ball(CONFIGS[0]), bad)


@pytest.mark.parametrize("bad", BAD_VALUES, ids=bad_id)
def test_norm_columns_refuse_a_non_finite_smoothness(bad):
    with pytest.raises(ValueError, match="finite float s"):
        norm_columns(unit_ball(CONFIGS[0]), [(bad, 2.0, 2.0)])


@pytest.mark.parametrize("srt", [(1e300, 2.0, 2.0), (1.0, 2.0, 1e300), (1e200, 2.0, 1e200)],
                         ids=["overflow", "large-t", "infinite-sjt"])
def test_norm_columns_refuse_a_weight_past_the_float_range(srt):
    # blocks j = 0..2: q^(s j t) overflows at j = 1, where s j t may itself be infinite
    with pytest.raises(ValueError, match=r"^\(s, r, t\) = .*: a block weight q\^\(s j t\) is not"):
        norm_columns(refine(unit_ball(CONFIGS[0]), -1, 2), [srt])


def test_norm_report_serialization():
    rep = NormReport("B", 1.0, 2.0, 2.0, 3.25)
    d = json.loads(json.dumps(rep.to_dict()))
    assert d == {"space": "B", "s": 1.0, "r": 2.0, "t": 2.0, "value": 3.25}


def test_lebesgue_report_wraps_lr_norm():
    rng = np.random.default_rng(41)
    f = random_fn(rng, CONFIGS[3], -1, 2)
    rep = lebesgue_norm_report(f, 2.0)
    assert rep.space == "L" and rep.value == lr_norm(f, 2.0)
