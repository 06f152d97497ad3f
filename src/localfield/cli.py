"""Command-line front end: config parsing, subcommand orchestration, file I/O.

A run is described by a RunConfig, assembled from defaults, an optional JSON
config file, and command-line flags (flags win over the file, the file wins
over defaults).  Every subcommand writes its serialized artifacts under the
output directory and prints one PASS/FAIL line per check it performed.

Exit status policy: 0 iff every *exact* invariant checked during the run
passed.  Measured-constant reports (fitted operator norms, k-stability
spreads, single-function-norm readings) are content of the artifacts, never
process failures; the tool stays usable as an instrument when an empirical
constant exceeds its reference value.  Usage and configuration errors exit
with status 2.

The Calderon-Zygmund clause `remark_bad_l1_within_f_l1` is informational for
exit purposes: the within-one-f_l1 reading fails for legitimate spiky inputs
while the factor-two clause always holds, so only the latter gates the exit
status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decomp import (NormReport, check_cz_clauses, check_norm_srt, cz_decompose,
                     lebesgue_norm_report, norm_columns)
from .field import FieldConfig, check_mode, check_prime, check_window, expect, is_int
from .fourier import forward, forward_naive, inverse, spectral_l2_norm
from .functions import TestFunction, check_level, check_norm_exponent, lr_norm, max_difference
from .kernels import AngularKernel, atomic_decompose, check_resolution, validate_atom
from .operators import apply_truncated, resolution_spec
from .verify import (CHECK_NAMES, DEFAULT_SRT_LIST, ReportWriter, _ms, canonical_dumps,
                     check_corpus_window, check_count, check_lebesgue_exponent, check_record,
                     check_srt, check_truncation_level, csv_text, exact_checks_pass,
                     run_verification)

WINDOW_CELL_CAP = 65536


class ConfigError(ValueError):
    """Configuration diagnostic; the message starts with the offending key path."""


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one CLI run, one field per setting; lists are tuples."""

    field: FieldConfig
    window: tuple
    seed: int
    count: int
    kernel_resolutions: tuple
    checks: tuple
    k_list: tuple
    r_list: tuple
    srt_list: tuple
    lambda_list: tuple
    out_dir: str
    formats: tuple


def _defaults() -> dict:
    return {
        "field": {"mode": "padic", "p": 2},
        "window": [-3, 3],
        "corpus": {"seed": 42, "count": 50, "kernel_resolutions": [2, 3, 4]},
        "checks": list(CHECK_NAMES),
        "truncations": {"k_list": [-3, -2, -1, 0]},
        "parameters": {
            "r_list": [1.5, 2.0, 3.0],
            "srt_list": [list(x) for x in DEFAULT_SRT_LIST],
            "lambda_list": [0.5, 1.0, 4.0],
        },
        "output": {"directory": "out", "formats": ["json", "csv"]},
    }


def _merge_file(base: dict, data: dict, prefix: str = ""):
    # the defaults are the schema: a file sets only keys they have, objects where they have one
    for key, val in data.items():
        if key not in base:
            raise ConfigError(f"{prefix}{key}: unknown config key")
        if not isinstance(base[key], dict):
            base[key] = val
        elif not isinstance(val, dict):
            raise ConfigError(f"{prefix}{key}: expected an object with keys {tuple(base[key])}")
        else:
            _merge_file(base[key], val, f"{prefix}{key}.")


def _each(check, noun: str):
    """The check of a list of noun whose every entry passes check."""
    def check_list(items):
        expect(isinstance(items, (list, tuple)), f"a list of {noun}", items)
        for item in items:
            check(item)
    return check_list


def _checked(key: str, value, check) -> None:
    """check(value), its ValueError made a ConfigError that starts with the dotted key."""
    try:
        check(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _check_cap(q: int, e: int, cells: str, count: int = 1) -> None:
    """Refuse count * q^e cells over the cap; cells says in the message what they are."""
    # count q^e > cap iff q^e > cap // count, true for any e past its bit length as q >= 2
    bound = WINDOW_CELL_CAP // count
    if e >= bound.bit_length() or q**e > bound:
        raise ValueError(f"{cells} cells, more than the {WINDOW_CELL_CAP}-cell cap; "
                         "pass --override-window-cap to proceed")


def _checks(raw: dict, capped: bool, verifying: bool):
    """(dotted key, check of its value) pairs in order; a key's own check is the library's.

    _validate applies a pair before it draws the next, so a check may read
    the keys above it, which have passed theirs."""
    yield "field.mode", check_mode
    yield "field.p", check_prime
    q = raw["field"]["p"]
    yield "window", check_corpus_window if verifying else check_window
    a, l = raw["window"]
    if capped:
        yield "window", lambda _: _check_cap(q, l - a, f"q^(l-a) = {q}^{l - a}")
    yield "corpus.count", check_count
    if capped and verifying:
        yield "corpus.count", lambda n: _check_cap(
            q, l - a, f"count x q^(l-a) = {n} x {q}^{l - a}", n)
    yield "corpus.seed", lambda seed: expect(is_int(seed) and seed >= 0, "an integer >= 0", seed)
    yield "corpus.kernel_resolutions", _each(check_resolution, "integers >= 1")
    if capped:
        # a resolution-m kernel lives on a window of q^m cells
        yield "corpus.kernel_resolutions", _each(
            lambda m: _check_cap(q, m, f"resolution {m} needs q^{m} kernel"), "integers >= 1")
    yield "checks", _each(lambda x: expect(x in CHECK_NAMES, f"a check name from {CHECK_NAMES}", x),
                          "check names")
    yield "truncations.k_list", lambda ks: expect(
        isinstance(ks, (list, tuple)) and all(map(is_int, ks)), "a list of integers", ks)
    if verifying:
        # apply-tk computes no q^-k, so only verify needs it to be a float
        yield "truncations.k_list", _each(lambda k: check_truncation_level(q, k), "integers")
    yield "parameters.lambda_list", _each(check_level, "thresholds")
    # verify needs the theorems' exponent ranges; the norms command takes any
    # exponents the norm functions compute
    yield "parameters.r_list", _each(check_lebesgue_exponent if verifying else check_norm_exponent,
                                     "exponents")
    yield "parameters.srt_list", _each(check_srt if verifying else check_norm_srt,
                                       "(s, r, t) triples")
    yield "output.directory", lambda d: expect(isinstance(d, str), "a path string", d)
    yield "output.formats", _each(lambda fmt: expect(fmt in ("json", "csv"), "json or csv", fmt),
                                  "format names")


def _validate(raw: dict, override_window_cap: bool, command: str | None) -> RunConfig:
    for key, check in _checks(raw, not override_window_cap, command == "verify"):
        node = raw
        for part in key.split("."):
            node = node[part]
        _checked(key, node, check)
    corpus, params = raw["corpus"], raw["parameters"]
    return RunConfig(
        field=FieldConfig.from_dict(raw["field"]),
        window=tuple(raw["window"]),
        seed=corpus["seed"],
        count=corpus["count"],
        kernel_resolutions=tuple(corpus["kernel_resolutions"]),
        checks=tuple(raw["checks"]),
        k_list=tuple(raw["truncations"]["k_list"]),
        r_list=tuple(params["r_list"]),
        srt_list=tuple(tuple(x) for x in params["srt_list"]),
        lambda_list=tuple(params["lambda_list"]),
        out_dir=raw["output"]["directory"],
        formats=tuple(raw["output"]["formats"]),
    )


def parse_config(path=None, overrides: dict | None = None,
                 override_window_cap: bool = False, command: str | None = None) -> RunConfig:
    """Assemble a RunConfig from defaults, an optional file, and overrides.

    overrides is a flat dict keyed by dotted paths ("field.p", "corpus.seed",
    "window", ...); values there win over the file, the file over defaults.
    With command "verify", parameters.r_list and parameters.srt_list must
    also lie in the ranges the verify protocols measure.
    """
    raw = _defaults()
    if path is not None:
        _merge_file(raw, _read_json(path, "config"))
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        parts = dotted.split(".")
        node = raw
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return _validate(raw, override_window_cap, command)


# ---------------------------------------------------------------------------
# flag parsing


def _parse_list(text: str, key: str, cast, sep: str = ",") -> list:
    # a list's shape, such as the two scales of A:L, is checked with the file's values
    try:
        return [cast(x) for x in text.split(sep) if x != ""]
    except ValueError:
        noun = "integers" if cast is int else "numbers"
        raise ConfigError(f"{key}: expected {noun} separated by {sep!r}, got {text!r}") from None


def _triple(item: str) -> list:
    return [float(x) for x in item.split(":")]


_FORMAT_CHOICES = {"json": ["json"], "csv": ["csv"], "both": ["json", "csv"]}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON run-config file")
    shared.add_argument("--mode", help="padic or laurent")
    shared.add_argument("--p", type=int, metavar="INT")
    shared.add_argument("--window", metavar="A:L", help="support scale : resolution scale")
    shared.add_argument("--seed", type=int, metavar="INT")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--format", choices=sorted(_FORMAT_CHOICES))
    shared.add_argument("--checks", metavar="LIST",
                        help=f"comma-separated check names from {', '.join(CHECK_NAMES)}")
    shared.add_argument("--k", metavar="LIST", help="comma-separated truncation scales")
    shared.add_argument("--r", metavar="LIST", help="comma-separated integrability exponents")
    shared.add_argument("--srt", metavar="LIST", help="comma-separated s:r:t triples")
    shared.add_argument("--lambda", dest="lambda_list", metavar="LIST",
                        help="comma-separated thresholds")
    shared.add_argument("--override-window-cap", action="store_true",
                        help=f"allow windows beyond {WINDOW_CELL_CAP} cells")

    parser = argparse.ArgumentParser(
        prog="localfield",
        description="Exact-arithmetic harmonic analysis on p-adic and Laurent-series fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", parents=[shared],
                          help="Fourier transform of a serialized function")
    p_tr.add_argument("input", help="JSON file with a serialized function")

    p_tk = sub.add_parser("apply-tk", parents=[shared],
                          help="apply the truncated singular operator at each scale in --k")
    p_tk.add_argument("input", help="JSON file with a serialized function")
    p_tk.add_argument("--kernel", required=True, metavar="PATH",
                      help="JSON file with a serialized angular kernel")

    p_cz = sub.add_parser("cz-decompose", parents=[shared],
                          help="Calderon-Zygmund split at each threshold in --lambda")
    p_cz.add_argument("input", help="JSON file with a serialized function")

    p_no = sub.add_parser("norms", parents=[shared],
                          help="Lebesgue / Besov / Triebel-Lizorkin norms of an input")
    p_no.add_argument("input", help="JSON file with a serialized function")

    p_at = sub.add_parser("atoms", parents=[shared], help="atomic decomposition of a kernel")
    p_at.add_argument("kernel", help="JSON file with a serialized angular kernel")
    p_at.add_argument("--strategy", choices=("scaled", "haar"), default="scaled")

    sub.add_parser("verify", parents=[shared], help="run the full verification harness")
    sub.add_parser("bench", parents=[shared], help="fast-vs-naive transform timings")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    return {
        "field.mode": args.mode,
        "field.p": args.p,
        "window": _parse_list(args.window, "window", int, ":") if args.window else None,
        "corpus.seed": args.seed,
        "output.directory": args.out,
        "output.formats": _FORMAT_CHOICES[args.format] if args.format else None,
        "checks": args.checks.split(",") if args.checks else None,
        "truncations.k_list": _parse_list(args.k, "truncations.k_list", int) if args.k else None,
        "parameters.r_list": _parse_list(args.r, "parameters.r_list", float) if args.r else None,
        "parameters.srt_list": (_parse_list(args.srt, "parameters.srt_list", _triple)
                                if args.srt else None),
        "parameters.lambda_list": (_parse_list(args.lambda_list, "parameters.lambda_list", float)
                                   if args.lambda_list else None),
    }


# ---------------------------------------------------------------------------
# file I/O helpers


def _read_json(path, key: str) -> dict:
    """The JSON object in the file at path; key ("config" or "input") starts each error."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{key}: file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too long an int, too deep
        raise ConfigError(f"{key}: invalid JSON in {p}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{key}: top level of {p} must be an object")
    return data


def _load(path, fallback: FieldConfig, cls, noun: str):
    """The cls (TestFunction or AngularKernel) at path; a field in the file wins over fallback."""
    data = _read_json(path, "input")
    try:
        config = FieldConfig.from_dict(data["config"]) if "config" in data else fallback
        return cls.from_dict(config, data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"input: {path} is not a serialized {noun}: {exc}") from exc


def _write_artifact(cfg: RunConfig, filename: str, chunks):
    """Write the text chunks, one after another as they come, to filename under the
    output directory and say so on stdout."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / filename
        with path.open("w") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise RuntimeError(f"could not write artifact under {out_dir}: {exc}") from exc
    print(f"wrote {path}")


def _print_checks(checks: list):
    for c in checks:
        if c["pass"] is None:
            status = "INFO"
        else:
            status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}: measured={c['measured']} claimed={c['claimed']}")


def _exit_code(checks: list) -> int:
    return 0 if all(c["pass"] for c in checks if c["pass"] is not None) else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_transform(cfg: RunConfig, args) -> tuple[dict, list]:
    f = _load(args.input, cfg.field, TestFunction, "function")
    F = forward(f)
    g = inverse(F)
    roundtrip = max_difference(f, g)
    nf, nF = lr_norm(f, 2.0), spectral_l2_norm(F)
    # finite values whose L^2 norm is not: no plancherel reading; a non-finite
    # transform is refused by the strict writer instead
    if np.isfinite(F.values).all() and not (math.isfinite(nf) and math.isfinite(nF)):
        raise ValueError(f"input: {args.input}: the L^2 norm of f ({nf}) or of its "
                         f"transform ({nF}) is not a finite float")
    plancherel = abs(nf - nF) / nf if nf > 0 else abs(nF)
    checks = [
        check_record("fourier_roundtrip", 1e-12, roundtrip, roundtrip < 1e-12),
        check_record("plancherel", 1e-10, plancherel, plancherel < 1e-10),
    ]
    if f.values.size <= 2048:
        diff = float(np.max(np.abs(F.values - forward_naive(f).values)))
        checks.append(check_record("fast_matches_naive", 1e-10, diff, diff < 1e-10))
    artifact = {"config": f.config.to_dict(), "input": f.to_dict(),
                "spectral": F.to_dict(), "checks": checks}
    return artifact, checks


def _cmd_apply_tk(cfg: RunConfig, args) -> tuple[dict, list]:
    f = _load(args.input, cfg.field, TestFunction, "function")
    kern = _load(args.kernel, f.config, AngularKernel, "kernel")
    outputs = []
    if kern.is_mean_zero:  # operator precondition; a FAIL check, not a crash
        for k in cfg.k_list:
            spec = resolution_spec(f, k)
            g = apply_truncated(f, kern, spec)
            outputs.append({"k": k, "spec": spec.to_dict(), "result": g.to_dict()})
    checks = [check_record("kernel_mean_zero", True, kern.is_mean_zero, kern.is_mean_zero)]
    artifact = {"config": f.config.to_dict(), "input": f.to_dict(),
                "kernel": kern.to_dict(), "outputs": outputs, "checks": checks}
    return artifact, checks


def _cmd_cz(cfg: RunConfig, args) -> tuple[dict, list]:
    f = _load(args.input, cfg.field, TestFunction, "function")
    runs = []
    checks = []
    for lam in cfg.lambda_list:
        dec = cz_decompose(f, lam, f.a)
        clauses, metrics = check_cz_clauses(f, dec)
        runs.append({"lambda": lam, "decomposition": dec.to_dict(),
                     "clauses": clauses, "metrics": metrics})
        for name, ok in clauses.items():
            informational = name == "remark_bad_l1_within_f_l1"
            checks.append(check_record(f"cz:{lam}:{name}", True, ok,
                                       None if informational else ok))
    artifact = {"config": f.config.to_dict(), "input": f.to_dict(),
                "runs": runs, "checks": checks}
    return artifact, checks


def _cmd_norms(cfg: RunConfig, args) -> tuple[dict, list]:
    f = _load(args.input, cfg.field, TestFunction, "function")
    if not args.override_window_cap:
        a, q = min(f.a, 0), f.config.q  # the blocks pad the window to reach scale 0
        _checked("input", f.l - a, lambda e: _check_cap(
            q, e, f"norms pads the window to ({a}, {f.l}): q^(l-a) = {q}^{e}"))
    table = norm_columns(f, cfg.srt_list)
    reports = []
    checks = []
    for s, r, t in cfg.srt_list:
        (b,), (fl,) = table[("B", (s, r, t))], table[("F", (s, r, t))]
        reports.extend(NormReport(space, float(s), float(r), float(t), v).to_dict()
                       for space, v in (("B", b), ("F", fl)))
        if r == t:
            gap = abs(b - fl)
            checks.append(check_record(f"norm_bf_match:{s}:{r}:{t}", 1e-11, gap, gap <= 1e-11))
    for r in cfg.r_list:
        reports.append(lebesgue_norm_report(f, r).to_dict())
    artifact = {"config": f.config.to_dict(), "input": f.to_dict(),
                "reports": reports, "checks": checks}
    return artifact, checks


def _cmd_atoms(cfg: RunConfig, args) -> tuple[dict, list]:
    kern = _load(args.kernel, cfg.field, AngularKernel, "kernel")
    dec = atomic_decompose(kern, args.strategy)
    all_valid = all(validate_atom(atom).valid for _, atom in dec.terms)
    recon = dec.reconstruction(kern.config, kern.m)
    recon_err = float(np.max(np.abs(recon - kern.values)))
    checks = [
        check_record("atoms_all_valid", True, all_valid, all_valid),
        check_record("atom_reconstruction", 1e-12, recon_err, recon_err <= 1e-12),
    ]
    artifact = {
        "config": kern.config.to_dict(),
        "kernel": kern.to_dict(),
        "strategy": args.strategy,
        "terms": [{"weight": lam, "atom": atom.to_dict()} for lam, atom in dec.terms],
        "h1_upper_bound": dec.h1_upper_bound,
        "checks": checks,
    }
    return artifact, checks


def _cmd_bench(cfg: RunConfig, args) -> tuple[dict, list]:
    rng = np.random.default_rng(cfg.seed)
    a, l = cfg.window
    rows = []
    worst = 0.0
    for d in range(1, l - a + 1):
        size = cfg.field.q ** d
        vals = rng.random(size) + 1j * rng.random(size)
        f = TestFunction(cfg.field, a, a + d, vals)
        t0 = time.perf_counter()
        F = forward(f)
        fast_ms = (time.perf_counter() - t0) * 1000.0
        row = {"a": a, "l": a + d, "cells": size,
               "fast_ms": round(fast_ms, 4), "naive_ms": None, "max_abs_diff": None}
        if size <= 2048:
            t0 = time.perf_counter()
            Fn = forward_naive(f)
            row["naive_ms"] = round((time.perf_counter() - t0) * 1000.0, 4)
            diff = float(np.max(np.abs(F.values - Fn.values)))
            row["max_abs_diff"] = diff
            worst = max(worst, diff)
        rows.append(row)
    checks = [check_record("bench_fast_matches_naive", 1e-10, worst, worst < 1e-10)]
    artifact = {"config": cfg.field.to_dict(), "seed": cfg.seed,
                "rows": rows, "checks": checks}
    return artifact, checks


def _cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(
        config=cfg.field,
        seed=cfg.seed,
        count=cfg.count,
        window=cfg.window,
        kernel_resolutions=cfg.kernel_resolutions,
        k_list=cfg.k_list,
        r_list=cfg.r_list,
        srt_list=cfg.srt_list,
        lambda_list=cfg.lambda_list,
        checks=cfg.checks,
    )
    # report.json is the canonical, timing-free form, so a rerun is byte-identical
    t0 = time.perf_counter()
    writer = ReportWriter(report)  # refuses a non-finite value before either file is begun
    if "json" in cfg.formats:
        _write_artifact(cfg, "report.json", writer.json_chunks())
    if "csv" in cfg.formats:
        _write_artifact(cfg, "report.csv", writer.csv_chunks())
    timing_ms = {**report.timing_ms, "emit": _ms(t0)}
    print(f"timing_ms: {json.dumps(timing_ms, sort_keys=True)}")
    _print_checks(list(report.checks))
    return 0 if exact_checks_pass(report) else 1


# the artifact commands: each returns (artifact, checks) and main writes the artifact
_COMMANDS = {
    "transform": _cmd_transform,
    "apply-tk": _cmd_apply_tk,
    "cz-decompose": _cmd_cz,
    "norms": _cmd_norms,
    "atoms": _cmd_atoms,
    "bench": _cmd_bench,
}


# an overflow to inf or nan ends as the strict writer's error line, not numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, _overrides_from_args(args),
                           args.override_window_cap, args.command)
        if args.command == "verify":
            return _cmd_verify(cfg)
        artifact, checks = _COMMANDS[args.command](cfg, args)
        name = args.command.replace("-", "_") + ".json"
        _write_artifact(cfg, name, [canonical_dumps(artifact), "\n"])
        if args.command == "norms" and "csv" in cfg.formats:
            _write_artifact(cfg, "norms.csv", [csv_text(  # each report's keys, in this order
                [("space", "s", "r", "t", "value"), *map(dict.values, artifact["reports"])])])
        _print_checks(checks)
        return _exit_code(checks)
    except (ConfigError, ValueError, OverflowError, RuntimeError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it could not make; Python's is blank
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
