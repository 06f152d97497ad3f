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
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decomp import (NormReport, check_cz_clauses, check_norm_srt, cz_decompose,
                     lebesgue_norm_report, norm_columns)
from .field import FieldConfig
from .fourier import forward, forward_naive, inverse, spectral_l2_norm
from .functions import TestFunction, check_level, check_norm_exponent, lr_norm, max_difference
from .kernels import AngularKernel, atomic_decompose, validate_atom
from .operators import apply_truncated, output_spec, window_output_spec
from .verify import (CHECK_NAMES, DEFAULT_SRT_LIST, _ms, canonical_dumps,
                     check_lebesgue_exponent, check_record, check_srt, check_truncation_level,
                     exact_checks_pass, fixture_resolution, run_verification)

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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_each(key: str, items, check):
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {items!r}")
    for item in items:
        try:
            check(item)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None


def _over_cap(q: int, e: int) -> bool:
    # whether q^e cells exceed the cap; since q >= 2, an e past the cap's bit
    # length is over the cap without computing q^e
    return e >= WINDOW_CELL_CAP.bit_length() or q**e > WINDOW_CELL_CAP


def _check_tk_windows(q: int, a: int, l: int, m: int, k_list) -> None:
    """Refuse a k whose T_k f window, for f on (a, l) and a resolution-m kernel, is over the cap."""
    for k in k_list:
        spec = window_output_spec(a, l, m, k)
        e = spec.out_l - spec.out_a
        if _over_cap(q, e):
            raise ConfigError(
                f"truncations.k_list: k = {k} gives T_k f q^{e} cells, more than the "
                f"{WINDOW_CELL_CAP}-cell cap; pass --override-window-cap to proceed")


def _validate(raw: dict, override_window_cap: bool, command: str | None) -> RunConfig:
    p = raw["field"].get("p")
    mode = raw["field"].get("mode")
    if not _is_int(p):
        raise ConfigError(f"field.p: expected a prime integer, got {p!r}")
    try:
        field = FieldConfig(mode, p)
    except ValueError as exc:
        if "not prime" in str(exc):
            raise ConfigError(f"field.p: p must be prime (got {p})") from exc
        raise ConfigError(f"field.mode: {exc}") from exc

    window = raw["window"]
    if (not isinstance(window, (list, tuple)) or len(window) != 2
            or not all(map(_is_int, window))):
        raise ConfigError(f"window: expected [a, l] with integer scales, got {window!r}")
    a, l = window
    if a > l:
        raise ConfigError(f"window: starting scale a = {a} exceeds resolution l = {l}")
    if _over_cap(field.q, l - a) and not override_window_cap:
        raise ConfigError(
            f"window: q^(l-a) = {field.q}^{l - a} cells exceeds the {WINDOW_CELL_CAP}-cell cap; "
            "pass --override-window-cap to proceed"
        )
    # verify's corpus holds the unit-ball and maximal-ideal indicators
    verifying = command == "verify"
    if verifying and (a > 0 or l < 1):
        raise ConfigError(f"window: verify needs a <= 0 < l, so that the corpus window "
                          f"holds the unit ball and resolves the maximal ideal; got ({a},{l})")

    corpus = raw["corpus"]
    if not _is_int(corpus["count"]) or corpus["count"] < 1:
        raise ConfigError(f"corpus.count: expected an integer >= 1, got {corpus['count']!r}")
    if not _is_int(corpus["seed"]) or corpus["seed"] < 0:
        raise ConfigError(f"corpus.seed: expected an integer >= 0, got {corpus['seed']!r}")
    resolutions = corpus["kernel_resolutions"]
    if not isinstance(resolutions, list) or not all(_is_int(m) and m >= 1 for m in resolutions):
        raise ConfigError(
            f"corpus.kernel_resolutions: expected a list of integers >= 1, got {resolutions!r}")
    for m in resolutions:
        # a resolution-m kernel lives on a window of q^m cells
        if _over_cap(field.q, m) and not override_window_cap:
            raise ConfigError(
                f"corpus.kernel_resolutions: resolution {m} needs q^{m} kernel cells, more "
                f"than the {WINDOW_CELL_CAP}-cell cap; pass --override-window-cap to proceed")

    checks = raw["checks"]
    if not isinstance(checks, (list, tuple)):
        raise ConfigError(f"checks: expected a list of check names, got {checks!r}")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ConfigError(f"checks: unknown check name {name!r}; expected from {CHECK_NAMES}")

    k_list = raw["truncations"]["k_list"]
    if not isinstance(k_list, (list, tuple)) or not all(map(_is_int, k_list)):
        raise ConfigError(f"truncations.k_list: expected a list of integers, got {k_list!r}")
    if verifying and not override_window_cap:
        # the finest corpus kernel gives the widest T_k f window
        _check_tk_windows(field.q, a, l, max([*resolutions, fixture_resolution(field.q)]), k_list)
    if verifying:
        # apply-tk computes no q^-k, so only verify needs it to be a float
        _check_each("truncations.k_list", k_list, lambda k: check_truncation_level(field.q, k))

    _check_each("parameters.lambda_list", raw["parameters"]["lambda_list"], check_level)
    # verify needs the theorems' exponent ranges; the norms command takes any
    # exponents the norm functions compute
    _check_each("parameters.r_list", raw["parameters"]["r_list"],
                check_lebesgue_exponent if verifying else check_norm_exponent)
    _check_each("parameters.srt_list", raw["parameters"]["srt_list"],
                check_srt if verifying else check_norm_srt)

    directory = raw["output"]["directory"]
    if not isinstance(directory, str):
        raise ConfigError(f"output.directory: expected a path string, got {directory!r}")
    formats = raw["output"]["formats"]
    if not isinstance(formats, (list, tuple)):
        raise ConfigError(f"output.formats: expected a list of format names, got {formats!r}")
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")

    params = raw["parameters"]
    return RunConfig(
        field=field,
        window=(a, l),
        seed=corpus["seed"],
        count=corpus["count"],
        kernel_resolutions=tuple(resolutions),
        checks=tuple(checks),
        k_list=tuple(k_list),
        r_list=tuple(params["r_list"]),
        srt_list=tuple(tuple(x) for x in params["srt_list"]),
        lambda_list=tuple(params["lambda_list"]),
        out_dir=directory,
        formats=tuple(formats),
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


def _parse_window(text: str) -> list:
    try:
        a, l = text.split(":")
        return [int(a), int(l)]
    except ValueError:
        raise ConfigError(f"window: expected A:L (e.g. -3:3), got {text!r}") from None


def _parse_list(text: str, key: str, cast) -> list:
    try:
        return [cast(x) for x in text.split(",") if x != ""]
    except ValueError:
        noun = "integer" if cast is int else "number"
        raise ConfigError(f"{key}: expected a comma-separated {noun} list, got {text!r}") from None


def _parse_srt(text: str) -> list:
    out = []
    for item in text.split(","):
        if item == "":
            continue
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"parameters.srt_list: expected s:r:t triples, got {item!r}")
        try:
            out.append([float(x) for x in parts])
        except ValueError:
            raise ConfigError(f"parameters.srt_list: non-numeric entry in {item!r}") from None
    return out


_FORMAT_CHOICES = {"json": ["json"], "csv": ["csv"], "both": ["json", "csv"]}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON run-config file")
    shared.add_argument("--mode", choices=("padic", "laurent"))
    shared.add_argument("--p", type=int, metavar="INT")
    shared.add_argument("--window", metavar="A:L", help="support scale : resolution scale")
    shared.add_argument("--seed", type=int, metavar="INT")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--format", choices=sorted(_FORMAT_CHOICES))
    shared.add_argument("--checks", metavar="LIST", help="comma-separated check names")
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
        "window": _parse_window(args.window) if args.window else None,
        "corpus.seed": args.seed,
        "output.directory": args.out,
        "output.formats": _FORMAT_CHOICES[args.format] if args.format else None,
        "checks": args.checks.split(",") if args.checks else None,
        "truncations.k_list": _parse_list(args.k, "truncations.k_list", int) if args.k else None,
        "parameters.r_list": _parse_list(args.r, "parameters.r_list", float) if args.r else None,
        "parameters.srt_list": _parse_srt(args.srt) if args.srt else None,
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
    except json.JSONDecodeError as exc:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"input: {path} is not a serialized {noun}: {exc}") from exc


def _write_artifact(cfg: RunConfig, filename: str, text: str):
    """Write text to filename under the output directory and say so on stdout."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / filename
        path.write_text(text)
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
    if not args.override_window_cap:
        _check_tk_windows(f.config.q, f.a, f.l, kern.m, cfg.k_list)
    outputs = []
    if kern.is_mean_zero:  # operator precondition; a FAIL check, not a crash
        for k in cfg.k_list:
            spec = output_spec(f, kern.m, k)
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


def _norms_csv(artifact: dict) -> str:
    lines = ["space,s,r,t,value"]
    for rep in artifact["reports"]:
        lines.append(f"{rep['space']},{rep['s']},{rep['r']},{rep['t']},{rep['value']}")
    return "\n".join(lines) + "\n"


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
    if "json" in cfg.formats:
        _write_artifact(cfg, "report.json", report.canonical_json())
    if "csv" in cfg.formats:
        _write_artifact(cfg, "report.csv", report.to_csv())
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
        _write_artifact(cfg, name, canonical_dumps(artifact) + "\n")
        if args.command == "norms" and "csv" in cfg.formats:
            _write_artifact(cfg, "norms.csv", _norms_csv(artifact))
        _print_checks(checks)
        return _exit_code(checks)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
