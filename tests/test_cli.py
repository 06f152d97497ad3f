"""CLI: config assembly with precedence, subcommand artifacts, exit policy."""

import argparse
import copy
import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from localfield import cli, operators, verify
from localfield.cli import ConfigError, main, parse_config
from localfield.field import Ball, FieldConfig, FieldElement, Window
from localfield.functions import TestFunction, from_indicator_combo, refine
from localfield.kernels import make_kernel, mean_zero_project, sphere_cell_count
from localfield.operators import apply_truncated, resolution_spec
from localfield.verify import DEFAULT_SRT_LIST
from util import CONFIGS, kernel_resolution_spec, row_table, run_child, with_row_tables

Q2 = FieldConfig("padic", 2)
DATA = Path(__file__).parent / "data"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def unit_ball_file(tmp_path, a=-1, l=2):
    f = from_indicator_combo(Q2, [(1.0, Ball(FieldElement.zero(Q2), 0))])
    f = refine(f, a, l)
    return write_json(tmp_path / "unit_ball.json", {"config": Q2.to_dict(), **f.to_dict()})


def complexes(pairs):
    return np.array([complex(re, im) for re, im in pairs])


# -- config assembly


def test_defaults_fill_everything():
    cfg = parse_config()
    assert cfg.field == FieldConfig("padic", 2)
    assert cfg.window == (-3, 3)
    assert cfg.seed == 42 and cfg.count == 50
    assert cfg.kernel_resolutions == (2, 3, 4)
    assert cfg.checks == ("lebesgue", "besov_tl", "l2_weak", "taibleson")
    assert cfg.k_list == (-3, -2, -1, 0)
    assert cfg.r_list == (1.5, 2.0, 3.0)
    assert cfg.srt_list == tuple(tuple(x) for x in DEFAULT_SRT_LIST)
    assert cfg.lambda_list == (0.5, 1.0, 4.0)
    assert cfg.out_dir == "out" and cfg.formats == ("json", "csv")


def test_empty_config_file_gives_defaults(tmp_path):
    path = write_json(tmp_path / "cfg.json", {})
    assert parse_config(path) == parse_config()


def test_nonprime_p_rejected():
    with pytest.raises(ConfigError, match=r"^field\.p: expected a prime integer, got 4$"):
        parse_config(overrides={"field.p": 4})


def test_flag_overrides_file_value(tmp_path):
    path = write_json(tmp_path / "cfg.json",
                      {"field": {"p": 3}, "corpus": {"seed": 7, "count": 5}})
    cfg = parse_config(path, overrides={"corpus.seed": 11})
    assert cfg.seed == 11  # flag wins
    assert cfg.field.p == 3 and cfg.count == 5  # file wins over defaults


def test_unknown_keys_get_key_paths(tmp_path):
    with pytest.raises(ConfigError, match="corpuss"):
        parse_config(write_json(tmp_path / "a.json", {"corpuss": {}}))
    with pytest.raises(ConfigError, match=r"corpus\.sede"):
        parse_config(write_json(tmp_path / "b.json", {"corpus": {"sede": 1}}))
    with pytest.raises(ConfigError, match=r"output\.formats"):
        parse_config(write_json(tmp_path / "c.json", {"output": {"formats": ["yaml"]}}))


@pytest.mark.parametrize("in_file, says", [
    ({"window": {"a": -3, "l": 3}}, "window: expected [a, l] with integer scales"),
    ({"checks": {}}, "checks: expected a list of check names"),
    ({"corpus": 3}, "corpus: expected an object with keys ('seed', 'count', 'kernel_resolutions')"),
])
def test_file_values_of_the_wrong_kind_get_key_paths(tmp_path, in_file, says):
    # the defaults are the schema: list-valued keys take any value, object-valued keys objects
    with pytest.raises(ConfigError) as info:
        parse_config(write_json(tmp_path / "cfg.json", in_file))
    assert str(info.value).startswith(says)


def test_parse_config_defaults_are_run_verification_defaults():
    cfg = parse_config()
    signature = inspect.signature(verify.run_verification)
    assert {name: p.default for name, p in signature.parameters.items()} == {
        "config": cfg.field, "seed": cfg.seed, "count": cfg.count, "window": cfg.window,
        "kernel_resolutions": cfg.kernel_resolutions, "k_list": cfg.k_list,
        "r_list": cfg.r_list, "srt_list": cfg.srt_list, "lambda_list": cfg.lambda_list,
        "checks": cfg.checks,
    }


def test_checks_help_lists_the_registered_protocols():
    # the --checks help of every subcommand names the checks of verify.PROTOCOLS, in order
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for parser in sub.choices.values():
        (action,) = [a for a in parser._actions if "--checks" in a.option_strings]
        assert tuple(action.help.split(" from ", 1)[1].split(", ")) == verify.CHECK_NAMES \
            == tuple(verify.PROTOCOLS)


def test_window_cap_and_override():
    with pytest.raises(ConfigError, match="override-window-cap"):
        parse_config(overrides={"window": [0, 20]})
    cfg = parse_config(overrides={"window": [0, 20]}, override_window_cap=True)
    assert cfg.window == (0, 20)
    # 2^16 cells sits exactly at the cap
    assert parse_config(overrides={"window": [0, 16]}).window == (0, 16)


def test_kernel_resolution_cap_and_override():
    # only parsed: a resolution-30 kernel sphere would need about 16 GB
    with pytest.raises(ConfigError, match=r"^corpus\.kernel_resolutions: .*override-window-cap"):
        parse_config(overrides={"corpus.kernel_resolutions": [2, 30]})
    with pytest.raises(ConfigError, match=r"^corpus\.kernel_resolutions: "):
        parse_config(overrides={"field.p": 3, "corpus.kernel_resolutions": [11]})
    with pytest.raises(ConfigError, match=r"^corpus\.kernel_resolutions: "):
        parse_config(overrides={"corpus.kernel_resolutions": [10**12]})
    cfg = parse_config(overrides={"corpus.kernel_resolutions": [2, 30]}, override_window_cap=True)
    assert cfg.kernel_resolutions == (2, 30)
    # q^m at the cap is allowed: 2^16 and 3^10 = 59049 cells
    assert parse_config(overrides={"corpus.kernel_resolutions": [16]}).kernel_resolutions == (16,)
    assert parse_config(overrides={"field.p": 3, "corpus.kernel_resolutions": [10]}).field.p == 3


def test_bad_window_and_checks_rejected():
    with pytest.raises(ConfigError, match="window"):
        parse_config(overrides={"window": [3, -3]})
    with pytest.raises(ConfigError) as info:
        parse_config(overrides={"checks": ["lebesgue", "zzz"]})
    assert str(info.value) == f"checks: expected a check name from {cli.CHECK_NAMES}, got 'zzz'"
    with pytest.raises(ConfigError, match=r"srt_list"):
        parse_config(overrides={"parameters.srt_list": [[0.5, 2.0]]})


@pytest.mark.parametrize("corpus, key", [
    ({"count": "abc"}, "corpus.count"),
    ({"count": 0}, "corpus.count"),
    ({"count": 2.5}, "corpus.count"),
    ({"count": True}, "corpus.count"),
    ({"seed": "7"}, "corpus.seed"),
    ({"seed": 1.5}, "corpus.seed"),
    ({"seed": -1}, "corpus.seed"),
    ({"kernel_resolutions": [0]}, "corpus.kernel_resolutions"),
    ({"kernel_resolutions": [2, "3"]}, "corpus.kernel_resolutions"),
    ({"kernel_resolutions": 3}, "corpus.kernel_resolutions"),
    # count x q^(l-a) corpus cells against the cap: 1025 x 2^6 is just over it
    ({"count": 10**400}, "corpus.count"),
    ({"count": 1025}, "corpus.count"),
])
def test_bad_corpus_keys_exit_2_with_key_path(tmp_path, capsys, corpus, key):
    path = write_json(tmp_path / "cfg.json", {"corpus": corpus})
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, in_file", [
    ("inf", None), ("nan", None), ("-1", None), ("0", None), ("1,-inf", None), ("abc", None),
    (None, [True]), (None, ["0.5"]), (None, [float("nan")]), (None, [0]), (None, [10**400]),
    (None, 1.0),
])
def test_bad_lambda_exits_2_with_key_path(tmp_path, capsys, flag, in_file):
    # the input is never read: the threshold list is refused first
    args = ["cz-decompose", str(tmp_path / "unread.json"), "--out", str(tmp_path / "o")]
    if flag is not None:
        args.append(f"--lambda={flag}")
    else:
        cfg = write_json(tmp_path / "cfg.json", {"parameters": {"lambda_list": in_file}})
        args += ["--config", cfg]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: parameters.lambda_list: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("in_file, says", [
    ({"parameters": {"srt_list": [["a", 2, 2]]}}, "parameters.srt_list: expected an (s, r, t)"),
    ({"parameters": {"srt_list": [[0.5, 2, "inf"]]}}, "parameters.srt_list: expected an (s, r, t)"),
    ({"parameters": {"srt_list": [[0, 2, 2]]}}, "parameters.srt_list: (s, r, t) = (0, 2, 2)"),
    ({"parameters": {"srt_list": [[0.5, 1, 2]]}}, "parameters.srt_list: (s, r, t) = (0.5, 1, 2)"),
    ({"parameters": {"srt_list": [[0.5, 2, float("inf")]]}}, "parameters.srt_list: (s, r, t) ="),
    ({"parameters": {"srt_list": [[0.5, 2]]}}, "parameters.srt_list: expected an (s, r, t)"),
    ({"parameters": {"srt_list": [[True, 2, 2]]}}, "parameters.srt_list: expected an (s, r, t)"),
    ({"parameters": {"srt_list": "0.5:2:2"}}, "parameters.srt_list: expected a list"),
    ({"parameters": {"r_list": [1.0]}}, "parameters.r_list: Lebesgue exponent r = 1.0"),
    ({"parameters": {"r_list": ["2"]}}, "parameters.r_list: Lebesgue exponent r = '2'"),
    ({"parameters": {"r_list": 2.0}}, "parameters.r_list: expected a list"),
    ({"truncations": {"k_list": "abc"}}, "truncations.k_list: expected a list of integers"),
    ({"truncations": {"k_list": [0, 1.5]}}, "truncations.k_list: expected a list of integers"),
    ({"truncations": {"k_list": [False]}}, "truncations.k_list: expected a list of integers"),
    ({"checks": "lebesgue"}, "checks: expected a list of check names"),
    ({"field": {"p": "two"}}, "field.p: expected a prime integer, got 'two'"),
    ({"field": {"p": 2.7}}, "field.p: expected a prime integer, got 2.7"),
    ({"field": {"p": True}}, "field.p: expected a prime integer, got True"),
    ({"output": {"formats": 5}}, "output.formats: expected a list of format names, got 5"),
    ({"output": {"directory": 5}}, "output.directory: expected a path string, got 5"),
    ({"window": [False, True]}, "window: expected [a, l] with integer scales"),
    ({"window": [1, 3]}, "window: verify needs a <= 0 < l"),
    ({"window": [0, 0]}, "window: verify needs a <= 0 < l"),
    ({"window": [-1, 0]}, "window: verify needs a <= 0 < l"),
    ({"truncations": {"k_list": [0, -1024]}}, "truncations.k_list: k = -1024 makes q^-k = 2^1024"),
    ({"parameters": {"r_list": [10**400]}}, "parameters.r_list: Lebesgue exponent r = 1000"),
    ({"parameters": {"srt_list": [[1, 10**400, 2]]}}, "parameters.srt_list: (s, r, t) = (1, 1000"),
    ({"truncations": {"k_list": [0, 1075]}}, "truncations.k_list: k = 1075 makes q^-k = 2^-1075"),
    ({"truncations": {"k_list": [10**400]}}, "truncations.k_list: k = 1000"),
])
def test_bad_verify_parameters_exit_2_before_the_corpus(tmp_path, capsys, monkeypatch,
                                                         in_file, says):
    def no_corpus(*args, **kwargs):
        raise AssertionError("the corpus was built before the config was refused")

    monkeypatch.setattr(verify, "generate_corpus", no_corpus)
    path = write_json(tmp_path / "cfg.json", in_file)
    # --out would override a bad output.directory in the file
    out = [] if "directory" in in_file.get("output", {}) else ["--out", str(tmp_path / "o")]
    assert main(["verify", "--config", path, *out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {says}")
    assert not (tmp_path / "o").exists()


def test_bad_k_flag_names_its_key(tmp_path, capsys):
    assert main(["apply-tk", str(DATA / "fn_q2.json"), "--kernel", str(DATA / "kern_q2.json"),
                 "--k=abc", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: truncations.k_list: ")
    assert not (tmp_path / "o").exists()


def test_verify_truncation_levels_need_a_float_q_power():
    # q^-k must be a finite nonzero float; for q = 2 that is -1023 <= k <= 1074
    for k in (1074, -1023):
        cfg = parse_config(overrides={"truncations.k_list": [k]}, override_window_cap=True,
                           command="verify")
        assert cfg.k_list == (k,)
    for k in (1075, -1024, 10**400, -10**400):
        with pytest.raises(ConfigError, match=r"^truncations\.k_list: k = "):
            parse_config(overrides={"truncations.k_list": [k]}, override_window_cap=True,
                         command="verify")
    # apply-tk computes no q^-k
    assert parse_config(overrides={"truncations.k_list": [10**400]}).k_list == (10**400,)


def test_verify_l2_weak_runs_at_the_largest_truncation_level(tmp_path, capsys):
    # q^-1074 is the least positive float; T_k f vanishes there, so every L2 ratio is 0.0
    out = tmp_path / "o"
    cfg = write_json(tmp_path / "cfg.json", {"corpus": {"count": 2}})
    assert main(["verify", "--config", cfg, "--checks", "l2_weak", "--k", "1074",
                 "--window=-1:1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {row["ratio"] for row in report["tables"]["l2_weak"] if row["check"] == "l2"} == {0.0}
    assert "PASS l2_bound_reading_a" in capsys.readouterr().out


def test_verify_runs_deep_truncation_levels_on_the_corpus_cells(tmp_path, monkeypatch):
    # verify caps no k: below -l the truncation kernel skips the shells that
    # average to 0, so every transformed row stays within q^(l-a+1) cells
    widths = []
    dft = Window.dft

    def wrapped(self, values, inverse=False):
        widths.append(np.shape(values)[-1])
        return dft(self, values, inverse)

    monkeypatch.setattr(Window, "dft", wrapped)
    cfg = write_json(tmp_path / "cfg.json", {"corpus": {"count": 3}})
    for k in (-60, -1023):
        out = tmp_path / f"k{-k}"
        widths.clear()
        assert main(["verify", "--config", cfg, f"--k={k}", "--window=-1:1",
                     "--out", str(out)]) == 0
        # strict JSON, and no measured value written as a non-finite string
        text = (out / "report.json").read_text()
        assert json.loads(text, parse_constant=_refuse_constant)["tables"]["lebesgue"]
        assert all(f'"{word}"' not in text for word in ("inf", "-inf", "nan"))
        assert widths and max(widths) <= 2 ** (1 - (-1) + 1)


def test_apply_tk_writes_deep_truncation_levels_at_the_resolution_of_f(tmp_path):
    # T_k f is constant on the cells of f, so every k has the window (a - 1, l)
    # of fn_q2.json's (-1, 2): 16 cells, and no cap applies
    out = tmp_path / "o"
    ks = [0, -60, -1023, -10**12]
    assert main(["apply-tk", str(DATA / "fn_q2.json"), "--kernel", str(DATA / "kern_q2.json"),
                 f"--k={','.join(map(str, ks))}", "--out", str(out)]) == 0
    blob = json.loads((out / "apply_tk.json").read_text())
    assert [o["k"] for o in blob["outputs"]] == ks
    for o in blob["outputs"]:
        assert o["spec"] == {"k": o["k"], "out_a": -2, "out_l": 2}
        assert (o["result"]["a"], o["result"]["l"]) == (-2, 2)
        assert len(o["result"]["values"]) == 16


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}{c.p}")
def test_apply_tk_refined_to_the_kernel_resolution_window_equals_that_route(tmp_path, config):
    # m - (k + 1) is above l = 2 at k = -3, -2, equal at -1 and below at 0, 1;
    # k = 2 lies past the tail cutoff, where T_k f is 0
    rng = np.random.default_rng(57)
    n = config.p ** 4
    f = TestFunction(config, -2, 2, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    v = rng.uniform(-1, 1, sphere_cell_count(config, 2))
    kern = mean_zero_project(make_kernel(config, v, 2))
    fn = write_json(tmp_path / "f.json", {"config": config.to_dict(), **f.to_dict()})
    kpath = write_json(tmp_path / "k.json", {"config": config.to_dict(), **kern.to_dict()})
    out = tmp_path / "o"
    assert main(["apply-tk", fn, "--kernel", kpath, "--mode", config.mode, "--p", str(config.p),
                 "--k=-3,-2,-1,0,1,2", "--out", str(out)]) == 0
    for o in json.loads((out / "apply_tk.json").read_text())["outputs"]:
        k = o["k"]
        assert o["spec"] == resolution_spec(f, k).to_dict()
        got = TestFunction.from_dict(config, o["result"])
        want = apply_truncated(f, kern, kernel_resolution_spec(f, kern.m, k))
        assert refine(got, want.a, want.l).values.tobytes() == want.values.tobytes()


def test_norms_keeps_exponents_outside_the_verify_ranges(tmp_path):
    # s <= 0 and r = 1 are norms, though not verify parameters
    out = tmp_path / "out"
    assert main(["norms", unit_ball_file(tmp_path), "--srt=0:1:1,-1:2:2", "--r", "1",
                 "--out", str(out)]) == 0
    values = [rep["value"] for rep in json.loads((out / "norms.json").read_text())["reports"]]
    assert values == pytest.approx([1.0] * 5, abs=1e-11)


@pytest.mark.parametrize("flag, key, entry", [
    ("--r=0.5", "r_list", 0.5), ("--r=inf", "r_list", math.inf), ("--r=nan", "r_list", math.nan),
    ("--srt=1:0.5:2", "srt_list", [1, 0.5, 2]), ("--srt=1:2:inf", "srt_list", [1, 2, math.inf]),
    ("--srt=nan:2:2", "srt_list", [math.nan, 2, 2]),
    # a flag reads 1e400 as inf; the file keeps the integer, too large for a float
    pytest.param("--r=1e400", "r_list", 10**400, id="--r=1e400-r_list-10**400"),
    pytest.param("--srt=1:1e400:2", "srt_list", [1, 10**400, 2],
                 id="--srt=1:1e400:2-srt_list-[1, 10**400, 2]"),
])
@pytest.mark.parametrize("in_file", [False, True], ids=["flag", "file"])
def test_bad_norms_exponents_exit_2_with_key_path(tmp_path, capsys, flag, key, entry, in_file):
    # norms computes 1 <= r, t < inf and any finite s; the input is never read
    out = tmp_path / "o"
    args = ["norms", str(tmp_path / "unread.json"), "--out", str(out)]
    if in_file:
        args += ["--config", write_json(tmp_path / "cfg.json", {"parameters": {key: [entry]}})]
    else:
        args.append(flag)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parameters.{key}: ") and err.count("\n") == 1
    assert not out.exists()


def test_readme_schema_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Flags and config files\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == cli._defaults()


def test_corpus_cells_at_the_cap_are_allowed():
    assert parse_config(overrides={"corpus.count": 1024}, command="verify").count == 1024
    cfg = parse_config(overrides={"corpus.count": 10**400}, override_window_cap=True,
                       command="verify")
    assert cfg.count == 10**400


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/cfg.json")


def test_large_prime_p_exits_2_with_the_cap_line_at_once(tmp_path):
    # 2^61 - 1 is prime; deciding so by trial division took minutes
    child = run_child("import sys; from localfield.cli import main; sys.exit(main(sys.argv[1:]))",
                      ["bench", "--p", 2**61 - 1, "--out", tmp_path / "o"], cwd=tmp_path, timeout=10)
    assert child.returncode == 2
    assert child.stderr == ("error: window: q^(l-a) = 2305843009213693951^6 cells, more than the "
                            "65536-cell cap; pass --override-window-cap to proceed\n")


def test_cli_p4_exits_2(tmp_path, capsys):
    assert main(["bench", "--p", "4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: field.p: expected a prime integer, got 4\n"


# -- subcommands


def test_transform_artifact_and_exit(tmp_path, capsys):
    fn = unit_ball_file(tmp_path)
    out = tmp_path / "out"
    assert main(["transform", fn, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS fourier_roundtrip" in printed and "PASS plancherel" in printed
    blob = json.loads((out / "transform.json").read_text())
    spectral = complexes(blob["spectral"]["values"])
    # the unit ball transforms to the dual unit ball indicator
    assert abs(spectral[0] - 1.0) < 1e-12


def test_norms_unit_ball_value_one(tmp_path):
    fn = unit_ball_file(tmp_path)
    out = tmp_path / "out"
    assert main(["norms", fn, "--srt", "1:2:2", "--r", "2",
                 "--out", str(out), "--format", "both"]) == 0
    blob = json.loads((out / "norms.json").read_text())
    spaces = {rep["space"] for rep in blob["reports"]}
    assert spaces == {"B", "F", "L"}
    for rep in blob["reports"]:
        assert abs(rep["value"] - 1.0) < 1e-11
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "space,s,r,t,value" and len(lines) == 4


def test_norms_bad_exponent_exits_2(tmp_path, capsys):
    fn = unit_ball_file(tmp_path)
    assert main(["norms", fn, "--srt", "1:0.5:2", "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_norms_csv_write_error_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "norms.csv").mkdir(parents=True)  # the csv path is taken by a directory
    assert main(["norms", str(DATA / "fn_q2.json"), "--format", "both",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not write") and "Traceback" not in err


def far_function_file(tmp_path, a):
    # two cells on (a, a + 1): the norms pad them to the 2^(a + 1) cells of (0, a + 1)
    return write_json(tmp_path / f"far{a}.json", {"config": Q2.to_dict(), "a": a, "l": a + 1,
                                                 "values": [[1.0, 0.0], [0.5, 0.0]]})


@pytest.mark.parametrize("a", [20, 40])
def test_norms_refuses_a_padded_window_over_the_cap(tmp_path, capsys, a):
    out = tmp_path / "out"
    assert main(["norms", far_function_file(tmp_path, a), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: input: norms pads the window to (0, {a + 1}): q^(l-a) = 2^{a + 1} cells, "
        "more than the 65536-cell cap; pass --override-window-cap to proceed\n")
    assert not out.exists()


def test_norms_padded_window_at_the_cap_and_override(tmp_path, monkeypatch):
    args = ["norms", far_function_file(tmp_path, 15), "--out", str(tmp_path / "out")]
    assert main(args) == 0  # 2^16 padded cells sit exactly at the cap
    monkeypatch.setattr(cli, "WINDOW_CELL_CAP", 2**15)
    assert main(args) == 2
    assert main(args + ["--override-window-cap"]) == 0


# with the cap overridden, a padded window of 2^63 cells is past what np.arange
# can index (it gave a float array and an IndexError traceback); it is refused
# before any index is built
def test_norms_refuses_a_padded_window_past_int64_indices(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["norms", far_function_file(tmp_path, 62), "--override-window-cap",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: window (0, 63) has 2^63 cells, more than an int64 index reaches\n")
    assert not out.exists()


# numpy's message names the allocation; a bare MemoryError still gives one line
@pytest.mark.parametrize("says, line", [
    ("Unable to allocate 16.0 TiB for an array with shape (2199023255552,)", None),
    ("", "out of memory"),
])
def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, says, line):
    def exhausted(cfg, args):
        raise MemoryError(says)

    monkeypatch.setitem(cli._COMMANDS, "norms", exhausted)
    out = tmp_path / "out"
    assert main(["norms", str(DATA / "fn_q2.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {line or says}\n"
    assert not out.exists()


def padic2_function_file(tmp_path, a, l, cells):
    fn = {"config": Q2.to_dict(), "a": a, "l": l, "values": [[v, 0.0] for v in cells]}
    return write_json(tmp_path / "fn.json", fn)


# finite inputs whose norm-layer sums leave the float range: fsum's OverflowError,
# or an inf sum, is refused with the norm's own message
@pytest.mark.parametrize("cells, argv, says", [
    ((-3, 1, [6e307] * 16), ["--srt", "0:1:1"],
     "(s, r, t) = (0.0, 1.0, 1.0): a B or F norm is not a finite float"),
    ((0, 1, [1e308] * 2), ["--srt=,", "--r", "1"], "r = 1.0: an L^r norm is not a finite float"),
    (None, ["--r", "1e300"], "r = 1e+300: an L^r norm is not a finite float"),
], ids=["16x6e307-srt-0:1:1", "2x1e308-r-1", "fn_q2-r-1e300"])
def test_norms_refuses_a_sum_past_the_float_range(tmp_path, capsys, cells, argv, says):
    fn = str(DATA / "fn_q2.json") if cells is None else padic2_function_file(tmp_path, *cells)
    out = tmp_path / "out"
    assert main(["norms", fn, *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {says}\n"
    assert not out.exists()


def test_verify_refuses_a_lebesgue_norm_past_the_float_range(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--checks", "lebesgue", "--r", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: r = 1e+308: an L^r norm is not a finite float\n"
    assert not out.exists()


def test_cz_audit_writes_a_metric_past_the_float_range_as_inf(tmp_path, capsys):
    # good_sq_integral = 2 (1e200)^2 is past the float range; the clauses stay exact
    out = tmp_path / "out"
    fn = padic2_function_file(tmp_path, 0, 1, [1e200, 1e200])
    assert main(["cz-decompose", fn, "--lambda", "1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (run,) = json.loads((out / "cz_decompose.json").read_text())["runs"]
    assert run["metrics"]["good_sq_integral"] == "inf"
    assert run["metrics"]["f_l1"] == 1e200 and all(run["clauses"].values())


@pytest.mark.parametrize("cells, norms", [([2.2e154, 0.0], ("inf", "inf")),
                                          ([1e154, 1e154], ("inf", "1e+154"))],
                         ids=["2.2e154-0", "1e154-1e154"])
def test_overflow_error_exits_2_with_one_error_line(tmp_path, capsys, cells, norms):
    # finite values and transform whose squares sum past the float range, where fsum
    # raises: both L^2 norms read inf, or the function's alone
    out = tmp_path / "out"
    fn = padic2_function_file(tmp_path, 0, 1, cells)
    assert main(["transform", fn, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: input: {fn}: the L^2 norm of f ({norms[0]}) "
                                       f"or of its transform ({norms[1]}) is not a finite float\n")
    assert not out.exists()


def test_main_turns_an_overflow_error_into_one_error_line(tmp_path, capsys, monkeypatch):
    def overflow(cfg, args):
        raise OverflowError("intermediate overflow in fsum")

    monkeypatch.setitem(cli._COMMANDS, "transform", overflow)
    out = tmp_path / "out"
    assert main(["transform", str(DATA / "fn_q2.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: intermediate overflow in fsum\n"
    assert not out.exists()


def test_norms_match_stored_golden_bytes(tmp_path):
    # off-theorem triples (s <= 0, r = 1) exercise the norms domain
    out = tmp_path / "out"
    assert main(["norms", str(DATA / "fn_q2.json"), "--format", "both",
                 "--srt", "0.5:2:2,1:1.5:3,0:1:1,-1:2:1", "--r", "1,2,3", "--out", str(out)]) == 0
    for ext in ("json", "csv"):
        assert (out / f"norms.{ext}").read_bytes() == (DATA / f"golden_norms_q2.{ext}").read_bytes()


def test_transform_matches_stored_golden_bytes(tmp_path):
    # the fast_matches_naive record holds the bits of the naive oracle
    out = tmp_path / "out"
    assert main(["transform", str(DATA / "fn_q2.json"), "--out", str(out)]) == 0
    golden = (DATA / "golden_transform_q2.json").read_bytes()
    assert (out / "transform.json").read_bytes() == golden


def test_verify_matches_stored_golden_bytes(tmp_path):
    # padic only: laurent bits depend on the BLAS thread count
    cfg = write_json(tmp_path / "cfg.json", {"corpus": {"count": 4, "kernel_resolutions": [2]}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--window=-2:2", "--k=-1,0", "--srt", "0.5:2:2,1:1.5:3",
                 "--r", "1.5,3", "--lambda", "0.25", "--out", str(out)]) == 0
    for ext in ("json", "csv"):
        golden = (DATA / f"golden_verify_q2.{ext}").read_bytes()
        assert (out / f"report.{ext}").read_bytes() == golden


def test_verify_q3_matches_stored_golden_bytes(tmp_path):
    # padic p = 3: numpy's FFT, whose bits do not depend on the BLAS threads; the powers
    # of 3 are inexact, so a reordered scale or product moves the last bits
    cfg = write_json(tmp_path / "cfg.json", {"corpus": {"count": 4, "kernel_resolutions": [2]}})
    out = tmp_path / "out"
    assert main(["verify", "--mode", "padic", "--p", "3", "--config", cfg, "--window=-2:2",
                 "--k=-1,0", "--srt", "0.5:2:2,1:1.5:3", "--r", "1.5,3", "--lambda", "0.25",
                 "--out", str(out)]) == 0
    for ext in ("json", "csv"):
        golden = (DATA / f"golden_verify_q3.{ext}").read_bytes()
        assert (out / f"report.{ext}").read_bytes() == golden


def test_verify_q5_matches_stored_golden_bytes(tmp_path):
    # padic p = 5 on -1:1, the q3 golden's other settings: a harness run at p >= 5, where
    # each Taibleson column has several unit shifts per distinct shift
    cfg = write_json(tmp_path / "cfg.json", {"corpus": {"count": 4, "kernel_resolutions": [2]}})
    out = tmp_path / "out"
    assert main(["verify", "--mode", "padic", "--p", "5", "--config", cfg, "--window=-1:1",
                 "--k=-1,0", "--srt", "0.5:2:2,1:1.5:3", "--r", "1.5,3", "--lambda", "0.25",
                 "--out", str(out)]) == 0
    for ext in ("json", "csv"):
        golden = (DATA / f"golden_verify_q5.{ext}").read_bytes()
        assert (out / f"report.{ext}").read_bytes() == golden


def test_cz_decompose_matches_stored_golden_bytes(tmp_path):
    # lambda 0.9 selects balls at scales 1 and 2, lambda 1.1 one ball at scale 2
    out = tmp_path / "out"
    assert main(["cz-decompose", real_function_file(tmp_path), "--lambda", "0.9,1.1",
                 "--out", str(out)]) == 0
    golden = (DATA / "golden_cz_q2.json").read_bytes()
    assert (out / "cz_decompose.json").read_bytes() == golden


def test_apply_tk_matches_stored_golden(tmp_path):
    out = tmp_path / "out"
    assert main(["apply-tk", str(DATA / "fn_q2.json"),
                 "--kernel", str(DATA / "kern_q2.json"),
                 "--k=-1,0", "--out", str(out)]) == 0
    blob = json.loads((out / "apply_tk.json").read_text())
    golden = json.loads((DATA / "golden_apply_tk_q2.json").read_text())
    assert len(blob["outputs"]) == 2
    for got, want in zip(blob["outputs"], golden["outputs"]):
        assert got["k"] == want["k"] and got["spec"] == want["spec"]
        diff = np.abs(complexes(got["result"]["values"])
                      - complexes(want["result"]["values"]))
        assert float(np.max(diff)) < 1e-12


def test_apply_tk_transforms_its_input_once(tmp_path, monkeypatch):
    # four k: one forward DFT of the input, one of each new truncation multiplier, and
    # one inverse per k
    calls = []
    dft = Window.dft

    def counted(w, values, inverse=False):
        calls.append((inverse, np.array(values)))
        return dft(w, values, inverse)

    monkeypatch.setattr(Window, "dft", counted)
    built = operators.truncation_multiplier.cache_info().misses
    assert main(["apply-tk", str(DATA / "fn_q2.json"), "--kernel", str(DATA / "kern_q2.json"),
                 "--k=-2,-1,0,1", "--out", str(tmp_path / "out")]) == 0
    assert operators.truncation_multiplier.cache_info().misses - built == 4
    forwards = [values for inverse, values in calls if not inverse]
    assert len(forwards) == 1 + 4 and sum(inverse for inverse, _ in calls) == 4
    f = TestFunction.from_dict(Q2, json.loads((DATA / "fn_q2.json").read_text()))
    spec = resolution_spec(f, 0)  # every k's transform window, (a - 1, l)
    assert sum(np.array_equal(v, refine(f, spec.out_a, spec.out_l).values) for v in forwards) == 1


def modulus_function_file(tmp_path):
    # |f| of the laurent p = 3 input, a real nonnegative function for the CZ split
    fn = json.loads((DATA / "fn_laurent3.json").read_text())
    fn["values"] = [[abs(complex(re, im)), 0.0] for re, im in fn["values"]]
    return write_json(tmp_path / "modulus.json", fn)


def test_norms_q3_match_stored_golden_bytes(tmp_path):
    # the laurent p = 3 input lives on (1, 4), so the blocks pad it onto (0, 4) through refine
    out = tmp_path / "out"
    assert main(["norms", str(DATA / "fn_laurent3.json"), "--format", "both",
                 "--srt", "0.5:2:2,1:1.5:3,0:1:1,-1:2:1", "--r", "1,2,3", "--out", str(out)]) == 0
    for ext in ("json", "csv"):
        assert (out / f"norms.{ext}").read_bytes() == (DATA / f"golden_norms_q3.{ext}").read_bytes()


def test_cz_decompose_q3_matches_stored_golden_bytes(tmp_path):
    # lambda 0.8 selects balls at depths 1 and 3 and covers depth-3 cosets above it,
    # 0.85 at depths 2 and 3, 1.0 at depth 3 only
    out = tmp_path / "out"
    assert main(["cz-decompose", modulus_function_file(tmp_path), "--lambda", "0.8,0.85,1.0",
                 "--out", str(out)]) == 0
    golden = (DATA / "golden_cz_q3.json").read_bytes()
    assert (out / "cz_decompose.json").read_bytes() == golden


def test_apply_tk_q3_matches_stored_golden_bytes(tmp_path):
    # padic: its transforms are numpy's FFT, whose bits do not depend on the BLAS threads
    out = tmp_path / "out"
    assert main(["apply-tk", str(DATA / "fn_padic3.json"),
                 "--kernel", str(DATA / "kern_padic3.json"),
                 "--k=-2,-1,0,1", "--out", str(out)]) == 0
    golden = (DATA / "golden_apply_tk_q3.json").read_bytes()
    assert (out / "apply_tk.json").read_bytes() == golden


def test_apply_tk_non_mean_zero_kernel_fails(tmp_path):
    kern = make_kernel(Q2, np.array([1.0, -0.5]), 2)
    assert not kern.is_mean_zero
    kpath = write_json(tmp_path / "k.json", {"config": Q2.to_dict(), **kern.to_dict()})
    fn = unit_ball_file(tmp_path)
    assert main(["apply-tk", fn, "--kernel", kpath, "--k", "0",
                 "--out", str(tmp_path / "o")]) == 1


def test_cz_decompose_artifact(tmp_path):
    # root-ball average is 0.6, so both thresholds clear the precondition
    f = TestFunction(Q2, -1, 2, np.linspace(0.2, 1.0, 8))
    fn = write_json(tmp_path / "f.json", {"config": Q2.to_dict(), **f.to_dict()})
    out = tmp_path / "out"
    assert main(["cz-decompose", fn, "--lambda", "0.65,0.9", "--out", str(out)]) == 0
    blob = json.loads((out / "cz_decompose.json").read_text())
    assert [run["lambda"] for run in blob["runs"]] == [0.65, 0.9]
    for run in blob["runs"]:
        assert all(run["clauses"].values())
        num, den = run["decomposition"]["exceptional_measure"]
        assert 0 <= num / den <= 4  # window measure is q = 2 at a = -1


def test_cz_informational_clause_does_not_gate_exit(tmp_path):
    # spike: the within-one-f_l1 reading fails, the factor-two clause holds
    vals = np.zeros(8)
    vals[0] = 1.0
    f = TestFunction(Q2, 0, 3, vals)
    fn = write_json(tmp_path / "f.json", {"config": Q2.to_dict(), **f.to_dict()})
    out = tmp_path / "out"
    assert main(["cz-decompose", fn, "--lambda", "0.2", "--out", str(out)]) == 0
    blob = json.loads((out / "cz_decompose.json").read_text())
    clauses = blob["runs"][0]["clauses"]
    assert clauses["remark_bad_l1_within_f_l1"] is False
    assert clauses["remark_bad_l1_at_most_double"] is True


def test_atoms_artifact(tmp_path):
    out = tmp_path / "out"
    assert main(["atoms", str(DATA / "kern_q2.json"), "--out", str(out)]) == 0
    blob = json.loads((out / "atoms.json").read_text())
    weights = [term["weight"] for term in blob["terms"]]
    assert weights and abs(sum(abs(w) for w in weights) - blob["h1_upper_bound"]) < 1e-12


def test_bench_artifact(tmp_path):
    out = tmp_path / "out"
    assert main(["bench", "--window=0:3", "--out", str(out)]) == 0
    blob = json.loads((out / "bench.json").read_text())
    assert [row["cells"] for row in blob["rows"]] == [2, 4, 8]
    assert all(row["max_abs_diff"] < 1e-10 for row in blob["rows"])


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["transform", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command, bad", [
    ("transform", "function"),
    ("apply-tk", "function"),
    ("apply-tk", "kernel"),
    ("atoms", "kernel"),
])
def test_non_finite_input_exits_2(tmp_path, capsys, command, bad):
    fn = json.loads(Path(unit_ball_file(tmp_path)).read_text())
    kern = json.loads((DATA / "kern_q2.json").read_text())
    (fn if bad == "function" else kern)["values"][1][0] = float("nan")
    fpath = write_json(tmp_path / "f.json", fn)
    kpath = write_json(tmp_path / "k.json", kern)
    out = tmp_path / "out"
    args = {"transform": ["transform", fpath],
            "apply-tk": ["apply-tk", fpath, "--kernel", kpath, "--k", "0"],
            "atoms": ["atoms", kpath]}[command]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input: ") and "non-finite value at cell 1" in err
    assert not out.exists()


@pytest.mark.parametrize("bad_p", [2.7, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("command", ["transform", "apply-tk", "norms", "atoms"])
def test_embedded_non_integer_p_exits_2(tmp_path, capsys, command, bad_p):
    fn = json.loads(Path(unit_ball_file(tmp_path)).read_text())
    kern = json.loads((DATA / "kern_q2.json").read_text())
    (kern if command == "atoms" else fn)["config"]["p"] = bad_p
    fpath = write_json(tmp_path / "f.json", fn)
    kpath = write_json(tmp_path / "k.json", kern)
    out = tmp_path / "out"
    args = {"transform": ["transform", fpath],
            "apply-tk": ["apply-tk", fpath, "--kernel", kpath, "--k", "0"],
            "norms": ["norms", fpath],
            "atoms": ["atoms", kpath]}[command]
    assert main(args + ["--out", str(out)]) == 2
    path, noun = (kpath, "kernel") if command == "atoms" else (fpath, "function")
    assert capsys.readouterr().err == (
        f"error: input: {path} is not a serialized {noun}: expected a prime integer, got {bad_p!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("noun, scales", [
    ("function", {"a": -1e300}), ("kernel", {"m": 1e300}), ("function", {"a": -1.5, "l": 1.9}),
], ids=["a=-1e300", "m=1e300", "a=-1.5,l=1.9"])
def test_input_scales_are_checked_before_any_power_is_built(tmp_path, noun, scales):
    # the scales are ints compared with the value count before q^(l-a) or
    # (q-1) q^(m-1) is built, so no scale can make a huge power or be truncated
    # the function's window is (-1, 1), which int() made of (-1.5, 1.9)
    source = unit_ball_file(tmp_path, -1, 1) if noun == "function" else DATA / "kern_q2.json"
    path = write_json(tmp_path / "in.json", {**json.loads(Path(source).read_text()), **scales})
    command = "transform" if noun == "function" else "atoms"
    child = run_child("import sys; from localfield.cli import main; sys.exit(main(sys.argv[1:]))",
                      [command, path, "--out", tmp_path / "o"], cwd=tmp_path, timeout=20)
    assert child.returncode == 2
    assert child.stderr.startswith(f"error: input: {path} is not a serialized {noun}: ")
    assert child.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("noun", ["function", "kernel"])
def test_input_value_too_large_for_a_float_exits_2(tmp_path, capsys, noun):
    data = json.loads((DATA / ("fn_q2.json" if noun == "function" else "kern_q2.json")).read_text())
    data["values"][0][0] = 10**400
    path = write_json(tmp_path / "in.json", data)
    out = tmp_path / "out"
    assert main(["transform" if noun == "function" else "atoms", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: input: {path} is not a serialized {noun}: int too large to convert to float\n")
    assert not out.exists()


def test_norms_refuses_a_weight_past_the_float_range(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["norms", str(DATA / "fn_q2.json"), "--srt", "1e300:2:2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: (s, r, t) = (1e+300, 2.0, 2.0): a block weight q^(s j t) is not a finite float\n")
    assert not out.exists()


def test_norms_refuses_a_norm_past_the_float_range(tmp_path, capsys):
    # finite weights, but block norms over 1 to the power t = 1e300 leave the float range
    fn = json.loads((DATA / "fn_q2.json").read_text())
    fn["values"] = [[10 * re, 10 * im] for re, im in fn["values"]]
    out = tmp_path / "out"
    assert main(["norms", write_json(tmp_path / "fn.json", fn), "--srt", "1e-300:1.5:1e300",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: (s, r, t) = (1e-300, 1.5, 1e+300): a B or F norm is not a finite float\n")
    assert not out.exists()


@pytest.mark.parametrize("srt, says", [
    ("1e300:2:2", "(s, r, t) = (1e+300, 2.0, 2.0): a block weight q^(s j t) is not a finite float"),
    # finite weights, but a block norm over 1 to the power t = 1e300 is past the float range
    pytest.param("1e-300:1.5:1e300",
                 "(s, r, t) = (1e-300, 1.5, 1e+300): a B or F norm is not a finite float",
                 id="1e-300:1.5:1e300"),
])
def test_verify_csv_run_writes_no_norm_past_the_float_range(tmp_path, capsys, srt, says):
    cfg = write_json(tmp_path / "cfg.json", {"corpus": {"count": 2}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--checks", "besov_tl", f"--srt={srt}", "--window=-1:1",
                 "--format", "csv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {says}") and err.count("\n") == 1
    assert not out.exists()


def huge_function_file(tmp_path):
    # every cell 1.7e308: transforms and norms of it overflow to inf and nan
    fn = json.loads((DATA / "fn_q2.json").read_text())
    fn["values"] = [[1.7e308, 1.7e308] for _ in fn["values"]]
    return write_json(tmp_path / "huge.json", fn)


@pytest.mark.parametrize("command", ["transform", "apply-tk", "norms"])
def test_non_finite_artifact_exits_2_and_writes_nothing(tmp_path, capsys, command):
    fpath = huge_function_file(tmp_path)
    args = {"transform": ["transform", fpath],
            "apply-tk": ["apply-tk", fpath, "--kernel", str(DATA / "kern_q2.json"), "--k", "0"],
            "norms": ["norms", fpath, "--format", "both"]}[command]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    # the error line is all of stderr: numpy's overflow warnings are silenced; the norm
    # layer refuses its infinite norms itself, the other commands meet the strict writer
    says = ("(s, r, t) = (0.5, 2.0, 2.0): a B or F norm is not a finite float"
            if command == "norms" else "Out of range float values are not JSON compliant")
    assert captured.err.startswith(f"error: {says}")
    assert captured.err.count("\n") == 1
    assert "PASS" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["transform", "norms"])
def test_overflow_raises_no_warning_out_of_main(tmp_path, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, huge_function_file(tmp_path), "--out", str(tmp_path / "o")]) == 2


def real_function_file(tmp_path):
    fn = json.loads((DATA / "fn_q2.json").read_text())
    fn["values"] = [[abs(re) + 0.25, 0.0] for re, _ in fn["values"]]
    return write_json(tmp_path / "real.json", fn)


@pytest.mark.parametrize("command", ["transform", "apply-tk", "cz-decompose", "norms", "atoms",
                                     "atoms-haar", "bench"])
def test_artifact_bytes_equal_the_stdlib_encoder(tmp_path, monkeypatch, command):
    fn, kern = str(DATA / "fn_q2.json"), str(DATA / "kern_q2.json")
    args = {"transform": ["transform", fn],
            "apply-tk": ["apply-tk", fn, "--kernel", kern, "--k=-1,0"],
            "cz-decompose": ["cz-decompose", real_function_file(tmp_path), "--lambda", "0.9,1.5"],
            "norms": ["norms", fn],
            "atoms": ["atoms", kern],
            "atoms-haar": ["atoms", kern, "--strategy", "haar"],
            "bench": ["bench", "--window=0:3"]}[command]
    written = []

    def recording(obj):
        written.append((obj, verify.canonical_dumps(obj)))
        return written[-1][1]

    monkeypatch.setattr(cli, "canonical_dumps", recording)
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    (obj, text), = written
    # the compact text, reindented, is the stdlib's indented form of the artifact
    indented = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    assert json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) == indented
    name = args[0].replace("-", "_") + ".json"
    assert (out / name).read_text() == text + "\n"


# -- verify determinism and exit policy


def verify_args(tmp_path, out_name, seed=None):
    cfg = {
        "corpus": {"count": 4, "kernel_resolutions": [2]},
        "window": [-2, 2],
        "truncations": {"k_list": [-1, 0]},
        "parameters": {"r_list": [2.0], "srt_list": [[0.5, 2, 2]],
                       "lambda_list": [1.0]},
    }
    path = write_json(tmp_path / "small.json", cfg)
    args = ["verify", "--config", path, "--out", str(tmp_path / out_name)]
    if seed is not None:
        args += ["--seed", str(seed)]
    return args


def test_verify_same_seed_identical_reports(tmp_path):
    assert main(verify_args(tmp_path, "run1")) == 0
    assert main(verify_args(tmp_path, "run2")) == 0
    assert main(verify_args(tmp_path, "run3", seed=7)) == 0
    r1 = (tmp_path / "run1" / "report.json").read_bytes()
    r2 = (tmp_path / "run2" / "report.json").read_bytes()
    r3 = (tmp_path / "run3" / "report.json").read_bytes()
    assert r1 == r2
    assert r1 != r3
    c1 = (tmp_path / "run1" / "report.csv").read_bytes()
    c2 = (tmp_path / "run2" / "report.csv").read_bytes()
    assert c1 == c2


def test_verify_prints_checks_and_timing(tmp_path, capsys):
    assert main(verify_args(tmp_path, "run")) == 0
    printed = capsys.readouterr().out
    assert "PASS corpus_kernels_mean_zero" in printed
    assert "timing_ms:" in printed
    assert "INFO lebesgue_fitted_constant" in printed


def test_verify_timing_line_times_the_report_writing(tmp_path, capsys):
    assert main(verify_args(tmp_path, "run")) == 0
    line, = [x for x in capsys.readouterr().out.splitlines() if x.startswith("timing_ms: ")]
    timing = json.loads(line[len("timing_ms: "):])
    assert set(timing) == {"corpus", *cli.CHECK_NAMES, "emit"}
    assert timing["emit"] >= 0


@pytest.mark.parametrize("fmt, names", [
    ("json", ["report.json"]), ("csv", ["report.csv"]), ("both", ["report.json", "report.csv"]),
])
def test_verify_writes_the_selected_formats(tmp_path, capsys, fmt, names):
    out = tmp_path / "out"
    assert main(verify_args(tmp_path, "out") + ["--format", fmt]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    wrote = [x for x in capsys.readouterr().out.splitlines() if x.startswith("wrote ")]
    assert wrote == [f"wrote {out / name}" for name in names]
    if "report.json" in names:
        assert json.loads((out / "report.json").read_text())["seed"] == 42
    if "report.csv" in names:
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "check,entry,k,param,ratio"
        assert len(lines) > 10


def test_verify_csv_write_error_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.csv").mkdir(parents=True)  # the csv path is taken by a directory
    assert main(verify_args(tmp_path, "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not write") and "Traceback" not in err


def test_verify_exit_ignores_measured_constants(tmp_path):
    # the default k range fails factor-4 stability yet the exact checks pass
    cfg = {
        "corpus": {"count": 6, "kernel_resolutions": [2]},
        "window": [-3, 2],
        "truncations": {"k_list": [-3, -2, -1, 0]},
        "parameters": {"r_list": [2.0], "srt_list": [[0.5, 2, 2]],
                       "lambda_list": [1.0]},
    }
    path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    blob = json.loads((out / "report.json").read_text())
    by_name = {c["name"]: c for c in blob["checks"]}
    assert by_name["lebesgue_k_stability"]["pass"] is False
    assert by_name["corpus_kernels_mean_zero"]["pass"] is True


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_report_is_strict_json_with_an_infinite_spread(tmp_path, capsys):
    # at k = 5 every T_k f vanishes while k = 0 does not: the spread is infinite
    out = tmp_path / "out"
    assert main(["verify", "--k", "0,5", "--checks", "lebesgue", "--out", str(out)]) == 0
    blob = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    by_name = {c["name"]: c for c in blob["checks"]}
    assert by_name["lebesgue_k_stability"]["measured"] == "inf"
    assert by_name["lebesgue_k_stability"]["pass"] is False
    assert "FAIL lebesgue_k_stability: measured=inf" in capsys.readouterr().out


@pytest.fixture(scope="module")
def small_report():
    return verify.run_verification(
        config=Q2, count=3, window=(-2, 2), kernel_resolutions=(2,), k_list=(-1, 0),
        r_list=(2.0,), srt_list=((0.5, 2.0, 2.0),), lambda_list=(1.0,))


# a path to every column of the tables, the row tables' through their rows:
# (table, row, key, then an index into a param list)
TABLE_COLUMNS = [("lebesgue", 0, i) for i in range(4)] + [
    ("besov_tl", 0, 1), ("besov_tl", 0, 2, 1), ("besov_tl", 0, 2, 3), ("besov_tl", 0, 3),
    *(("l2_weak", 1, key) for key in ("check", "entry", "k", "reading", "param", "ratio")),
    *(("pieces", 2, key) for key in ("atom", "j", "s", "r", "t", "ratio")),
    *(("taibleson", 1, key) for key in ("m", "modulus", "h1_upper_bound", "sup_l2_ratio_k0")),
    ("lebesgue_per_k", "0"), ("besov_per_k", "-1")]


@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
@pytest.mark.parametrize("path", TABLE_COLUMNS, ids=lambda p: ".".join(map(str, p)))
def test_verify_refuses_a_non_finite_value_in_any_table_column(
        tmp_path, capsys, monkeypatch, small_report, path, fmt):
    tables = copy.deepcopy({name: list(table) if isinstance(table, verify.RowTable) else table
                            for name, table in small_report.tables.items()})
    *at, key = path
    node = tables
    for part in at:
        node = node[part]
    node[key] = math.nan if len(path) % 2 else -math.inf
    report = verify.VerificationReport(Q2, 42, small_report.checks, with_row_tables(tables), {})
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: report)
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Out of range float values are not JSON compliant")
    assert not out.exists() or not any(out.iterdir())


def test_verify_refuses_to_write_a_non_finite_table_value(tmp_path, capsys, monkeypatch):
    report = verify.VerificationReport(Q2, 0, (), {"lebesgue": row_table([["f0.w0", 0, 2.0,
                                                                          math.nan]])}, {})
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: report)
    assert main(["verify", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()
