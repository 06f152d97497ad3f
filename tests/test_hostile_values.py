"""Every leaf config key, and every key of a function and a kernel file, through hostile values.

The keys come from cli._defaults(), the config schema, so a new key joins the
sweep by itself.  Each hostile value runs in one child process, under an
address-space limit and a timeout, that loops over the keys in-process
through cli.main; the rest of each run is cheap (count 2, window -1:1, one
check).  A case passes when it exits 0, or 2 with one error line that starts
with its dotted key, or with input: for a file key, and never prints a
traceback.  The one valid value among them, the prime 2^61 - 1 as field.p,
must meet the window's cell cap instead, whose line starts with window:.
"""

import json
from pathlib import Path

import pytest

from localfield import cli
from util import run_child

DATA = Path(__file__).parent / "data"

# a prime: trial division to its square root once hung every command
LARGE_PRIME = 2**61 - 1

HOSTILE = {
    "10**400": 10**400, "-10**400": -10**400, "1e300": 1e300, "-1e300": -1e300,
    "5e-324": 5e-324, "0": 0, "-1": -1, "true": True, '"x"': "x", "[]": [], "{}": {},
    "null": None, "2**61-1": LARGE_PRIME,
}

CHEAP = {"corpus": {"count": 2}, "window": [-1, 1], "checks": ["lebesgue"]}

FUNCTION = {"config": {"mode": "padic", "p": 2}, "a": -1, "l": 1,
            "values": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}
KERNEL = json.loads((DATA / "kern_q2.json").read_text())

# the child runs each (key, argv) case and prints [key, exit status, stderr] per case
CHILD = """
import contextlib, io, json, sys, traceback
from localfield import cli
results = []
for key, argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except Exception:
        status = None
        err.write(traceback.format_exc())
    results.append([key, status, err.getvalue()])
print(json.dumps(results))
"""


def leaf_keys(schema: dict, prefix: str = "") -> list:
    keys = []
    for key, value in schema.items():
        if isinstance(value, dict):
            keys += leaf_keys(value, f"{prefix}{key}.")
        else:
            keys.append(prefix + key)
    return keys


def with_value(base: dict, dotted: str, value) -> dict:
    out = json.loads(json.dumps(base))
    *parents, leaf = dotted.split(".")
    node = out
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return out


def cases(workdir: Path, value) -> list:
    """(key, argv, error prefix) for every swept key, its files written under workdir."""
    out = []
    for key in leaf_keys(cli._defaults()):
        path = workdir / f"config_{key}.json"
        path.write_text(json.dumps(with_value(CHEAP, key, value)))
        # a large prime is a valid p: the cell cap of the window, which reads p, refuses it
        capped = key == "field.p" and value is LARGE_PRIME
        out.append((key, ["verify", "--config", path.name],
                    "error: window: " if capped else f"error: {key}: "))
    for noun, command, base in (("function", "transform", FUNCTION), ("kernel", "atoms", KERNEL)):
        for key in base:
            path = workdir / f"{noun}_{key}.json"
            path.write_text(json.dumps(with_value(base, key, value)))
            out.append((f"{noun}.{key}", [command, path.name], "error: input: "))
    return out


@pytest.mark.parametrize("value", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_values_exit_0_or_2_with_the_key_path(tmp_path, value):
    swept = cases(tmp_path, value)
    child = run_child(CHILD, [json.dumps([[key, argv] for key, argv, _ in swept])],
                      cwd=tmp_path, timeout=60)
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert [key for key, _, _ in results] == [key for key, _, _ in swept]
    bad = []
    for (key, status, err), (_, _, prefix) in zip(results, swept):
        refused_cleanly = status == 2 and err.startswith(prefix) and err.count("\n") == 1
        if "Traceback" in err or not (status == 0 or refused_cleanly):
            bad.append((key, status, err[-300:]))
    assert not bad


# json.dumps cannot write an integer of over 4,300 digits, so both files are raw text
UNPARSABLE = {
    "5000-digit-seed": '{"corpus": {"seed": 1' + "0" * 4999 + "}}",
    "100000-deep-array": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("key", ["config", "input"])
@pytest.mark.parametrize("text", list(UNPARSABLE.values()), ids=list(UNPARSABLE))
def test_json_past_the_parser_limits_exits_2_with_its_key(tmp_path, capsys, text, key):
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = ["verify", "--config", str(path)] if key == "config" else ["transform", str(path)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: invalid JSON in {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
