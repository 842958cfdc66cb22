"""CLI harness: generation determinism, round trips, exit codes."""

import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from maxconv import KERNELS, Sequence, cli
from maxconv.cli import METHODS, main
from maxconv.serialize import (
    FIELDS,
    PROBLEMS,
    InstanceFormatError,
    dump_instance,
    gen_payload,
    parse_instance,
    payload_objects,
    validate_payload,
)

TAGS = (
    "maxconv",
    "upperbound",
    "lowerbound",
    "superadd",
    "knapsack01",
    "uknapsack",
    "mcsp",
    "treesparsity",
    "necklace",
    "3sumconv",
)
# sha256 over every `gen` output of test_gen_is_byte_identical_for_same_seed,
# in its loop order.  Any change to a generator or to the file format moves it.
GEN_DIGEST = "dbf12234edeb335129c0a3780868be9e4f0282e2dffdca7e06c7261a3464c4b1"
# The same over the payloads alone (canonical JSON): only a generator moves it.
PAYLOAD_DIGEST = "18c8491019a0b4b7441936168c59327ba6953ec31610ab5fb0112b92cc85b338"
DOCS = Path(__file__).resolve().parent.parent


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_gen_is_byte_identical_for_same_seed():
    digest, payloads = hashlib.sha256(), hashlib.sha256()
    for tag in TAGS:
        for seed in range(5):
            for extra in ([], ["--t", "7"], ["--k", "2"], ["--circle", "9"]):
                code, out = run_cli(
                    ["gen", "--problem", tag, "--n", str(2 + seed), "--values", "30",
                     "--seed", str(seed), *extra]
                )
                assert code == 0
                digest.update(out.encode())
                payload = json.loads(out)["payload"]
                payloads.update(json.dumps(payload, sort_keys=True).encode())
    assert payloads.hexdigest() == PAYLOAD_DIGEST
    assert digest.hexdigest() == GEN_DIGEST


@pytest.mark.parametrize("tag", TAGS)
def test_gen_rejects_sizes_below_one(tag):
    for n in (0, -3):
        for seed in range(10):
            code, out = run_cli(["gen", "--problem", tag, "--n", str(n), "--seed", str(seed)])
            assert (code, out) == (1, "")


def test_gen_single_element_superadd():
    code, out = run_cli(["gen", "--problem", "superadd", "--n", "1", "--seed", "3"])
    assert code == 0
    doc = parse_instance(out)
    assert len(doc["payload"]["a"]) == 1


def test_gen_knapsack_weights_in_range():
    code, out = run_cli(
        ["gen", "--problem", "knapsack01", "--n", "5", "--t", "10", "--seed", "7"]
    )
    assert code == 0
    doc = parse_instance(out)
    items = doc["payload"]["items"]
    assert len(items) == 5
    assert all(1 <= w <= 10 for w, _ in items)


def test_gen_honours_zero_capacity():
    for tag in ("knapsack01", "uknapsack"):
        for seed in range(5):
            code, out = run_cli(
                ["gen", "--problem", tag, "--n", "3", "--t", "0", "--seed", str(seed)]
            )
            assert code == 0
            doc = parse_instance(out)
            assert doc["payload"]["capacity"] == 0
            assert doc["meta"]["generator"]["t"] == 0
            assert all(w == 1 for w, _ in doc["payload"]["items"])
    code, out = run_cli(["gen", "--problem", "knapsack01", "--n", "3", "--t", "-1"])
    assert (code, out) == (1, "")


def test_gen_circle_is_honoured_down_to_one():
    code, out = run_cli(["gen", "--problem", "necklace", "--n", "4", "--circle", "1"])
    assert code == 0
    payload = parse_instance(out)["payload"]
    assert payload["circle_length"] == 1
    assert all(0 <= p <= 1 for p in payload["x"] + payload["y"])
    for circle in ("0", "-2"):
        code, out = run_cli(["gen", "--problem", "necklace", "--n", "4", "--circle", circle])
        assert (code, out) == (1, "")


def test_serialize_round_trip_is_exact():
    payload = {"a": [3, -1, 2], "b": [0, 5, -2]}
    text = dump_instance("maxconv", payload, {"seed": 9})
    doc = parse_instance(text)
    assert doc["payload"] == payload
    assert dump_instance(doc["problem"], doc["payload"], doc["meta"]) == text


def test_parse_rejects_bad_documents():
    with pytest.raises(InstanceFormatError):
        parse_instance("not json")
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps({"problem": "maxconv"}))
    with pytest.raises(InstanceFormatError):
        parse_instance(
            json.dumps({"problem": "maxconv", "payload": {"a": [1], "b": [1.5]}})
        )
    with pytest.raises(InstanceFormatError):
        parse_instance(
            json.dumps({"problem": "upperbound", "payload": {"a": [1], "b": [1], "c": [1, 2]}})
        )


def _reference_array_check(key, val, minimum):
    """Integer array fields checked one element at a time: the reference
    for FIELDS' C-speed pass."""
    def is_int(v):
        return not isinstance(v, bool) and isinstance(v, int) and (minimum is None or v >= minimum)

    if not isinstance(val, list) or not val:
        raise InstanceFormatError(f"payload field {key!r} must be a non-empty array")
    if not all(is_int(v) for v in val):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InstanceFormatError(f"payload field {key!r} must hold integers{bound}")
    return val


class _Small(int):
    pass


ARRAY_FIELD_INPUTS = {
    "ints": [3, -1, 0],
    "one": [7],
    "minus one": [-1, 0, 4],
    "minus two": [0, -2],
    "big": [2**70, -(2**70)],
    "empty": [],
    "not a list": (1, 2),
    "dict": {"a": 1},
    "True": [True],
    "True after int": [1, True],
    "float": [1.5],
    "whole float": [2.0, 1],
    "str": ["3"],
    "None": [None],
    "nested": [[1]],
    "int subclass": [_Small(4), 1],
    "np.int64": [np.int64(3)],
    "np.bool_": [np.bool_(False)],
}


def _field_outcome(check, key, val):
    try:
        return "accepted", check(key, val)
    except InstanceFormatError as exc:
        return "rejected", str(exc)


@pytest.mark.parametrize("name", sorted(ARRAY_FIELD_INPUTS))
@pytest.mark.parametrize("key, minimum", [("a", None), ("parent", -1)])
def test_array_field_check_matches_the_reference_loop(key, minimum, name):
    val = ARRAY_FIELD_INPUTS[name]
    want = _field_outcome(lambda k, v: _reference_array_check(k, v, minimum), key, val)
    assert _field_outcome(FIELDS[key], key, val) == want


def test_solve_methods_agree(tmp_path):
    path = tmp_path / "inst.json"
    code, out = run_cli(
        ["gen", "--problem", "maxconv", "--n", "6", "--values", "9", "--seed", "5",
         "--out", str(path)]
    )
    assert code == 0
    answers = {}
    for method in ("naive", "python", "via-upperbound"):
        code, out = run_cli(
            ["solve", "--input", str(path), "--method", method, "--check"]
        )
        report = json.loads(out)
        assert code == 0
        assert report["oracle_agreement"] is True
        answers[method] = report["answer"]["sequence"]
    assert answers["naive"] == answers["python"] == answers["via-upperbound"]


def test_solve_superadd_routes(tmp_path):
    path = tmp_path / "sa.json"
    run_cli(["gen", "--problem", "superadd", "--n", "8", "--values", "6",
             "--seed", "11", "--out", str(path)])
    decisions = set()
    for method in ("direct", "via-uknapsack", "via-mcsp"):
        code, out = run_cli(["solve", "--input", str(path), "--method", method, "--check"])
        assert code == 0
        decisions.add(json.loads(out)["answer"]["decision"])
    assert len(decisions) == 1


def test_solve_rand_reports_agreement(tmp_path):
    path = tmp_path / "k.json"
    run_cli(["gen", "--problem", "knapsack01", "--n", "6", "--t", "12",
             "--seed", "2", "--out", str(path)])
    code, out = run_cli(
        ["solve", "--input", str(path), "--method", "rand",
         "--delta", "0.05", "--seed", "3", "--check"]
    )
    report = json.loads(out)
    assert code == 0  # soundness can never trip here
    assert report["oracle_agreement"] in (True, False)
    assert "wall_time_s" in report


def test_solve_exit_codes(tmp_path):
    code, _ = run_cli(["solve", "--input", str(tmp_path / "missing.json"), "--method", "naive"])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _ = run_cli(["solve", "--input", str(bad), "--method", "naive"])
    assert code == 1
    good = tmp_path / "good.json"
    good.write_text(dump_instance("mcsp", {"a": [1, 2]}))
    code, _ = run_cli(["solve", "--input", str(good), "--method", "no-such-method"])
    assert code == 1


def _without_wall_time(out):
    return re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": _', out)


def test_one_parser_serves_a_sequence_of_calls(tmp_path):
    # The parser is built once per process; calls after a bad argv must
    # still answer as a fresh process does.
    inst = tmp_path / "k.json"
    inst.write_text(dump_instance("knapsack01", {"items": [[1, 3], [2, 4], [3, 9]], "capacity": 5}))
    solve = ["solve", "--input", str(inst), "--method", "rand", "--seed", "3"]
    calls = [solve, ["gen", "--problem", "mcsp", "--n", "4", "--seed", "2"], ["solve"], solve]
    env = {**os.environ, "PYTHONPATH": str(DOCS / "src")}
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "maxconv.cli", *argv], capture_output=True, text=True, env=env
        )
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code == fresh.returncode, argv
        assert _without_wall_time(out.getvalue()) == _without_wall_time(fresh.stdout), argv
        assert err.getvalue() == fresh.stderr, argv
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert cli._build_parser() is cli._build_parser()


def test_crosscheck_upperbound_clean():
    code, out = run_cli(
        ["crosscheck", "--problem", "upperbound", "--trials", "40",
         "--n", "10", "--values", "12", "--seed", "5"]
    )
    assert code == 0
    summary = json.loads(out)
    for stats in summary["methods"].values():
        assert stats["disagreements"] == 0


def test_crosscheck_reports_rand_failure_rate():
    code, out = run_cli(
        ["crosscheck", "--problem", "knapsack01", "--trials", "25",
         "--n", "8", "--values", "10", "--seed", "6"]
    )
    assert code == 0
    summary = json.loads(out)
    rand = summary["methods"]["rand"]
    assert rand["soundness_violations"] == 0
    assert 0.0 <= rand["empirical_failure_rate"] <= 1.0


def test_bench_outputs_csv():
    code, out = run_cli(
        ["bench", "--problem", "maxconv", "--method", "naive",
         "--sizes", "8,16", "--seed", "1"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert any("platform" in ln for ln in header)
    assert rows[0] == "problem,method,size,median_seconds"
    assert len(rows) == 3
    for row in rows[1:]:
        problem, method, size, seconds = row.split(",")
        assert problem == "maxconv" and method == "naive"
        float(seconds)


def test_bench_rejects_unsorted_sizes():
    code, _ = run_cli(
        ["bench", "--problem", "maxconv", "--method", "naive", "--sizes", "16,8"]
    )
    assert code == 1


def test_uknapsack_unbounded_objective_is_an_input_error(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(dump_instance("uknapsack", {"items": [[0, 2]], "capacity": 3}))
    for method in METHODS["uknapsack"]:
        code, out = run_cli(["solve", "--input", str(path), "--method", method])
        assert (code, out) == (1, "")


def test_uknapsack_methods_agree_at_capacity_zero(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(dump_instance("uknapsack", {"items": [[1, 2]], "capacity": 0}))
    answers = {}
    for method in METHODS["uknapsack"]:
        code, out = run_cli(["solve", "--input", str(path), "--method", method, "--check"])
        report = json.loads(out)
        assert (code, report["oracle_agreement"]) == (0, True)
        answers[method] = report["answer"]
    assert answers["via-01"] == answers["dp"] == {"profile": [0], "value_at_capacity": 0}


def test_docs_list_the_registered_problems_and_methods():
    fmt = (DOCS / "docs" / "format.md").read_text()
    table = re.findall(r"^\| `([^`]+)` +\|", fmt, re.M)
    assert sorted(table) == sorted(PROBLEMS)
    readme = (DOCS / "README.md").read_text()
    start = readme.index("Methods per problem (first is the reference):")
    listing = " ".join(readme[start : readme.index("\n\n", start)].split())
    documented = {
        problem: re.findall(r"`([^`]+)`", methods)
        for problem, methods in re.findall(r"`([^`]+)`: ((?:`[^`]+`(?:, )?)+)", listing)
    }
    assert documented == {p: list(m) for p, m in METHODS.items()}
    assert list(documented) == list(METHODS)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # Every `maxconv ...` line of README's CLI block, in order, exits 0.
    readme = (DOCS / "README.md").read_text()
    start = readme.index("```sh", readme.index("## CLI"))
    block = readme[start : readme.index("```", start + 3)]
    lines = [line for line in block.splitlines() if line.startswith("maxconv ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run_cli(shlex.split(line)[1:])[0] == 0, line


def test_maxconv_methods_are_the_registered_kernels(monkeypatch):
    # One method per KERNELS entry, in its order, then the oracle route.
    # Each looks its kernel up by name when it runs, so a wrapped entry
    # is the one that computes the answer.
    assert list(METHODS["maxconv"]) == [*KERNELS, "via-upperbound"]
    objs = (Sequence([1, 5, 2]), Sequence([0, 3, 1]))
    for name, kernel in list(KERNELS.items()):
        calls = []
        monkeypatch.setitem(KERNELS, name, lambda *args, k=kernel: calls.append(1) or k(*args))
        answer = METHODS["maxconv"][name](objs, {})
        assert (answer, calls) == ({"sequence": [1, 5, 8]}, [1]), name


def test_gen_records_only_the_options_its_generator_reads():
    for tag in TAGS:
        code, out = run_cli(
            ["gen", "--problem", tag, "--n", "3", "--t", "7", "--k", "2", "--circle", "9"]
        )
        assert code == 0
        assert sorted(parse_instance(out)["meta"]["generator"]) == sorted(PROBLEMS[tag].options)
    code, out = run_cli(["gen", "--problem", "mcsp", "--n", "2", "--circle", "0", "--t", "-5"])
    assert code == 0
    assert parse_instance(out)["meta"]["generator"] == {"n": 2, "values": 100}


def test_every_route_is_exact_past_the_word_seed7001():
    # Values at 2^62 and past 2^63 make the reductions grow far beyond the
    # 64-bit word; every deterministic route still gives the reference answer
    # and the randomised one never exceeds it.
    rng = random.Random(7001)
    for problem, methods in METHODS.items():
        reference = methods[cli.REFERENCE[problem]]
        for values in (2**62, 2**63 + 7, 2**70):
            for _ in range(12):
                opts = {"n": rng.randint(1, 7), "values": values}
                payload = validate_payload(problem, gen_payload(problem, rng, opts))
                objs = payload_objects(problem, payload)
                run_opts = {"delta": 0.25, "seed": 0}
                ref = reference(objs, run_opts)
                for name, solve in methods.items():
                    got = cli._compare(problem, name, solve(objs, run_opts), ref)
                    if (problem, name) in cli.RANDOMIZED:
                        assert got[1] is False, (problem, name, values, payload)
                    else:
                        assert got == (True, False), (problem, name, values, payload)
