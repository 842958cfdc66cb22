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

from maxconv import KERNELS, Sequence, cli, core
from maxconv.cli import METHODS, main
from maxconv.serialize import (
    PROBLEMS,
    InstanceFormatError,
    dump_instance,
    gen_payload,
    parse_instance,
    payload_objects,
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
    for text in (
        "not json",
        json.dumps({"problem": "maxconv"}),
        json.dumps(["maxconv", {}]),
        json.dumps({"problem": "no-such-problem", "payload": {}}),
        json.dumps({"problem": "maxconv", "payload": [1]}),
        json.dumps({"problem": "maxconv", "payload": {}, "meta": []}),
    ):
        with pytest.raises(InstanceFormatError):
            parse_instance(text)
    # Fields are checked when the solver objects are built, not by the parse.
    for problem, payload in (
        ("maxconv", {"a": [1], "b": [1.5]}),
        ("upperbound", {"a": [1], "b": [1], "c": [1, 2]}),
        ("maxconv", {"a": [1]}),
    ):
        doc = parse_instance(json.dumps({"problem": problem, "payload": payload}))
        with pytest.raises(InstanceFormatError):
            payload_objects(doc["problem"], doc["payload"])


def test_payload_objects_applies_the_cross_field_rules(tmp_path):
    # The rules that join two fields, equal operand lengths and 0 <= k <= n,
    # hold for payload_objects itself, not only for files.
    bad = [
        ("treesparsity", "via-maxconv", {"parent": [-1, 0], "weight": [1, 2], "k": -1}),
        ("treesparsity", "via-maxconv", {"parent": [-1, 0], "weight": [1, 2], "k": 3}),
        ("maxconv", "naive", {"a": [1, 2, 3], "b": [5]}),
    ]
    path = tmp_path / "bad.json"
    for problem, method, payload in bad:
        with pytest.raises(InstanceFormatError):
            payload_objects(problem, payload)
        path.write_text(json.dumps({"problem": problem, "payload": payload}))
        assert run_cli(["solve", "--input", str(path), "--method", method]) == (1, "")
    # Values the solver objects take but JSON cannot write.
    with pytest.raises(InstanceFormatError):
        dump_instance("maxconv", {"a": [np.int64(1)], "b": [1]})
    with pytest.raises(InstanceFormatError):
        dump_instance("maxconv", {"a": [1], "b": [1]}, {"seed": np.int64(0)})


# Field values tried in an otherwise valid instance file.  ACCEPTED names,
# per field, the rows that `solve` answers; every other row must exit 1.
ARRAY_FIELD_INPUTS = {
    "ints": [3, -1, 0],
    "one": [7],
    "minus one": [-1, 0, 4],
    "minus two": [0, -2],
    "big": [2**70, -(2**70)],
    "tree": [-1, 0, 1],
    "sorted": [0, 2, 2],
    "empty": [],
    "dict": {"a": 1},
    "True": [True],
    "True after int": [1, True],
    "float": [1.5],
    "whole float": [2.0, 1],
    "str": ["3"],
    "None": [None],
    "nested": [[1]],
    "number": 5,
    "string": "12",
    "empty string": "",
    "empty object": {},
    "null": None,
}
SCALAR_FIELD_INPUTS = {
    "zero": 0,
    "one": 1,
    "seven": 7,
    "minus one": -1,
    "float": 1.5,
    "whole float": 2.0,
    "True": True,
    "False": False,
    "str": "3",
    "None": None,
    "list": [1],
    "empty object": {},
}
ITEMS_INPUTS = {
    "pairs": [[1, 2], [3, 4]],
    "no items": [],
    "heavy": [[5, 1]],
    "triple": [[1, 2], [1, 2, 3]],
    "number entry": [[1, 2], 5],
    "negative": [[1, -2]],
    "float": [[1.5, 2]],
    "True": [[True, 2]],
    "str weight": [["1", 2]],
    "two-char string": ["12"],
    "object entry": [{"w": 1, "v": 2}],
    "empty string": "",
    "empty object": {},
    "null": None,
    "number": 5,
}
ACCEPTED = {
    "a": {"ints", "one", "minus one", "minus two", "big", "tree", "sorted"},
    "parent": {"tree"},
    "weight": {"one", "sorted"},
    "x": {"one", "sorted"},
    "capacity": {"zero", "one", "seven"},
    "k": {"zero", "one"},
    "circle_length": {"one", "seven"},
    "items": {"pairs", "no items", "heavy"},
}


def _instance_with(key, val):
    """(problem, reference method, payload) with ``val`` in field ``key`` and
    every other field valid, sized to match ``val`` where it is a list or
    tuple."""
    m = len(val) if isinstance(val, (list, tuple)) else 1
    return {
        "a": lambda: ("superadd", "direct", {"a": val}),
        "parent": lambda: ("treesparsity", "dp", {"parent": val, "weight": [1] * m, "k": 0}),
        "weight": lambda: (
            "treesparsity", "dp", {"parent": [-1] + [0] * (m - 1), "weight": val, "k": 0}
        ),
        "x": lambda: ("necklace", "brute", {"x": val, "y": [0] * m, "circle_length": 2**80}),
        "capacity": lambda: ("knapsack01", "dp", {"items": [[1, 2], [3, 4]], "capacity": val}),
        "k": lambda: ("treesparsity", "dp", {"parent": [-1, 0], "weight": [1, 2], "k": val}),
        "circle_length": lambda: (
            "necklace", "brute", {"x": [0, 1], "y": [1, 1], "circle_length": val}
        ),
        "items": lambda: ("knapsack01", "dp", {"items": val, "capacity": 4}),
    }[key]()


FIELD_INPUTS = {
    **dict.fromkeys(("a", "parent", "weight", "x"), ARRAY_FIELD_INPUTS),
    **dict.fromkeys(("capacity", "k", "circle_length"), SCALAR_FIELD_INPUTS),
    "items": ITEMS_INPUTS,
}
FIELD_CASES = [(key, name) for key, table in FIELD_INPUTS.items() for name in table]
# How a refusal names each field: by its key when it holds no array, else by
# the word its solver object uses for it.
FIELD_WORDS = {
    "a": "sequence",
    "parent": "parent",
    "weight": "weight",
    "x": "bead",
    "capacity": "capacity",
    "k": "k must",
    "circle_length": "circle length",
    "items": "item",
}


@pytest.mark.parametrize(
    "key, name", FIELD_CASES, ids=[f"{key}-{name}" for key, name in FIELD_CASES]
)
def test_payload_field_verdicts(key, name, tmp_path):
    problem, method, payload = _instance_with(key, FIELD_INPUTS[key][name])
    accepted = name in ACCEPTED[key]
    if accepted:
        payload_objects(problem, payload)
    else:
        with pytest.raises(InstanceFormatError):
            payload_objects(problem, payload)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"problem": problem, "payload": payload}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", "--input", str(path), "--method", method])
    if accepted:
        assert (code, err.getvalue()) == (0, "")
    else:
        assert (code, out.getvalue()) == (1, "")
        msg = err.getvalue()
        assert msg.startswith("error: ") and msg.count("\n") == 1
        assert f"field {key!r}" in msg or FIELD_WORDS[key] in msg, msg



class _Small(int):
    pass


# Array values a Python caller can pass but no JSON file can hold.
PYTHON_ARRAY_INPUTS = {
    "not a list": (1, 2),
    "int subclass": [_Small(4), 1],
    "np.int64": [np.int64(3)],
    "np.bool_": [np.bool_(False)],
}
ALL_ARRAY_INPUTS = {**ARRAY_FIELD_INPUTS, **PYTHON_ARRAY_INPUTS}


def _reference_array_check(val, minimum):
    """An integer array field checked one element at a time: the reference
    for the C-speed pass in ``Sequence`` and the link check in
    ``WeightedTree``.  Any non-empty iterable of ints and numpy integers (no
    bools) at or above ``minimum`` passes, as a list of Python ints."""
    try:
        vals = list(val)
    except TypeError:
        return "rejected"
    if not vals or not all(
        not isinstance(v, bool)
        and isinstance(v, (int, np.integer))
        and (minimum is None or v >= minimum)
        for v in vals
    ):
        return "rejected"
    return [int(v) for v in vals]


def _is_tree(parent):
    """One root (-1), and every node reaches it within n steps."""
    n = len(parent)
    if parent.count(-1) != 1 or not all(-1 <= p < n for p in parent):
        return False
    for node in range(n):
        for _ in range(n):
            if node == -1:
                break
            node = parent[node]
        if node != -1:
            return False
    return True


@pytest.mark.parametrize("name", sorted(ALL_ARRAY_INPUTS))
@pytest.mark.parametrize("key, minimum", [("a", None), ("parent", -1)])
def test_array_field_check_matches_the_reference_loop(key, minimum, name):
    val = ALL_ARRAY_INPUTS[name]
    want = _reference_array_check(val, minimum)
    if key == "parent" and want != "rejected" and not _is_tree(want):
        want = "rejected"
    problem, _, payload = _instance_with(key, val)
    try:
        built = payload_objects(problem, payload)[0]
    except InstanceFormatError:
        got = "rejected"
    else:
        got = list(built.values if key == "a" else built.parent)
        assert {type(v) for v in got} == {int}
    assert got == want


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


def _first_violated_pair(a, b, c):
    for k in range(len(a)):
        for i in range(k + 1):
            if a[i] + b[k - i] > c[k]:
                return [i, k - i]
    return None


def _first_uncovered_index(a, b, c):
    for k in range(len(a)):
        if all(a[i] + b[k - i] < c[k] for i in range(k + 1)):
            return k
    return None


def test_solve_reports_the_first_violating_witness_seed7004(tmp_path):
    # The witness of a NO answer: the violating pair with the smallest i + j,
    # then the smallest i, or the smallest index k no sum reaches.
    rng = random.Random(7004)
    path = tmp_path / "inst.json"
    for problem in ("upperbound", "lowerbound", "superadd"):
        nos = 0
        for _ in range(200):
            payload = gen_payload(problem, rng, {"n": rng.randint(1, 12), "values": 20})
            path.write_text(dump_instance(problem, payload))
            code, out = run_cli(["solve", "--input", str(path), "--method", "direct"])
            assert code == 0
            answer = json.loads(out)["answer"]
            a = payload["a"]
            b, c = (a, a) if problem == "superadd" else (payload["b"], payload["c"])
            scan = _first_uncovered_index if problem == "lowerbound" else _first_violated_pair
            want = scan(a, b, c)
            assert answer == {"decision": want is None, "witness": want}
            nos += want is not None
        assert nos >= 50


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


def test_solve_rand_counts_zero_weights_at_capacity_zero(tmp_path):
    # `gen` draws weights from 1..max(1, t), so no crosscheck reaches this.
    path = tmp_path / "free.json"
    path.write_text(
        dump_instance("knapsack01", {"items": [[0, 5], [0, 3], [1, 2]], "capacity": 0})
    )
    for seed in range(5):
        code, out = run_cli(
            ["solve", "--input", str(path), "--method", "rand", "--seed", str(seed), "--check"]
        )
        report = json.loads(out)
        assert (code, report["oracle_agreement"]) == (0, True)
        assert report["answer"]["value_at_capacity"] == 8


def _solve(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", *args])
    return code, out.getvalue(), err.getvalue()


def test_solve_rand_takes_a_subnormal_delta(tmp_path):
    path = tmp_path / "k.json"
    run_cli(["gen", "--problem", "knapsack01", "--n", "6", "--t", "12",
             "--seed", "2", "--out", str(path)])
    # 1 / delta overflows to inf for these; the trial counts use -log(delta).
    for delta in ("1e-308", "1e-310"):
        code, out, err = _solve(["--input", str(path), "--method", "rand",
                                 "--delta", delta, "--check"])
        assert (code, err) == (0, "")
        assert json.loads(out)["oracle_agreement"] is True
    # The least subnormal lies in (0, 1/4], but split over the layers it is 0.
    code, out, err = _solve(["--input", str(path), "--method", "rand", "--delta", "5e-324"])
    assert (code, out) == (1, "")
    assert err.startswith("error: delta 5e-324 is too small") and err.count("\n") == 1


def test_solve_capacity_past_the_index_range_is_an_input_error(tmp_path):
    # Both methods build a list of capacity + 1 entries, which raises
    # OverflowError past the index range; main reports it as an input error.
    path = tmp_path / "huge.json"
    payload = {"items": [[1, 2]], "capacity": 10**20}
    path.write_text(json.dumps({"problem": "knapsack01", "payload": payload}))
    for method in ("dp", "rand"):
        code, out, err = _solve(["--input", str(path), "--method", method])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "problem, method",
    [("knapsack01", "dp"), ("knapsack01", "rand"), ("uknapsack", "dp"), ("uknapsack", "via-01")],
)
def test_solve_capacity_past_memory_is_an_input_error(tmp_path, problem, method):
    # 10**15 + 1 entries of 8 bytes are more memory than any host has, so
    # the allocation fails at once: MemoryError, which main reports as an
    # input error.
    path = tmp_path / "huge.json"
    payload = {"items": [[1, 2]], "capacity": 10**15}
    path.write_text(json.dumps({"problem": problem, "payload": payload}))
    code, out, err = _solve(["--input", str(path), "--method", method])
    assert (code, out) == (1, "")
    assert err == "error: memory ran out: the instance is too large to solve\n"


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("field", ["payload", "meta"])
def test_solve_deeply_nested_json_is_an_input_error(tmp_path, field, depth):
    # Past about 1,000 levels the JSON decoder raises RecursionError.
    parts = {"payload": '{"a": [1], "b": [2]}', "meta": "{}", field: "[" * depth + "]" * depth}
    path = tmp_path / "deep.json"
    path.write_text('{{"problem": "maxconv", "payload": {payload}, "meta": {meta}}}'.format(**parts))
    code, out, err = _solve(["--input", str(path), "--method", "naive"])
    assert (code, out) == (1, "")
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_solve_reports_an_answer_past_the_digit_limit(tmp_path):
    # Each operand is one 4,300-digit value, which parses within the
    # interpreter's int-to-str limit; the answer a + b has 4,301 digits.
    digits = sys.get_int_max_str_digits()
    a = 10**4300 - 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"problem": "maxconv", "payload": {"a": [a], "b": [a]}}))
    for method in ("naive", "via-upperbound"):
        code, out, err = _solve(["--input", str(path), "--method", method])
        assert (code, err) == (0, "")
        # parse_int=str: reading the answer back as an int would pass the limit.
        answer = json.loads(out, parse_int=str)["answer"]["sequence"]
        assert answer == ["1" + "9" * 4299 + "8"]  # 2 * (10^4300 - 1)
        assert sys.get_int_max_str_digits() == digits


def test_solve_refuses_an_integer_past_the_digit_limit(tmp_path):
    # One digit past the interpreter's int-to-str limit (4,300 digits by
    # default; the test above solves a literal at it) is an input error
    # that states the limit.
    path = tmp_path / "long.json"
    path.write_text('{"problem": "maxconv", "payload": {"a": [%s], "b": [0]}}' % ("9" * 4301))
    code, out, err = _solve(["--input", str(path), "--method", "naive"])
    assert (code, out) == (1, "")
    assert err == "error: integers may have at most 4300 digits\n"


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
    # still answer as a fresh process does.  Usage errors exit 1, like
    # every other input error, and name the flag at fault; 2 is kept for
    # a disagreement.
    inst = tmp_path / "k.json"
    inst.write_text(dump_instance("knapsack01", {"items": [[1, 3], [2, 4], [3, 9]], "capacity": 5}))
    solve = ["solve", "--input", str(inst), "--method", "rand", "--seed", "3"]
    cross = ["crosscheck", "--problem", "mcsp", "--seed", "1"]
    gen = ["gen", "--problem", "mcsp", "--n", "4", "--seed", "2"]
    calls = [
        (solve, 0, ""),
        (gen, 0, ""),
        (["solve"], 1, "required: --input, --method"),
        (solve, 0, ""),
        (["solve", "--input", str(inst)], 1, "required: --method"),
        (["crosscheck", "--problem", "nosuch"], 1, "argument --problem: invalid choice"),
        ([*cross, "--n", "abc"], 1, "argument --n: invalid int value: 'abc'"),
        ([*cross, "--trials", "-1"], 1, "argument --trials: must be at least 1, got -1"),
        ([*cross, "--n", "0"], 1, "argument --n: must be at least 1, got 0"),
        ([*gen, "--values", "-5"], 1, "argument --values: must be at least 0, got -5"),
        ([*gen, "--values", "0"], 0, ""),
        (solve, 0, ""),
    ]
    env = {**os.environ, "PYTHONPATH": str(DOCS / "src")}
    for argv, want, message in calls:
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
        assert code == want, argv
        assert message in err.getvalue(), argv
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
    # Every refusal is a usage error naming --sizes, made before the CSV
    # header is printed.
    for sizes in ("16,8", "0", "4,a", "-2,4", ""):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["bench", "--problem", "maxconv", "--method", "naive", f"--sizes={sizes}"])
        assert (exc.value.code, out.getvalue()) == (1, ""), sizes
        assert "argument --sizes: must be a comma-separated ascending list" in err.getvalue(), sizes


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
                payload = gen_payload(problem, rng, opts)
                objs = payload_objects(problem, payload)
                run_opts = {"delta": 0.25, "seed": 0}
                ref = reference(objs, run_opts)
                for name, solve in methods.items():
                    got = cli._compare(problem, name, solve(objs, run_opts), ref)
                    if (problem, name) in cli.RANDOMIZED:
                        assert got[1] is False, (problem, name, values, payload)
                    else:
                        assert got == (True, False), (problem, name, values, payload)


def test_knapsack_methods_on_zero_weight_and_heavy_items_seed7003():
    # gen draws every weight from 1..max(1, t), so it builds no zero-weight
    # item and none heavier than t.  About 30% of these items weigh 0 (value
    # 0 on uknapsack, which refuses a zero-weight item of positive value)
    # and at least 20% are heavier than t (at t = 0, all the others).
    rng = random.Random(7003)
    for problem in ("knapsack01", "uknapsack"):
        methods = METHODS[problem]
        reference = methods[cli.REFERENCE[problem]]
        for _ in range(300):
            t = rng.choice([0, 1, 2, 3, 5, 9, 20])
            items = []
            for _ in range(rng.randint(0, 7)):
                kind = rng.random()
                if kind < 0.3:
                    w = 0
                elif kind < 0.5 or t == 0:
                    w = rng.randint(t + 1, t + 10)
                else:
                    w = rng.randint(1, t)
                v = 0 if w == 0 and problem == "uknapsack" else rng.randint(0, 50)
                items.append([w, v])
            payload = {"items": items, "capacity": t}
            objs = payload_objects(problem, payload)
            for seed in range(3):
                run_opts = {"delta": 0.05, "seed": seed}
                ref = reference(objs, run_opts)
                for name, solve in methods.items():
                    got = cli._compare(problem, name, solve(objs, run_opts), ref)
                    if (problem, name) in cli.RANDOMIZED:
                        assert got[1] is False, (problem, name, seed, payload)
                    else:
                        assert got == (True, False), (problem, name, seed, payload)


def test_methods_take_payload_objects_as_built_seed7002(monkeypatch):
    # Building the objects is the payload's one check: no method but
    # maxconv/via-upperbound (whose detect_single re-checks its windows)
    # runs the integer-list check on a payload field again.
    scanned = []
    check = core._int_values

    def recorded_check(values):
        if isinstance(values, (list, tuple)):
            scanned.append(list(values))
        return check(values)

    rng = random.Random(7002)
    for problem, methods in METHODS.items():
        for name, solve in methods.items():
            if (problem, name) == ("maxconv", "via-upperbound"):
                continue
            for _ in range(5):
                payload = gen_payload(problem, rng, {"n": 6, "values": 100})
                objs = payload_objects(problem, payload)
                fields = [list(v) for v in payload.values() if isinstance(v, (list, tuple))]
                scanned.clear()
                with monkeypatch.context() as m:
                    m.setattr(core, "_int_values", recorded_check)
                    solve(objs, {"delta": 0.25, "seed": 0})
                assert not [v for v in scanned if v in fields], (problem, name, payload)
