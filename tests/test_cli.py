"""Command-line frontend: documents, exit codes, cache, determinism."""

import argparse
import contextlib
import dataclasses
import enum
import functools
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from typing import Any, NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from kisinweights import cli
from kisinweights.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    dumps,
    jsonable,
    main,
)
from kisinweights.field import Context
from kisinweights.matching import forward_sets
from kisinweights.rankone import embedding_subsets
from kisinweights.weights import Weight, validate_irregular
from oracles import congruence_doc, decode_int


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_jsonable_round_trip_big_ints():
    values = [0, -5, 2**53 - 1, 2**53, 2**80, -(2**64), 3**40 - 1]
    encoded = jsonable(values)
    assert encoded[2] == 2**53 - 1  # still a plain int
    assert isinstance(encoded[3], str) and isinstance(encoded[4], str)
    decoded = [decode_int(v) for v in json.loads(json.dumps(encoded))]
    assert decoded == values


def test_jsonable_containers():
    doc = jsonable({"b": frozenset({3, 1}), "a": (1, 2)})
    assert doc == {"a": [1, 2], "b": [1, 3]}


def test_shift_worked_example(capsys):
    code, out = run(capsys, "shift", "--p", "7", "--f", "4", "--k", "1,5,1,4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kprime"]["k"] == [8, 4, 8, 3]
    assert doc["ktheta"]["k"] == [8, 6, 8, 5]
    assert doc["kmu"]["1"]["l"] == [0, -1, 0, 0]


def test_shift_refusals(capsys):
    code, out = run(capsys, "shift", "--p", "7", "--f", "2", "--k", "1,1")
    assert code == EXIT_USAGE and "excluded" in json.loads(out)["reason"]
    code, out = run(capsys, "shift", "--p", "7", "--f", "4", "--k", "1,2,1,4")
    assert code == EXIT_USAGE
    code, out = run(capsys, "shift", "--p", "7", "--f", "4", "--k", "1,2,1,4", "--allow-alt")
    assert code == EXIT_OK
    assert json.loads(out)["ktheta_alt"]["k"] == [8, 3, 8, 5]


@pytest.mark.parametrize("alt", [[], ["--allow-alt"]], ids=["plain", "allow-alt"])
@pytest.mark.parametrize("p,k", [("3", "9,-4"), ("5", "1,6"), ("3", "0,1")])
def test_shift_refuses_out_of_range_entries(capsys, p, k, alt):
    code, out = run(capsys, "shift", "--p", p, "--f", "2", "--k", k, *alt)
    assert code == EXIT_USAGE
    doc = json.loads(out)
    assert doc["valid"] is False and doc["reason"] == f"entries of k must lie in [1, {p}]"
    assert "ktheta_alt" not in doc


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["--p", "4", "--f", "2", "--k", "1,3"], "p must be an odd prime, got 4"),
        (["--p", "9", "--f", "2", "--k", "1,3"], "p must be an odd prime, got 9"),
        (["--p", "2", "--f", "2", "--k", "1,2"], "p must be an odd prime, got 2"),
    ],
)
def test_shift_refuses_bad_context(capsys, argv, reason):
    code, out = run(capsys, "shift", *argv)
    assert code == EXIT_USAGE
    assert json.loads(out) == {"error": "invalid", "reason": reason}


def test_verify_refuses_bad_degree(capsys):
    code, out = run(capsys, "verify", "--suite", "lemma71", "--p", "3", "--f", "2", "--d", "0")
    assert code == EXIT_USAGE
    assert json.loads(out) == {"error": "invalid", "reason": "d must be >= 1, got 0"}


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "--p", "5", "--f", "2", "--k", "1,3"],
        ["match", "--p", "5", "--f", "2", "--k", "1,3", "--j", "0"],
        ["enumerate", "--p", "5", "--f", "2"],
    ],
    ids=["shift", "match", "enumerate"],
)
def test_only_verify_takes_a_degree(capsys, argv):
    """--d changes only the answers of verify; the other subcommands refuse it."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--d", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE and "unrecognized arguments: --d 2" in err


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["--j", "7"], "--j indices must lie in [0, 2], got 7"),
        (["--j", "0,-1"], "--j indices must lie in [0, 2], got -1"),
        (["--jprime", "0,3", "--jtheta", "0"], "--jprime indices must lie in [0, 2], got 3"),
        (["--jprime", "0", "--jtheta", "-2"], "--jtheta indices must lie in [0, 2], got -2"),
        (["--jprime", "0", "--jmu", "1:0,4"], "--jmu indices must lie in [0, 2], got 4"),
        (["--jprime", "0", "--jmu", "3:0"], "--jmu indices must lie in [0, 2], got 3"),
        (["--jprime", "0", "--jmu", "1:0", "--jmu", "1:2"], "--jmu gives marked index 1 twice"),
        (["--j", "0", "--jtheta", "1"], "--jtheta and --jmu belong to the backward direction, not --j"),
        (["--j", "0", "--jmu", "1:0"], "--jtheta and --jmu belong to the backward direction, not --j"),
    ],
    ids=[
        "j", "j-negative", "jprime", "jtheta", "jmu-index", "jmu-key", "jmu-repeated",
        "j-with-jtheta", "j-with-jmu",
    ],
)
def test_match_refuses_out_of_range_indices(capsys, argv, reason):
    code, out = run(capsys, "match", "--p", "5", "--f", "3", "--k", "1,3,4", *argv)
    assert code == EXIT_USAGE
    assert json.loads(out) == {"error": "invalid", "reason": reason}


def test_match_forward_and_backward(capsys):
    code, out = run(capsys, "match", "--p", "3", "--f", "2", "--k", "3,1", "--j", "0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["Jprime"] == [0, 1] and doc["Jtheta"] == [0]
    assert all(v["upper"] and v["lower"] for v in doc["congruences"].values())
    code, out = run(
        capsys, "match", "--p", "3", "--f", "2", "--k", "3,1",
        "--jprime", "0,1", "--jtheta", "0",
    )
    assert code == EXIT_OK and json.loads(out)["J"] == [0]


@pytest.mark.parametrize("p,f", [(3, 2), (3, 3), (5, 2)])
def test_match_congruences_agree_with_the_split_oracle(capsys, p, f):
    ctx = Context(p, f, 1)
    checked = 0
    for k in itertools.product(range(1, p + 1), repeat=f):
        w = Weight(p, k)
        try:
            validate_irregular(w)
        except ValueError:
            continue
        for J in itertools.chain.from_iterable(itertools.combinations(range(f), n) for n in range(f + 1)):
            argv = ["--p", str(p), "--f", str(f), "--k", ",".join(map(str, k)), "--j", ",".join(map(str, J))]
            code, out = run(capsys, "match", *argv)
            assert code == EXIT_OK, (k, J)
            doc = json.loads(out)
            carriers = [doc["Jprime"], *(doc["Jmu"][mu] for mu in sorted(doc["Jmu"], key=int)), doc["Jtheta"]]
            assert doc["congruences"] == congruence_doc(ctx, w, J, carriers), (k, J)
            checked += 1
    assert checked > 0


def test_match_dichotomy_exit_code(capsys):
    code, out = run(
        capsys, "match", "--p", "3", "--f", "2", "--k", "3,1",
        "--jprime", "0,1", "--jtheta", "1",
    )
    assert code == EXIT_FAIL and json.loads(out)["error"] == "dichotomy"


def test_parser_tree_built_once_per_process(monkeypatch, capsys):
    """A well-formed request builds no argparse parser; the first request that
    needs one builds the tree of 5 (the root and one per subcommand), once."""
    cli._parser_tree.cache_clear()
    inits = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        inits.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for _ in range(10):
        run(capsys, "shift", "--p", "3", "--f", "2", "--k", "3,1")
        run(capsys, "match", "--p", "3", "--f", "2", "--k", "3,1", "--j", "0")
        run(capsys, "verify", "--suite", "lemma71", "--p", "3", "--f", "2")
    assert inits == []
    for _ in range(3):
        assert run(capsys, "verify", "--su", "lemma71", "--p", "3", "--f", "2")[0] == EXIT_OK
    assert len(inits) == 5
    assert cli.build_parser()._actions is cli.build_parser()._actions


def test_rebinding_on_the_returned_parser_stays_with_that_call(capsys):
    parser = cli.build_parser()
    parser.parse_args = None
    assert cli.build_parser().parse_args is not None
    code, _ = run(capsys, "shift", "--p", "3", "--f", "2", "--k", "3,1")
    assert code == EXIT_OK


BACKWARD = ["match", "--p", "3", "--f", "2", "--k", "3,1", "--jprime", "0,1"]


def test_jmu_does_not_leak_into_the_next_request(capsys):
    code, out = run(capsys, *BACKWARD, "--jmu", "0:0")
    assert code == EXIT_OK and json.loads(out)["J"] == [0]
    code, out = run(capsys, *BACKWARD, "--jtheta", "0")
    assert code == EXIT_OK and json.loads(out)["J"] == [0]
    code, out = run(capsys, *BACKWARD)
    assert code == EXIT_USAGE and "needs --jtheta or --jmu" in json.loads(out)["reason"]


def test_usage_error_leaves_the_parser_as_fresh(capsys):
    request = ["match", "--p", "3", "--f", "2", "--k", "3,1", "--jprime", "0,1", "--jtheta", "0"]
    cli._parser_tree.cache_clear()
    fresh = run(capsys, *request)
    for bad in (["match", "--p", "3"], ["verify", "--suite", "bogus", "--p", "3", "--f", "2"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage: kisinweights")
    assert run(capsys, *request) == fresh


PARSE_CORPUS = [
    ["shift", "--p", "5", "--f", "2", "--k", "1,3"],
    ["match", "--p", "5", "--f", "2", "--k", "1,3", "--j", "0"],
    ["verify", "--suite", "lemma71", "--p", "3", "--f", "2"],
    ["enumerate", "--p", "3", "--f", "2"],
    [],
    ["-h"],
    ["shift", "-h"],
    ["nope"],
    ["shift", "--p", "5", "--f", "2", "--k", "1,3", "--bogus"],
    ["verify", "--su", "lemma71", "--p", "3", "--f", "2"],
    ["shift", "--p", "five", "--f", "2", "--k", "1,3"],
    ["verify", "--suite", "bogus", "--p", "3", "--f", "2"],
    ["shift", "--p", "5", "--f", "2", "--k", "1,3", "stray"],
    ["shift", "--p", "5", "--f", "3", "--k", "1,3"],
    ["match", "--p", "3"],
    ["--", "shift", "--p", "5", "--f", "2", "--k", "1,3"],
    ["shift", "--p", "5", "--f", "2", "--", "--k", "1,3"],
    ["shift", "--p=5", "--f", "2", "--k", "1,3"],
    ["enumerate", "--p", "3", "--f", "2", "--shard", "5/2"],
    ["shift", "--p", "-5", "--f", "2", "--k", "1,3"],
    ["enumerate", "--p", "3", "--f", "2", "--shard", "-1/2"],
    ["verify", "--suite", "transport", "--p", "3", "--f", "2", "--k", "-1,3"],
    ["match", "--p", "3", "--f", "2", "--k", "3,1", "--jprime", "0,1", "--jmu", "0:0", "--jmu", "0:1"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_subparser_route_answers_as_the_root_parser(monkeypatch, capsys, argv):
    """main reads a well-formed request off cli.OPTIONS and hands the rest to
    argparse; argparse alone, build_parser().parse_args(argv), is the oracle:
    the same exit code, stdout and stderr for every request, valid or not."""

    def answer():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, re.sub(r'"wall_time_ms": \d+', "", out), err

    direct = answer()
    cli._parser_tree()  # built from the table before it is emptied
    monkeypatch.setattr(cli, "OPTIONS", {})  # no direct route: argparse reads every argv
    assert answer() == direct


# any option's values: good, bad, empty and negative ones
TABLE_VALUES = ["3", "1,3", "0", "", " 7", "1,,3", "x", "-1", "-5,3", "5/2", "2/0", "bogus", "0:0,1"]
# values each converter takes
GOOD_VALUES = {int: ["3", "5", "0", " 7"], cli._csv_ints: ["1,3", "3,1", "0", "", " 1, 3"], cli._parse_shard: ["0/2", "1/2"]}


def option_tokens(opt):
    """The option's exact flag and, unless it is a switch, a value it mostly takes."""
    if opt.action == "store_true":
        return st.just([opt.flag])
    good = list(opt.choices or GOOD_VALUES.get(opt.convert, ["out.json", "0:0,1"]))
    return st.tuples(st.just(opt.flag), st.sampled_from(good * 8 + TABLE_VALUES)).map(list)


@st.composite
def table_argv(draw):
    """A subcommand (or not) and tokens drawn from its options in cli.OPTIONS:
    mostly exact flags with values, most often the required ones first, and
    now and then a prefix, ``--opt=value``, a repeat, a lone flag, ``-h``,
    ``--`` or a stray token."""
    name = draw(st.sampled_from([*cli.OPTIONS, "nope"]))
    options = cli.OPTIONS.get(name, cli.OPTIONS["shift"])[1]
    flags = st.sampled_from([opt.flag for opt in options])
    given_option = st.sampled_from(options).flatmap(option_tokens)
    odd = st.one_of(
        flags.map(lambda flag: [flag]),
        flags.map(lambda flag: [flag[:-1]] if len(flag) > 3 else [flag]),
        st.tuples(flags, st.sampled_from(TABLE_VALUES)).map(lambda fv: ["=".join(fv)]),
        st.sampled_from([["-h"], ["--help"], ["--"], ["stray"], ["--bogus"]]),
    )
    items = [draw(option_tokens(opt)) for opt in options if opt.required] if draw(st.integers(0, 3)) else []
    items += draw(st.lists(st.one_of(*[given_option] * 6, odd), max_size=5))
    return [name, *(token for item in items for token in item)]


@settings(max_examples=600, deadline=None)
@given(table_argv())
@example(["match", "--p", "3", "--f", "2", "--k", "3,1", "--jprime", "0", "--jmu", "0:0", "--jmu", "1:2"])
@example(["verify", "--suite", "lemma71", "--p", "3", "--f", "2", "--force", "--force", "--p", "5"])
@example(["enumerate", "--p", "3", "--f", "2", "--shard", "1/2"])
@example(["shift", "--p", "3", "--f", "2", "--k", "", "--allow-alt", "--l", "0,1"])
def test_direct_route_reads_as_argparse(argv):
    direct = cli._read_args(argv)
    if direct is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            parsed = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refuses what the direct route read: {err.getvalue()}")
    assert vars(direct) == vars(parsed)


@pytest.mark.parametrize("argv", PARSE_CORPUS[:4] + PARSE_CORPUS[-1:], ids=" ".join)
def test_well_formed_requests_take_the_direct_route(argv):
    direct = cli._read_args(argv)
    assert direct is not None and vars(direct) == vars(cli.build_parser().parse_args(argv))


def test_verify_pass_and_unknown(capsys):
    code, out = run(capsys, "verify", "--suite", "lemma71", "--p", "3", "--f", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["outcome"] == "pass" and doc["detail"]["scanned"] == 49
    for suite in ("bogus", "dims"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--suite", suite, "--p", "3", "--f", "2")
        assert exc.value.code == EXIT_USAGE


def test_verify_refusal(capsys):
    code, out = run(capsys, "verify", "--suite", "semisimple-equiv", "--p", "3", "--f", "2")
    assert code == EXIT_USAGE
    assert json.loads(out)["outcome"] == "refused"


@pytest.mark.parametrize("suite", ["lemma71", "pprime", "alpha-id", "alpha-tables", "exceptional"])
def test_verify_refuses_k_on_suites_without_a_weight(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite, "--p", "3", "--f", "2", "--k", "9,9")
    doc = json.loads(out)
    assert code == EXIT_USAGE and doc["outcome"] == "refused"
    assert doc["detail"] == {"reason": "suite takes no --k"}


@pytest.mark.parametrize("suite", ["alpha-tables", "exceptional", "irr-equiv"])
def test_verify_refuses_a_size_with_no_valid_weight(capsys, suite):
    # at f = 1 every weight is regular or (1)
    code, out = run(capsys, "verify", "--suite", suite, "--p", "5", "--f", "1")
    doc = json.loads(out)
    assert code == EXIT_USAGE and doc["outcome"] == "refused"
    assert doc["detail"] == {"reason": "no valid irregular weight at this size"}


def test_verify_determinism(capsys):
    _, a = run(capsys, "verify", "--suite", "alpha-id", "--p", "3", "--f", "2")
    _, b = run(capsys, "verify", "--suite", "alpha-id", "--p", "3", "--f", "2")
    da, db = json.loads(a), json.loads(b)
    da.pop("wall_time_ms"), db.pop("wall_time_ms")
    assert da == db


def test_verify_cache(tmp_path, capsys):
    cache = str(tmp_path)
    _, o1 = run(capsys, "verify", "--suite", "lemma71", "--p", "3", "--f", "2", "--cache", cache)
    assert json.loads(o1)["cache"] == "miss"
    _, o2 = run(capsys, "verify", "--suite", "lemma71", "--p", "3", "--f", "2", "--cache", cache)
    assert json.loads(o2)["cache"] == "hit"
    _, o3 = run(
        capsys, "verify", "--suite", "lemma71", "--p", "3", "--f", "2",
        "--cache", cache, "--force",
    )
    assert json.loads(o3)["cache"] == "recomputed-match"
    # different parameters get a different cache slot
    _, o4 = run(capsys, "verify", "--suite", "lemma71", "--p", "3", "--f", "1", "--cache", cache)
    assert json.loads(o4)["cache"] == "miss"


@pytest.mark.parametrize("shard", ["5/2", "0/1/2", "a/2", "3", "0/0", "-1/2"])
def test_enumerate_refuses_a_bad_shard(capsys, shard):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--p", "3", "--f", "2", "--shard", shard])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert err.startswith("usage: kisinweights enumerate")
    assert err.endswith("error: argument --shard: shard must be i/n with 0 <= i < n\n")


def test_enumerate_sharding(capsys):
    _, full = run(capsys, "enumerate", "--p", "3", "--f", "2")
    full_lines = full.strip().splitlines()
    parts = []
    for i in range(3):
        _, part = run(capsys, "enumerate", "--p", "3", "--f", "2", "--shard", f"{i}/3")
        parts += part.strip().splitlines()
    assert sorted(parts) == sorted(full_lines)
    assert len(full_lines) == 8  # 2 valid weights x 4 carrier sets
    _, single = run(capsys, "enumerate", "--p", "3", "--f", "2", "--shard", "0/1")
    assert single.strip().splitlines() == full_lines


@functools.lru_cache(maxsize=None)
def per_unit_lines(p, f):
    """The line of every (weight, carrier set) unit, each from its own forward_sets."""
    ctx = Context(p, f)
    weights = []
    for k in itertools.product(range(1, p + 1), repeat=f):
        try:
            validate_irregular(Weight(p, k))
        except ValueError:
            continue
        weights.append(Weight(p, k))
    lines = []
    for unit, (w, J) in enumerate(itertools.product(weights, embedding_subsets(f))):
        fs = forward_sets(ctx, w, J)
        record = {"unit": unit, "k": w.k, "J": J, "Jprime": fs.Jprime, "Jtheta": fs.Jtheta, "Jmu": dict(fs.Jmu)}
        lines.append(json.dumps(jsonable(record), sort_keys=True) + "\n")
    return tuple(lines)


# enumerate proves each weight at its basis carriers and lists the carriers
# of every unit; a shard count above 2^f leaves whole weights without a unit
SHARDS = [None, (1, 3), (0, 3), (2, 3)] + [(i, n) for n in (16, 40) for i in (0, 1, n // 2, n - 1)]


@pytest.mark.parametrize("shard", SHARDS)
@pytest.mark.parametrize("p,f", [(3, 2), (3, 3), (5, 2), (3, 4), (5, 3), (5, 4)])
def test_enumerate_lines_are_the_jsonable_records(capsys, p, f, shard):
    argv = ["enumerate", "--p", str(p), "--f", str(f)]
    if shard:
        argv += ["--shard", f"{shard[0]}/{shard[1]}"]
    code, out = run(capsys, *argv)
    expected = [line for unit, line in enumerate(per_unit_lines(p, f)) if not shard or unit % shard[1] == shard[0]]
    assert code == EXIT_OK and out == "".join(expected)


def test_enumerate_into_a_closed_pipe_ends_quietly():
    # (5, 4) writes about 450 KB, far more than a pipe holds, so the writer
    # is still writing when the reader closes after the first line
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    argv = [sys.executable, "-m", "kisinweights.cli", "enumerate", "--p", "5", "--f", "4"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert json.loads(first)["unit"] == 0
    assert (proc.returncode, err) == (EXIT_FAIL, b"")


def test_enumerate_empty(capsys):
    code, out = run(capsys, "enumerate", "--p", "3", "--f", "1")
    assert code == EXIT_OK and out.strip() == ""


def test_out_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out = run(
        capsys, "shift", "--p", "3", "--f", "2", "--k", "3,1", "--out", str(target)
    )
    assert code == EXIT_OK and out == ""
    doc = json.loads(target.read_text())
    assert doc["kprime"]["k"] == [2, 4]


def _cache_is_a_file(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    return [*LEMMA71, "--cache", str(tmp_path / "file")]


def _record_path_is_a_directory(tmp_path, capsys):
    slot = cache_slot(tmp_path, capsys, LEMMA71)
    slot.unlink()
    slot.mkdir()
    return [*LEMMA71, "--cache", str(tmp_path)]


@pytest.mark.parametrize(
    "request_of",
    [
        lambda tmp, _: ["shift", "--p", "3", "--f", "2", "--k", "1,3", "--out", str(tmp / "missing" / "x.json")],
        lambda tmp, _: ["enumerate", "--p", "3", "--f", "2", "--out", str(tmp / "missing" / "x.jsonl")],
        lambda tmp, _: ["match", "--p", "3", "--f", "2", "--k", "3,1", "--out", str(tmp / "missing" / "x.json")],
        _cache_is_a_file,
        _record_path_is_a_directory,
    ],
    ids=["shift-out", "enumerate-out", "refused-match-out", "cache-is-a-file", "record-is-a-directory"],
)
def test_unwritable_path_is_refused_on_stdout(tmp_path, capsys, request_of):
    # an I/O error is bad input, not a broken claim; --out may be the path that failed
    argv = request_of(tmp_path, capsys)
    code = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (code, doc["error"], err) == (EXIT_USAGE, "invalid", "")
    assert doc["reason"].startswith("[Errno ")


def test_invalid_input_exit_usage(capsys):
    code, out = run(capsys, "match", "--p", "3", "--f", "2", "--k", "3,1")
    assert code == EXIT_USAGE and json.loads(out)["error"] == "invalid"


def test_p_beyond_the_primality_bound_exit_usage(capsys):
    code, out = run(capsys, "shift", "--p", str(2**82), "--f", "2", "--k", "1,3")
    doc = json.loads(out)
    assert (code, doc["error"]) == (EXIT_USAGE, "invalid") and "decided only below" in doc["reason"]


def test_dumps_deterministic():
    doc = {"z": 1, "a": frozenset({2, 1}), "m": 2**60}
    assert dumps(doc) == dumps({"a": {1, 2}, "m": 2**60, "z": 1})


@dataclasses.dataclass(frozen=True)
class Pair:
    first: Any
    second: Any


class NamedPair(NamedTuple):  # a record, as the package's own are
    first: Any
    second: Any


class Size(enum.IntEnum):  # an int subclass, which the frontend never builds
    BIG = 2**53


BOUNDARY_INTS = st.integers(-3, 3).flatmap(lambda d: st.sampled_from([d, 2**53 + d, -(2**53) + d]))
TEXT = st.text(st.sampled_from('a1"\\/\b\n\r\t\x00\x1f\x7f\xe9\u20ac\u2028\U0001d11e'), max_size=5)
LEAVES = st.one_of(
    BOUNDARY_INTS,
    st.booleans(),
    st.none(),
    TEXT,
    st.sets(BOUNDARY_INTS, max_size=4),
    st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(-2, 2), st.sampled_from(["1", "-1", "a", "", '"'])), children, max_size=5),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
@example({1: "int key", "1": "str key", 2**53: (), "x": frozenset()})
@example({"1": [True, None], 1: ({(1, 2), (0, 5)}, -(2**53))})
def test_dumps_is_json_dumps_of_the_jsonable_oracle(doc):
    """dumps writes in one walk what json.dumps writes of the old recursive
    jsonable copy, byte for byte, and jsonable reads that document back."""
    assert dumps(doc) == json.dumps(oracles.jsonable(doc), sort_keys=True, indent=2) + "\n"
    assert jsonable(doc) == json.loads(dumps(doc)) == oracles.jsonable(doc)


@pytest.mark.parametrize(
    "value", [1.5, object(), Pair, {1: [complex(1, 1)]}, NamedPair, NamedPair(1, 2), Pair(1, 2), Size.BIG]
)
def test_dumps_refuses_what_the_oracle_refuses(value):
    """dumps takes only the exact types the frontend builds: it also refuses the
    records, dataclasses and int subclasses that the oracle still reads."""
    converters = (dumps, jsonable) if type(value) in (NamedPair, Pair, Size) else (dumps, jsonable, oracles.jsonable)
    for convert in converters:
        with pytest.raises(TypeError, match="cannot serialize"):
            convert(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["match", "--j", "0"],
        ["match", "--jprime", "0", "--jtheta", "0"],
        ["verify", "--suite", "irr-equiv"],
        ["verify", "--suite", "transport"],
        ["verify", "--suite", "semisimple-equiv"],
        ["verify", "--suite", "lemma71"],
        ["shift"],
    ],
)
@pytest.mark.parametrize("p,f,k", [("3", "2", "1,3,3"), ("5", "3", "1,3")])
def test_k_length_mismatch_refused(capsys, tmp_path, argv, p, f, k):
    cache = ["--cache", str(tmp_path)] if argv[0] == "verify" else []
    code, out = run(capsys, *argv, "--p", p, "--f", f, "--k", k, *cache)
    assert code == EXIT_USAGE
    doc = json.loads(out)
    assert doc["error"] == "invalid" and "weight entries" in doc["reason"]
    assert not list(tmp_path.iterdir())  # nothing cached


LEMMA71 = ["verify", "--suite", "lemma71", "--p", "3", "--f", "2"]


def cache_slot(tmp_path, capsys, argv):
    """Run argv once with a fresh cache and return the one record file it wrote."""
    run(capsys, *argv, "--cache", str(tmp_path))
    (slot,) = tmp_path.iterdir()
    return slot


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
@pytest.mark.parametrize(
    "damaged",
    ["{}", "[]", "garbage", '{"suite": "lemma71"', ""],
    ids=["empty-object", "array", "text", "truncated", "empty-file"],
)
def test_verify_damaged_cache_record_is_a_miss(tmp_path, capsys, damaged, force):
    slot = cache_slot(tmp_path, capsys, LEMMA71)
    good = json.loads(slot.read_text())
    slot.write_text(damaged)
    code, out = run(capsys, *LEMMA71, "--cache", str(tmp_path), *force)
    doc = json.loads(out)
    assert code == EXIT_OK and doc["cache"] == "miss" and doc["detail"] == good["detail"]
    stored = json.loads(slot.read_text())
    assert stored["outcome"] == "pass" and stored["detail"] == good["detail"]
    _, out = run(capsys, *LEMMA71, "--cache", str(tmp_path))
    assert json.loads(out)["cache"] == "hit"


def test_verify_foreign_cache_record_is_a_miss(tmp_path, capsys):
    slot = cache_slot(tmp_path, capsys, LEMMA71)
    other = tmp_path / "other"
    other.mkdir()
    foreign = cache_slot(other, capsys, ["verify", "--suite", "alpha-id", "--p", "3", "--f", "2"])
    slot.write_text(foreign.read_text())
    code, out = run(capsys, *LEMMA71, "--cache", str(tmp_path))
    doc = json.loads(out)
    assert code == EXIT_OK and doc["cache"] == "miss"
    assert doc["suite"] == "lemma71" and doc["detail"]["scanned"] == 49
    assert json.loads(slot.read_text())["suite"] == "lemma71"


def test_verify_cache_record_with_bad_outcome_is_a_miss(tmp_path, capsys):
    slot = cache_slot(tmp_path, capsys, LEMMA71)
    record = json.loads(slot.read_text())
    record["outcome"] = "maybe"
    slot.write_text(json.dumps(record))
    _, out = run(capsys, *LEMMA71, "--cache", str(tmp_path))
    doc = json.loads(out)
    assert doc["cache"] == "miss" and doc["outcome"] == "pass"


def test_verify_force_compares_the_fingerprint(tmp_path, capsys):
    slot = cache_slot(tmp_path, capsys, LEMMA71)
    record = json.loads(slot.read_text())
    assert record["fingerprint"].startswith("kisinweights sha256:")
    record["fingerprint"] = "kisinweights sha256:0 / python 0"
    slot.write_text(json.dumps(record))
    _, out = run(capsys, *LEMMA71, "--cache", str(tmp_path), "--force")
    assert json.loads(out)["cache"] == "recomputed-mismatch"


def test_verify_miss_dumps_the_record_once(monkeypatch, tmp_path, capsys):
    # one walk writes the cache file and one the stdout document; the cache key's payload is apart
    docs = []
    monkeypatch.setattr(cli, "dumps", lambda doc: docs.append(doc) or dumps(doc))
    _, out = run(capsys, *LEMMA71, "--cache", str(tmp_path))
    walks = [type(doc).__name__ for doc in docs if not (isinstance(doc, dict) and "source" in doc)]
    assert walks == ["dict", "dict"]
    doc = json.loads(out)
    assert doc.pop("cache") == "miss"
    (slot,) = tmp_path.iterdir()
    assert slot.read_text() == dumps(doc)


def test_source_edit_turns_a_cache_hit_into_a_miss(tmp_path):
    package = tmp_path / "lib" / "kisinweights"
    shutil.copytree(os.path.dirname(cli.__file__), package, ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    argv = [sys.executable, "-m", "kisinweights.cli", *LEMMA71, "--cache", str(tmp_path / "cache")]

    def verify():
        done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
        doc = json.loads(done.stdout)
        return doc["cache"], doc["fingerprint"]

    first, before = verify()
    assert (first, verify()) == ("miss", ("hit", before))
    with open(package / "weights.py", "a", encoding="utf-8") as fh:
        fh.write("# edited\n")
    cache, after = verify()
    assert cache == "miss" and after != before
    assert verify() == ("hit", after)


def broken(*args, **kwargs):
    raise AssertionError("companion congruence failed")


def test_verify_audit_assertion_is_a_fail(monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "lemma71", broken)
    code, out = run(capsys, *LEMMA71)
    doc = json.loads(out)
    assert code == EXIT_FAIL and doc["outcome"] == "fail"
    assert doc["detail"] == {"reason": "companion congruence failed"}


def test_match_audit_assertion_is_a_fail(monkeypatch, capsys):
    monkeypatch.setattr(cli, "forward_sets", broken)
    code, out = run(capsys, "match", "--p", "3", "--f", "2", "--k", "3,1", "--j", "0")
    assert code == EXIT_FAIL
    assert json.loads(out) == {"error": "fail", "reason": "companion congruence failed"}


def test_enumerate_out_file_matches_stdout(tmp_path, capsys):
    _, full = run(capsys, "enumerate", "--p", "3", "--f", "3")
    target = tmp_path / "units.jsonl"
    code, out = run(capsys, "enumerate", "--p", "3", "--f", "3", "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert target.read_text() == full
    assert [json.loads(line)["unit"] for line in full.splitlines()] == list(range(len(full.splitlines())))


def test_enumerate_streams_lines(monkeypatch, capsys):
    # each unit's line is written before the next unit's carriers are
    # computed: the n-th companion_carriers call finds n lines written.  A
    # weight's basis proof (forward_sets) runs between weights, before the
    # carriers of its first unit
    written = 0
    seen = {"unit": [], "proof": []}

    def spy(kind, real):
        def wrapped(*args):
            nonlocal written
            written += capsys.readouterr().out.count("\n")
            seen[kind].append(written)
            return real(*args)

        return wrapped

    monkeypatch.setattr(cli, "companion_carriers", spy("unit", cli.companion_carriers))
    monkeypatch.setattr(cli, "forward_sets", spy("proof", cli.forward_sets))
    run(capsys, "enumerate", "--p", "3", "--f", "2")
    # two weights of four units each, each proven at its three basis carriers
    assert seen == {"unit": list(range(8)), "proof": [0] * 3 + [4] * 3}


def words_first_seen(p, f):
    """The unit numbers of the first weight of each type word (k_i capped at 3)."""
    first = {}
    for n, w in enumerate(oracles.valid_weights(p, f)):
        first.setdefault(tuple(min(ki, 3) for ki in w.k), n)
    return [n * 2**f + mask for n in first.values() for mask in range(2**f)]


@pytest.mark.parametrize("p,f", [(5, 2), (5, 3)])
def test_enumerate_works_once_per_type_word_and_streams(monkeypatch, capsys, p, f):
    # the weights of a type word share their carriers and congruences, so
    # companion_carriers runs only for the first weight of each word (at
    # each of its units, once every earlier line is written), and the basis
    # proof (forward_sets) once per word, between lines
    written = 0
    seen = {"unit": [], "proof": []}

    def spy(kind, real):
        def wrapped(*args):
            nonlocal written
            written += capsys.readouterr().out.count("\n")
            seen[kind].append(written)
            return real(*args)

        return wrapped

    monkeypatch.setattr(cli, "companion_carriers", spy("unit", cli.companion_carriers))
    monkeypatch.setattr(cli, "forward_sets", spy("proof", cli.forward_sets))
    run(capsys, "enumerate", "--p", str(p), "--f", str(f))
    units = words_first_seen(p, f)
    assert seen == {"unit": units, "proof": [u for u in units[:: 2**f] for _ in range(f + 1)]}
    if (p, f) == (5, 2):
        # six weights: (1, 3), (1, 4), (1, 5) of word (1, 3), then (3, 1), (4, 1), (5, 1)
        assert seen == {"unit": [0, 1, 2, 3, 12, 13, 14, 15], "proof": [0] * 3 + [12] * 3}


def internal_error(*args, **kwargs):
    raise ValueError("jmax is not unique")


@pytest.mark.parametrize(
    "target,argv",
    [
        ("decompose_cyclic", LEMMA71),
        ("irr_equivalence_audit", ["verify", "--suite", "irr-equiv", "--p", "3", "--f", "2", "--k", "3,1"]),
    ],
)
def test_verify_internal_value_error_is_a_fail(monkeypatch, capsys, target, argv):
    monkeypatch.setattr(cli, target, internal_error)
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == EXIT_FAIL and doc["outcome"] == "fail"
    assert doc["detail"] == {"reason": "jmax is not unique"}


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["--suite", "transport", "--p", "3", "--f", "2"], "suite needs --k"),
        (["--suite", "transport", "--p", "3", "--f", "2", "--k", "3,3"], "weight is regular (no k_i = 1)"),
        (["--suite", "irr-equiv", "--p", "5", "--f", "2", "--k", "2,1"], "forbidden (2,1) pattern at index 0"),
        (["--suite", "semisimple-equiv", "--p", "3", "--f", "2", "--k", "4,1"], "entries of k must lie in [1, 3]"),
        (["--suite", "transport", "--p", "3", "--f", "2", "--k", "-1,3"], "entries of k must lie in [1, 3]"),
    ],
)
def test_verify_bad_weight_refused_before_the_audit(monkeypatch, capsys, argv, reason):
    for name in ("semisimple_equivalence_audit", "subspace_transport_audit", "transport_exponents", "irr_equivalence_audit"):
        monkeypatch.setattr(cli, name, broken)
    code, out = run(capsys, "verify", *argv)
    doc = json.loads(out)
    assert code == EXIT_USAGE and doc["outcome"] == "refused"
    assert doc["detail"] == {"reason": reason}


def test_equivalence_suites_at_p7_f4(capsys):
    code, out = run(capsys, "verify", "--suite", "irr-equiv", "--p", "7", "--f", "4")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["outcome"] == "pass"
    assert doc["detail"] == {"weights": 910, "exponents_checked": 910 * (7**8 - 7**4)}
    code, out = run(capsys, "verify", "--suite", "semisimple-equiv", "--p", "7", "--f", "4", "--k", "1,3,4,5")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["outcome"] == "pass"
    assert doc["detail"] == {"pairs": 2400**2}


@pytest.mark.parametrize("p,families", [(5, 13824), (7, 55296)])
def test_transport_at_d2(capsys, p, families):
    code, out = run(capsys, "verify", "--suite", "transport", "--p", str(p), "--f", "3", "--d", "2", "--k", "1,3,4")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["outcome"] == "pass"
    assert doc["detail"] == {"families_transported": families}


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "alpha-id", "--p", "5", "--f", "2", "--d", "3"],
        ["--suite", "transport", "--p", "5", "--f", "3", "--d", "3", "--k", "1,3,4"],
    ],
)
def test_slope_suites_build_no_coefficient_field(monkeypatch, capsys, argv):
    """alpha-id and transport read only exponents: no GF(p^d) is built, so
    the cost of a run does not grow with --d."""
    monkeypatch.setattr(Context, "coefficient_field", broken)
    code, out = run(capsys, "verify", *argv)
    assert code == EXIT_OK and json.loads(out)["outcome"] == "pass"
