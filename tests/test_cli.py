import argparse
import csv
import io
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from hullforge import bounds, cli, eaqecc, matfmt, search
from hullforge.cli import main
from hullforge.code import LinearCode
from hullforge.construct import fixture, simplex_matrix
from hullforge.exceptions import BudgetExceededError, OutOfRangeError


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "G.g4m"
    matfmt.save(path, fixture("G_[9,4,5]").matrix)
    return path


def run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr()


def test_analyze_text(fixture_file, capsys):
    status, captured = run(capsys, "analyze", str(fixture_file), "--eaqecc")
    assert status == 0
    assert "[9,4,5] code" in captured.out
    assert "hull dimension 1" in captured.out
    assert "[[9,3,5;4]]" in captured.out


def test_analyze_full_space_code(tmp_path, capsys):
    # the Hermitian dual of a full-space code is the zero code
    path = tmp_path / "I3.g4m"
    path.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
    status, captured = run(capsys, "analyze", str(path))
    assert status == 0
    assert captured.out.startswith(
        "[3,3,1] code, dual distance None, hull dimension 0 (LCD)\n")


def test_analyze_json(fixture_file, capsys):
    status, captured = run(capsys, "analyze", str(fixture_file),
                           "--format", "json", "--eaqecc")
    assert status == 0
    record = json.loads(captured.out)
    assert (record["n"], record["k"], record["d"]) == (9, 4, 5)
    assert record["hull_dim"] == 1
    assert record["class"] == "proper"
    assert record["eaqecc"][0] == [9, 3, 5, 4]
    assert sum(record["weights"]) == 4**4


def test_analyze_eaqecc_enumerates_once(fixture_file, capsys, monkeypatch):
    calls = []
    count_weights = LinearCode._count_weights

    def counting(self):
        calls.append((self.n, self.k))
        return count_weights(self)

    monkeypatch.setattr(LinearCode, "_count_weights", counting)
    status, captured = run(capsys, "analyze", str(fixture_file), "--eaqecc",
                           "--format", "json")
    assert status == 0
    assert json.loads(captured.out)["eaqecc"] == [[9, 3, 5, 4], [9, 4, 4, 3]]
    # one enumeration of the code; the dual's weights are its MacWilliams
    # transform
    assert calls == [(9, 4)]


def test_analyze_csv(fixture_file, capsys):
    status, captured = run(capsys, "analyze", str(fixture_file), "--format", "csv")
    assert status == 0
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0] == ["n", "k", "d", "dual_d", "hull_dim", "class"]
    assert rows[1][:3] == ["9", "4", "5"]


def test_analyze_long_fixture_eaqecc(tmp_path, capsys):
    path = tmp_path / "G23.g4m"
    matfmt.save(path, fixture("G_[23,3,16]").matrix)
    status, captured = run(capsys, "analyze", str(path), "--eaqecc")
    assert status == 0
    assert "[23,3,16] code" in captured.out
    assert "[[23,2,16;19]]" in captured.out
    # the dual (k = 20) is beyond the enumeration cap; its distance comes
    # from the MacWilliams transform of the code's weights
    assert "[[23,19,2;2]]" in captured.out


@pytest.mark.parametrize("generator, first_line", [
    # Hamming [21,18]: k > cap, so the simplex dual is enumerated instead
    (LinearCode.from_generator(simplex_matrix(3)).hermitian_dual().generator,
     "[21,18,3] code, dual distance 16, hull dimension 3 (proper)"),
    (simplex_matrix(4),
     "[85,4,64] code, dual distance 3, hull dimension 4 (self-orthogonal)"),
    (np.eye(3, dtype=np.uint8),
     "[3,3,1] code, dual distance None, hull dimension 0 (LCD)"),
])
def test_analyze_distances_from_either_side(tmp_path, capsys, generator,
                                            first_line):
    path = tmp_path / "G.g4m"
    matfmt.save(path, generator)
    status, captured = run(capsys, "analyze", str(path))
    assert status == 0
    assert captured.out.splitlines()[0] == first_line


def test_analyze_digits_alphabet(tmp_path, capsys):
    path = tmp_path / "digits.g4m"
    path.write_text("3 1\n1 2 3\n")
    status, captured = run(capsys, "analyze", str(path), "--digits")
    assert status == 0
    assert "[3,1,3] code" in captured.out


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g4m"
    path.write_text("2 1\n1 x\n")
    status, captured = run(capsys, "analyze", str(path))
    assert status == 2
    assert "error" in captured.err


def test_analyze_missing_file(capsys):
    status, captured = run(capsys, "analyze", "/nonexistent/file.g4m")
    assert status == 2


def test_analyze_non_ascii_file(tmp_path, capsys):
    path = tmp_path / "bad.g4m"
    path.write_bytes(b"2 1\n1 \xff\n")
    status, captured = run(capsys, "analyze", str(path))
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: 'ascii' codec can't decode byte 0xff")


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["analyze"]) == 2
    assert main(["table", "--cache", "x.json"]) == 2


def test_search_exhaustive_small(capsys):
    status, captured = run(capsys, "search", "7", "2")
    assert status == 0
    assert "exhaustive: best_d = 5" in captured.out
    # the witness matrix is printed and parses back
    body = captured.out.split("\n", 1)[1]
    m = matfmt.parse(body)
    assert m.shape == (2, 7)


def test_search_certificate(capsys):
    status, captured = run(capsys, "search", "8", "2", "--target-d", "6")
    assert status == 0
    assert "no [8,2,>=6] hull-1 code exists" in captured.out
    assert "exhaustive" in captured.out


def test_search_counterexample(capsys):
    status, captured = run(capsys, "search", "8", "2", "--target-d", "5")
    assert status == 0
    assert "witness found (exhaustive), d = 5" in captured.out


def test_search_randomized(capsys):
    status, captured = run(capsys, "search", "8", "4", "--target-d", "4",
                           "--seed", "7", "--budget", "4096")
    assert status == 0
    assert "randomized: witness with d = 4" in captured.out


def test_search_randomized_no_witness_line(capsys):
    status, captured = run(capsys, "search", "8", "4", "--target-d", "7",
                           "--seed", "0", "--budget", "64")
    assert status == 0
    assert captured.out == ("no witness with d >= 7 found (randomized, explored "
                            "64, best hull-1 distance seen: 4)\n")


def test_search_rejects_length_one(capsys):
    status, captured = run(capsys, "search", "1", "1")
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: need n >= 2 and 1 <= k < n\n"


def test_search_rejects_k_above_distance_cap(capsys):
    status, captured = run(capsys, "search", "20", "15")
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: k=15 exceeds the distance cap 14\n"


def test_search_rejects_other_hull_dims(capsys):
    assert main(["search", "8", "2", "--hull", "2"]) == 2


@pytest.mark.parametrize("n, k, budget", [
    ("9", "5", "-3"), ("9", "5", "0"), ("10", "3", "0"),
])
def test_search_rejects_budget_below_one(capsys, n, k, budget):
    status, captured = run(capsys, "search", n, k, "--budget", budget)
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--budget >= 1" in captured.err


@pytest.mark.parametrize("n, k, seed", [("9", "5", "-1"), ("12", "6", "-7")])
def test_search_rejects_negative_seed_on_randomized_path(capsys, n, k, seed):
    # numpy refuses a negative seed with a traceback, which exited 1: the
    # code for a verification mismatch
    status, captured = run(capsys, "search", n, k, "--seed", seed)
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: need --seed >= 0\n"


def test_search_exhaustive_path_ignores_seed(capsys):
    assert run(capsys, "search", "7", "2", "--seed", "-1") == \
        run(capsys, "search", "7", "2")


@pytest.mark.parametrize("n, k, target", [
    ("16", "3", "-100000"), ("16", "3", "0"),
    ("16", "3", "17"), ("16", "3", "40"), ("10", "1", "-1"),
    ("9", "5", "0"), ("9", "5", "10"),
])
def test_search_rejects_target_d_out_of_range(capsys, n, k, target):
    status, captured = run(capsys, "search", n, k, "--target-d", target)
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "1 <= --target-d <= n" in captured.err


def test_search_accepts_target_d_equal_to_n(capsys):
    status, captured = run(capsys, "search", "6", "2", "--target-d", "6")
    assert status == 0
    assert captured.out.startswith("no [6,2,>=6] hull-1 code exists")


@pytest.mark.parametrize("n, k, target, reason", [
    # above the Griesmer bound nothing is enumerated, so no interval is shown
    ("16", "3", "16", "Griesmer bound; 0 multiplicity vectors examined"),
    ("16", "3", "13", "Griesmer bound; 0 multiplicity vectors examined"),
    ("10", "2", "9", "Griesmer bound; 0 multiplicity vectors examined"),
    ("16", "3", "12", "exhaustive; 8733 multiplicity vectors examined, "
                      "per-column bounds (0, 1)"),
    # at k = 1 the single vector (n) has an odd Gram entry for odd n
    ("7", "1", "7", "exhaustive; 1 multiplicity vectors examined, "
                    "per-column bounds (0, 7)"),
])
def test_search_certificate_lines(capsys, n, k, target, reason):
    status, captured = run(capsys, "search", n, k, "--target-d", target)
    assert status == 0
    assert captured.out == f"no [{n},{k},>={target}] hull-1 code exists ({reason})\n"


def test_search_k1_target_d_witness(capsys):
    # k = 1 with --target-d certifies like k = 2, 3 instead of ignoring the
    # flag: the [6,1,6] all-ones code lifted by a zero column
    status, captured = run(capsys, "search", "7", "1", "--target-d", "6")
    assert status == 0
    assert captured.out == "witness found (exhaustive), d = 6\n7 1\n1 1 1 1 1 1 0\n"


def test_analyze_unknown_distances(tmp_path, capsys, monkeypatch):
    # [I | A] with k = n - k = 15: both sides exceed the enumeration cap,
    # so neither distance is known; seed 1 gives hull dimension 1
    a = np.random.default_rng(1).integers(0, 4, size=(15, 15), dtype=np.uint8)
    path = tmp_path / "G30.g4m"
    matfmt.save(path, np.hstack([np.eye(15, dtype=np.uint8), a]))
    status, captured = run(capsys, "analyze", str(path), "--eaqecc")
    assert status == 0
    assert captured.out == (
        "[30,15,None] code, dual distance None, hull dimension 1 (proper)\n"
        "EAQECC pair: [[30,14,?;14]] and [[30,14,?;14]]\n")
    status, captured = run(capsys, "analyze", str(path), "--eaqecc",
                           "--format", "json")
    assert status == 0
    record = json.loads(captured.out)
    assert (record["d"], record["dual_d"], record["weights"]) == (None, None, None)
    # the budget error comes before the dual is built
    duals = []
    monkeypatch.setattr(LinearCode, "hermitian_dual",
                        lambda self: duals.append(self))
    code = LinearCode.from_generator(matfmt.parse(path.read_text()))
    with pytest.raises(BudgetExceededError):
        code.weight_distribution()
    assert duals == []


@pytest.mark.parametrize("cap", ["-1", "3", "15", "20"])
def test_analyze_rejects_cap_out_of_range(fixture_file, capsys, cap):
    # the enumeration cap is fixed in code.py, so analyze takes no --cap at all
    status, captured = run(capsys, "analyze", str(fixture_file), "--cap", cap)
    assert status == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err and "--cap" in captured.err


def test_verify_paper_skip_table6(capsys):
    # verify-paper always checks the EAQECC table against the installed
    # witness corpus, so --skip-table6 is no longer accepted
    status, captured = run(capsys, "verify-paper", "--skip-table6")
    assert status == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert "--skip-table6" in captured.err


def test_table_stdout(capsys):
    status, captured = run(capsys, "table", "--max-n", "6")
    assert status == 0
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0] == ["n", "k", "d", "hull_dim", "method"]
    cells = {(int(r[0]), int(r[1])): (int(r[2]), r[4]) for r in rows[1:]}
    assert cells[(6, 1)] == (6, "formula")
    assert cells[(4, 2)][0] == 3
    assert len(cells) == sum(n - 1 for n in range(2, 7))


def test_table_matches_reference_everywhere(capsys):
    from hullforge.bounds import table5_lookup

    status, captured = run(capsys, "table", "--max-n", "12")
    assert status == 0
    rows = list(csv.reader(captured.out.splitlines()))[1:]
    assert len(rows) == sum(n - 1 for n in range(2, 13))
    for r in rows:
        n, k, d = int(r[0]), int(r[1]), int(r[2])
        assert d == table5_lookup(n, k), (n, k)


def test_table_leaves_out_cells_without_a_source(capsys):
    # past n = 12 no stored witness or paper value covers the middle k
    status, captured = run(capsys, "table", "--max-n", "13")
    assert status == 0
    cells = {(int(r[0]), int(r[1])) for r in csv.reader(captured.out.splitlines()[1:])}
    assert {(13, k) for k in range(1, 13)} - cells == {(13, k) for k in range(4, 10)}


def test_table_method_tags(capsys):
    status, captured = run(capsys, "table", "--max-n", "12")
    assert status == 0
    methods = [r[4] for r in csv.reader(captured.out.splitlines()[1:])]
    assert (methods.count("formula"), methods.count("witness")) == (51, 15)
    assert len(methods) == 66


def test_table_k_visits_only_that_k(capsys, monkeypatch):
    calls = []
    cell = cli._table_cell

    def counting(n, k, exhaustive_max_n):
        calls.append((n, k))
        return cell(n, k, exhaustive_max_n)

    monkeypatch.setattr(cli, "_table_cell", counting)
    status, _ = run(capsys, "table", "--max-n", "50", "--k", "3")
    assert status == 0
    assert calls == [(n, 3) for n in range(4, 51)]


@pytest.mark.parametrize("max_n, only_k", [(12, None), (22, 3)])
def test_table_column_call_moves_no_cell(capsys, max_n, only_k):
    # table_cells solves each exhaustive column with one call at its longest
    # length and reads the shorter lengths from its links; the same cells,
    # each exhaustive one from its own call, with n visited in descending
    # order, give the same bytes
    argv = ["table", "--max-n", str(max_n), "--exhaustive-max-n", str(max_n)]
    if only_k is not None:
        argv += ["--k", str(only_k)]
    status, captured = run(capsys, *argv)
    assert status == 0
    cells = []
    for n in range(max_n, 1, -1):
        for k in reversed(range(1, n)):
            if only_k not in (None, k):
                continue
            if k <= 3:
                d = search.exhaustive_dh(n, k).best_d
                cells.append({"n": n, "k": k, "d": d, "method": "exhaustive"})
            else:
                cells.append(cli._table_cell(n, k, {}))
    cells = [cell for cell in reversed(cells) if cell is not None]
    assert sum(cell["method"] == "exhaustive" for cell in cells) == \
        (3 * max_n - 6 if only_k is None else max_n - 3)
    expected = io.StringIO(newline="")
    cli._write_table_csv(cells, expected)
    assert captured.out == expected.getvalue()


@pytest.mark.parametrize("k", ["-1", "0", "12", "13"])
def test_table_k_out_of_range_prints_header_only(capsys, k):
    status, captured = run(capsys, "table", "--max-n", "12", "--k", k)
    assert status == 0
    assert captured.out == "n,k,d,hull_dim,method\r\n"
    assert captured.err == ""


def test_table_exhaustive_and_files(tmp_path, capsys):
    prefix = str(tmp_path / "table")
    status, captured = run(capsys, "table", "--max-n", "8", "--k", "2",
                           "--exhaustive-max-n", "8", "--out", prefix)
    assert status == 0
    cells = json.loads((tmp_path / "table.json").read_text())
    assert all(c["method"] == "exhaustive" for c in cells)
    assert {(c["n"], c["d"]) for c in cells} == {(3, 1), (4, 3), (5, 3),
                                                (6, 4), (7, 5), (8, 5)}


def test_verify_paper(capsys):
    status, captured = run(capsys, "verify-paper")
    assert status == 0
    assert "verification passed" in captured.out
    assert "[FAIL]" not in captured.out


# Imports every hullforge module, runs the commands through `main`, and
# prints as JSON each module-level dict, list, set or bytearray whose length
# the commands changed, and each cached function (`functools.lru_cache`)
# whose cache size they changed.  It runs in a fresh interpreter, so that no
# earlier test has filled such a memo before the first count.
_MODULE_STATE_SCRIPT = """
import contextlib, importlib, io, json, pkgutil, sys
import hullforge
from hullforge.cli import main

for info in pkgutil.walk_packages(hullforge.__path__, "hullforge."):
    importlib.import_module(info.name)

def lengths():
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "hullforge":
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (dict, list, set, bytearray)):
                sizes[f"{name}.{attr}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{name}.{attr}"] = value.cache_info().currsize
            elif isinstance(value, type) and value.__module__ == name:
                # the lru_caches on the methods of the module's own classes
                for method, member in vars(value).items():
                    if hasattr(member, "cache_info"):
                        sizes[f"{name}.{attr}.{method}"] = member.cache_info().currsize
    return sizes

before = lengths()
statuses = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        statuses.append(main(argv))
after = lengths()
print(json.dumps({"statuses": statuses, "changed": {
    key: [before.get(key), after.get(key)] for key in before.keys() | after.keys()
    if before.get(key) != after.get(key)}}))
"""


def test_commands_leave_no_module_state(fixture_file):
    # every result comes from the call that returns it: no command leaves a
    # module-level memo behind, nor a memo on a class.  Only the per-k
    # constant tables may fill: the simplex generators (seen in construct
    # and in search, which imports it), the walk's projective geometry with
    # its lane columns, and the Gram tables of both engines: the k = 3
    # walks' (3, 2) and the (9, 5) search's 4 x 4 lifts' (4, 2)
    commands = [
        ["table", "--max-n", "22", "--k", "3", "--exhaustive-max-n", "22"],
        ["search", "16", "3", "--hull", "1", "--target-d", "12"],
        ["search", "9", "5", "--hull", "1", "--target-d", "4",
         "--budget", "2048", "--seed", "1"],
        ["analyze", str(fixture_file), "--eaqecc"],
        ["verify-paper"],
    ]
    done = run_python("-c", _MODULE_STATE_SCRIPT, json.dumps(commands), timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    constant = {"hullforge.construct.simplex_matrix",
                "hullforge.search.simplex_matrix", "hullforge.search._geometry",
                "hullforge.search._ProjectiveGeometry.columns",
                "hullforge.search._gram_table"}
    assert "hullforge.search._geometry" in report["changed"]
    assert report["changed"]["hullforge.search._gram_table"] == [0, 2]
    assert {key: sizes for key, sizes in report["changed"].items()
            if key not in constant} == {}
    assert report["statuses"] == [0] * len(commands)


@pytest.mark.parametrize("k", ["2", "3"])
def test_search_refuses_lengths_past_64_bit_lanes_at_once(k):
    # the k = 2 and k = 3 columns refuse a length too long for the walk's
    # 64-bit weight lanes before their first walk, instead of walking every
    # shorter length first
    start = time.perf_counter()
    done = run_python("-m", "hullforge.cli", "search", "99999999999999999999", k,
                      timeout=10)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "error: n=99999999999999999999 is too large for 64-bit weight lanes"]
    assert elapsed < 1


def test_verify_paper_reports_table6_mismatch(capsys, monkeypatch):
    # a wrong paper distance at (10, 7) makes the table cell (10, 6) [4;2],
    # where the stored witness gives [3;2]
    row = list(bounds._TABLE5_ROWS[10])
    row[6] = 4
    monkeypatch.setitem(bounds._TABLE5_ROWS, 10, tuple(row))
    status, captured = run(capsys, "verify-paper")
    assert status == 1
    assert any(line.startswith("[FAIL] EAQECC table")
               for line in captured.out.splitlines())
    assert captured.out.endswith("verification FAILED\n")


def test_table_unwritable_out(capsys):
    status, captured = run(capsys, "table", "--max-n", "4",
                           "--out", "/nonexistent/dir/x")
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")


def _verify_paper_fails(capsys, label):
    status, captured = run(capsys, "verify-paper")
    assert status == 1
    fails = [ln for ln in captured.out.splitlines() if ln.startswith("[FAIL]")]
    assert len(fails) == 1 and fails[0].startswith(f"[FAIL] {label}")
    assert captured.out.endswith("verification FAILED\n")
    return captured.out


def test_verify_paper_reports_griesmer_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(cli._GRIESMER_K3_OFFSET, 5, 4)
    _verify_paper_fails(capsys, "Griesmer k=3 residue table")


def test_verify_paper_reports_k2_case_table_mismatch(capsys, monkeypatch):
    # a hull-1 multiplicity vector among the case-table vectors
    monkeypatch.setattr(cli, "_table1_vectors", lambda s: [(0, 0, 0, 1, 2)])
    _verify_paper_fails(capsys, "k=2 case table")


def test_verify_paper_reports_table6_error(capsys, monkeypatch):
    entry = eaqecc.table6_entry

    def failing(n, k):
        if (n, k) == (10, 6):
            raise OutOfRangeError("no stored witness")
        return entry(n, k)

    monkeypatch.setattr(eaqecc, "table6_entry", failing)
    out = _verify_paper_fails(capsys, "EAQECC table")
    assert "(10, 6, 'error: no stored witness', (3, 2))" in out


README = Path(__file__).resolve().parents[1] / "README.md"


def _parser_options():
    """{(subcommand, --flag)} for every option of `cli.build_parser()`."""
    options = set()
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options |= {(name, flag) for a in sub._actions
                            if not isinstance(a, argparse._HelpAction)
                            for flag in a.option_strings}
    return options


def _readme_options():
    """{(subcommand, --flag)} named in README's CLI section, which writes
    each flag after its subcommand: one `hullforge <sub> ...` line of a code
    block, or one inline span `<sub> --flag`.  A flag named anywhere else in
    the section is returned with subcommand None."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    mentions = [line.split(" #")[0] for block in fence.findall(section)
                for line in block.splitlines()]
    mentions += re.findall(r"`([^`\n]+)`", fence.sub("", section))
    named = set()
    for mention in mentions:
        words = mention.split()
        if words[:1] == ["hullforge"]:
            words = words[1:]
        named |= {(words[0], w) for w in words[1:] if w.startswith("--")}
    anywhere = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    return named | {(None, f) for f in anywhere - {f for _, f in named}}


def test_readme_names_exactly_the_parser_options():
    # a flag the docs name must be accepted by its subcommand, so docs that
    # still name a removed flag fail here; every option must be documented
    documented, accepted = _readme_options(), _parser_options()
    assert documented - accepted == set()
    assert accepted - documented == set()
