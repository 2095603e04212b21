import csv
import json

import pytest

from hullforge import matfmt
from hullforge.cli import main
from hullforge.code import LinearCode
from hullforge.construct import fixture


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


def test_analyze_eaqecc_enumerates_code_and_dual_once(fixture_file, capsys,
                                                     monkeypatch):
    calls = []
    count_weights = LinearCode._count_weights

    def counting(self, cap):
        calls.append((self.n, self.k))
        return count_weights(self, cap)

    monkeypatch.setattr(LinearCode, "_count_weights", counting)
    status, captured = run(capsys, "analyze", str(fixture_file), "--eaqecc",
                           "--format", "json")
    assert status == 0
    assert json.loads(captured.out)["eaqecc"] == [[9, 3, 5, 4], [9, 4, 4, 3]]
    # one enumeration of the code, one of its Hermitian dual
    assert sorted(calls) == [(9, 4), (9, 5)]


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
    # the dual side exceeds the enumeration cap; distance shown as unknown
    assert "[[23,19,?;2]]" in captured.out


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


def test_search_rejects_other_hull_dims(capsys):
    assert main(["search", "8", "2", "--hull", "2"]) == 2


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


def test_verify_paper_skip_table6(capsys):
    status, captured = run(capsys, "verify-paper", "--skip-table6")
    assert status == 0
    assert "EAQECC table" not in captured.out
