import numpy as np
import pytest

from hullforge import gf4, matfmt
from hullforge.exceptions import ParseError


def test_parse_basic():
    text = "3 2\n1 0 w\n0 1 W\n"
    m = matfmt.parse(text)
    assert m.tolist() == [[1, 0, 2], [0, 1, 3]]


def test_parse_digits():
    text = "3 2\n1 0 2\n0 1 3\n"
    m = matfmt.parse(text, digits=True)
    assert m.tolist() == [[1, 0, 2], [0, 1, 3]]


def test_parse_comments_and_blank_lines():
    text = "# witness matrix\n\n2 1\n# body next\n1 w\n"
    m = matfmt.parse(text)
    assert m.tolist() == [[1, 2]]


def test_parse_errors_report_location():
    with pytest.raises(ParseError):
        matfmt.parse("")
    with pytest.raises(ParseError) as exc:
        matfmt.parse("2 1\n1 x\n")
    assert exc.value.line == 2
    assert exc.value.column == 3
    with pytest.raises(ParseError):
        matfmt.parse("2 2\n1 0\n")  # missing row
    with pytest.raises(ParseError):
        matfmt.parse("2 1\n1 0 1\n")  # too many symbols
    with pytest.raises(ParseError):
        matfmt.parse("banana\n1\n")
    with pytest.raises(ParseError) as exc:
        matfmt.parse("a b\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        matfmt.parse("0 1\n\n")


def test_digit_alphabet_rejected_by_default():
    with pytest.raises(ParseError):
        matfmt.parse("2 1\n1 2\n")


def test_render_round_trip(rng):
    for _ in range(20):
        m = rng.integers(0, 4, size=(3, 6), dtype=np.uint8)
        text = matfmt.render(m)
        assert text.endswith("\n")
        assert np.array_equal(matfmt.parse(text), m)


def test_render_canonical_form():
    m = gf4.as_matrix([[1, 2, 3, 0]])
    assert matfmt.render(m) == "4 1\n1 w W 0\n"
    with_comment = matfmt.render(m, comment="hello\nworld")
    assert with_comment.startswith("# hello\n# world\n4 1\n")
    assert np.array_equal(matfmt.parse(with_comment), m)


def test_load_save_round_trip(tmp_path, rng):
    m = rng.integers(0, 4, size=(2, 5), dtype=np.uint8)
    path = tmp_path / "m.g4m"
    matfmt.save(path, m, comment="test")
    assert np.array_equal(matfmt.parse(path.read_text()), m)
    raw = path.read_bytes()
    assert b"\r" not in raw
