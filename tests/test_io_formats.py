"""Bit-exact text round trips for polynomials, series, and certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonic_ratios import Polynomial, TruncatedSeries, bound_certificate
from harmonic_ratios.io_formats import (
    FormatError,
    format_certificate,
    format_polynomial,
    format_series,
    parse_certificate,
    parse_polynomial,
    parse_series,
)


def rationals():
    return st.fractions(min_value=-100, max_value=100, max_denominator=97)


def poly_strategy(dim=3, max_degree=5):
    index = st.tuples(*[st.integers(0, max_degree)] * dim).filter(
        lambda a: sum(a) <= max_degree
    )
    return st.dictionaries(index, rationals(), max_size=8).map(
        lambda t: Polynomial(dim, t)
    )


class TestPolynomialFormat:
    @given(poly_strategy())
    def test_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p)) == p

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\ndim 2\n# term\n1/2 : 1 0\n"
        p = parse_polynomial(text)
        assert p.coefficient((1, 0)) == Fraction(1, 2)

    def test_sorted_output(self):
        p = Polynomial(2, {(0, 2): 1, (1, 0): 1, (2, 0): 1})
        lines = format_polynomial(p).strip().splitlines()
        assert lines[1].endswith("1 0")       # degree 1 first
        assert lines[2].endswith("2 0")       # then degree 2 in prec order
        assert lines[3].endswith("0 2")

    @pytest.mark.parametrize("bad", [
        "",
        "1/2 : 1 0",
        "dim 2\n1/2 1 0",
        "dim 2\n1/2 : 1",
        "dim 2\n1/0 : 1 0",
        "dim 2\nx : 1 0",
        "dim 2\n1/2 : 1 -1",
        "dim 1\n1e3 : 0",
        "dim 1\n1E-2 : 0",
        "dim 2\n1 : 1 0\n2 : 1 0",
        "dim x\n1 : 1 0",
        "dim 0",
        "dim -1",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_polynomial(bad)


class TestSeriesFormat:
    @given(poly_strategy(dim=2, max_degree=4))
    def test_round_trip(self, p):
        s = TruncatedSeries.from_polynomial(p, 4, (Fraction(1, 3), Fraction(-2, 7)))
        assert parse_series(format_series(s)) == s

    def test_headers_required(self):
        with pytest.raises(FormatError):
            parse_series("dim 2\nmaxdeg 3\n1 : 0 0")
        with pytest.raises(FormatError):
            parse_series("dim 2\ncenter 0/1\nmaxdeg 3")

    @pytest.mark.parametrize("bad", [
        "dim x\ncenter 0 0\nmaxdeg 3",
        "dim 2\ncenter 0 0\nmaxdeg x",
        "dim 2\ncenter 0 0\nmaxdeg -1",
        "dim 2\ncenter 0 0\nmaxdeg 1\n1 : 2 0",
        "dim 0\ncenter\nmaxdeg 1",
        "dim 1\ncenter 1E-2\nmaxdeg 1",
        "dim 1\ncenter 0\nmaxdeg 1\n1e3 : 0",
    ])
    def test_rejects_bad_header_values_and_degrees(self, bad):
        with pytest.raises(FormatError):
            parse_series(bad)

    def test_zero_terms_are_dropped_but_still_range_checked(self):
        text = "dim 2\ncenter 0 1/2\nmaxdeg 2\n0 : 1 1\n-3/4 : 0 1\n"
        s = parse_series(text)
        assert s == TruncatedSeries(2, (0, Fraction(1, 2)), 2, {(0, 1): Fraction(-3, 4)})
        assert list(s.terms) == [(0, 1)]
        assert parse_polynomial("dim 2\n0 : 1 1\n1 : 0 0\n").terms == {(0, 0): 1}
        with pytest.raises(FormatError, match="exceeds truncation degree 1"):
            parse_series("dim 2\ncenter 0 0\nmaxdeg 1\n0 : 1 1\n")

    def test_byte_identical_reserialization(self):
        s = TruncatedSeries(2, (0, Fraction(1, 2)), 3, {(1, 2): Fraction(-3, 4)})
        text = format_series(s)
        assert format_series(parse_series(text)) == text


class TestCertificateFormat:
    def test_round_trip(self):
        cert = bound_certificate(10, Fraction(1, 2), 2, 3, 4)
        parsed = parse_certificate(format_certificate(cert))
        assert parsed == cert

    def test_missing_field(self):
        with pytest.raises(FormatError):
            parse_certificate("a0 = 1/1\nr = 1/1\nk = 0\nn = 2\nA = 2/1")

    def test_missing_equals(self):
        with pytest.raises(FormatError):
            parse_certificate("a0 1/1")

    @pytest.mark.parametrize("key,value", [
        ("k", "x"),
        ("n", "2.5"),
        ("A", "-2"),
        ("k", "-1"),
        ("R", "8/1"),
        ("r", "1/0"),
        ("r", "1E-2"),
        ("A", "1e3"),
    ])
    def test_bad_values_raise_format_error(self, key, value):
        cert = bound_certificate(1, 1, 1, 1, 2)
        lines = [
            f"{key} = {value}" if line.split("=")[0].strip() == key else line
            for line in format_certificate(cert).splitlines()
        ]
        with pytest.raises(FormatError):
            parse_certificate("\n".join(lines))


# Words of the three formats, with small exponent forms, which the parsers
# reject (a large one such as 1e99999999 would take minutes to build).
WORDS = [
    "dim", "center", "maxdeg", "a0", "r", "k", "n", "A", "R", "polydisc",
    "0", "1", "2", "3", "-1", "1/2", "-3/4", "1/0", "x", "2.5", ":", "=", "#",
    "1e3", "2E-1",
]
VALID = {
    "polynomial": "dim 2\n1/2 : 1 0\n-3 : 0 2\n",
    "series": "dim 2\ncenter 0 1/2\nmaxdeg 3\n1 : 1 1\n",
    "certificate": format_certificate(bound_certificate(1, 1, 1, 1, 2)),
}
PARSERS = {
    "polynomial": parse_polynomial,
    "series": parse_series,
    "certificate": parse_certificate,
}


def _swap_word(case):
    line, i, word = case
    parts = line.split() or [""]
    parts[i % len(parts)] = word
    return " ".join(parts)


def text_like(valid: str):
    """Arbitrary text, or a valid document with each line kept, edited or
    replaced by format words, in order or shuffled, so that many inputs get
    past the first checks."""
    lines = valid.splitlines()
    words = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)

    def variants(line):
        edited = st.tuples(st.just(line), st.integers(0, 5), st.sampled_from(WORDS))
        return st.one_of(st.just(line), edited.map(_swap_word), words)

    in_order = st.tuples(*[variants(line) for line in lines]).map("\n".join)
    shuffled = st.lists(
        st.sampled_from(lines).flatmap(variants), max_size=10
    ).map("\n".join)
    return st.one_of(st.text(max_size=200), in_order, shuffled)


class TestParsersRaiseOnlyFormatError:
    @pytest.mark.parametrize("kind", sorted(PARSERS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_text(self, kind, data):
        text = data.draw(text_like(VALID[kind]))
        try:
            PARSERS[kind](text)
        except FormatError:
            pass
