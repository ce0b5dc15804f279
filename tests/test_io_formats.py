"""Bit-exact text round trips for polynomials, series, and certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonic_ratios import Polynomial, TruncatedSeries, bound_certificate
from harmonic_ratios.io_formats import (
    FormatError,
    _quote,
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


LONG = "x" * 5000
DIGITS = "1" + "0" * 5000
CERTIFICATE = format_certificate(bound_certificate(1, 1, 1, 1, 2))


class TestErrorsQuoteAtMost32Characters:
    @pytest.mark.parametrize("parse, text, message", [
        (parse_polynomial, f"dim 2\n{LONG} : 2 0\n", "bad rational 'xxx"),
        (parse_polynomial, f"dim 2\n{DIGITS}e1 : 2 0\n", "bad rational '100"),
        (parse_polynomial, f"dim 2\n{DIGITS}/1 : 2 0\n", "rational '100"),
        (parse_polynomial, f"dim 2\n{LONG}\n", "term line missing ':': 'xxx"),
        (parse_polynomial, f"dim 2\n1 : 2 0 {LONG}\n", "expected 2 exponents in '1 :"),
        (parse_polynomial, f"dim 2\n1 : 2 {DIGITS}\n", "bad exponent in '1 :"),
        (parse_polynomial, f"dim 2\n{DIGITS[:4000]} : 2 -1\n", "negative exponent in '100"),
        (parse_polynomial, f"dim {LONG}\n", "bad header 'dim xxx"),
        (parse_series, f"dim 2\ncenter 0 0\nmaxdeg {LONG}\n", "bad header 'maxdeg xxx"),
        (parse_certificate, f"{LONG}\n", "certificate line missing '=': 'xxx"),
        (parse_certificate, CERTIFICATE.replace("k = 1", f"k = {LONG}"),
         "bad certificate: k 'xxx"),
        (parse_certificate, CERTIFICATE.replace("n = 2", f"n = {DIGITS}"),
         "bad certificate: n '100"),
    ], ids=[
        "rational", "exponent-form", "digit-limit", "missing-colon", "exponent-count",
        "exponent-digits", "negative-exponent", "dim-header", "maxdeg-header",
        "missing-equals", "certificate-k", "certificate-n",
    ])
    def test_message(self, parse, text, message):
        with pytest.raises(FormatError) as info:
            parse(text)
        error = str(info.value)
        assert error.startswith(message) and "'..." in error
        assert len(error) < 120


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


# -- the Fraction parsers and formatter that the packed store replaced ------
#
# Kept as oracles: they read every term line into a Fraction, and the packed
# parsers must accept the same texts, give the same terms in the same order,
# raise the same FormatError texts and format to the same bytes.


def fraction_parse_rational(text):
    if "e" in text or "E" in text:
        raise FormatError(f"bad rational {_quote(text)} (want p/q, no exponent)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {_quote(text)}") from exc


def fraction_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def fraction_term(line, dim):
    if ":" not in line:
        raise FormatError(f"term line missing ':': {_quote(line)}")
    coeff_text, exp_text = line.split(":", 1)
    coeff = fraction_parse_rational(coeff_text.strip())
    parts = exp_text.split()
    if len(parts) != dim:
        raise FormatError(f"expected {dim} exponents in {_quote(line)}")
    try:
        alpha = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"bad exponent in {_quote(line)}") from exc
    if any(e < 0 for e in alpha):
        raise FormatError(f"negative exponent in {_quote(line)}")
    return alpha, coeff


def fraction_header_int(line):
    try:
        return int(line.split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad header {_quote(line)}") from exc


def fraction_header_dim(line):
    dim = fraction_header_int(line)
    if dim < 1:
        raise FormatError("dimension must be >= 1")
    return dim


def fraction_terms(lines, dim):
    terms = {}
    for line in lines:
        alpha, coeff = fraction_term(line, dim)
        if alpha in terms:
            raise FormatError(f"duplicate term {alpha}")
        terms[alpha] = coeff
    return terms


def fraction_parse_polynomial(text):
    """(dim, terms) with the zero terms dropped."""
    lines = fraction_lines(text)
    if not lines or not lines[0].startswith("dim "):
        raise FormatError("polynomial file must start with a 'dim n' header")
    dim = fraction_header_dim(lines[0])
    return dim, {a: c for a, c in fraction_terms(lines[1:], dim).items() if c}


def fraction_parse_series(text):
    """(dim, center, max_degree, terms) with the zero terms dropped."""
    lines = fraction_lines(text)
    if len(lines) < 3:
        raise FormatError("series file needs dim, center, and maxdeg headers")
    if not lines[0].startswith("dim "):
        raise FormatError("series file must start with a 'dim n' header")
    dim = fraction_header_dim(lines[0])
    if not lines[1].startswith("center"):
        raise FormatError("second header must be 'center ...'")
    center = tuple(fraction_parse_rational(t) for t in lines[1].split()[1:])
    if len(center) != dim:
        raise FormatError("center length does not match dim")
    if not lines[2].startswith("maxdeg"):
        raise FormatError("third header must be 'maxdeg N'")
    max_degree = fraction_header_int(lines[2])
    if max_degree < 0:
        raise FormatError("truncation degree must be >= 0")
    terms = fraction_terms(lines[3:], dim)
    for alpha in terms:
        if sum(alpha) > max_degree:
            raise FormatError(f"index {alpha} exceeds truncation degree {max_degree}")
    return dim, center, max_degree, {a: c for a, c in terms.items() if c}


def fraction_format(headers, terms):
    lines = list(headers)
    for alpha, c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0][::-1])):
        lines.append(f"{c.numerator}/{c.denominator} : " + " ".join(map(str, alpha)))
    return "\n".join(lines) + "\n"


def coefficient_texts():
    """Coefficient tokens in every form the format reads: p/q, signed,
    plain integers, decimals, with unit, small and huge denominators."""
    num = st.one_of(st.integers(0, 999), st.integers(0, 10**40))
    den = st.one_of(
        st.sampled_from([1, 1, 2, 3, 12, 10**30 + 7, 2**64]), st.integers(1, 10**6)
    )
    sign = st.sampled_from(["", "-", "+"])
    return st.one_of(
        st.builds(lambda s, n, d: f"{s}{n}/{d}", sign, num, den),
        st.builds(lambda s, n: f"{s}{n}", sign, num),
        st.builds(lambda s, n, f: f"{s}{n}.{f}", sign, num, st.integers(0, 10**9)),
        st.builds(lambda s, f: f"{s}.{f:03d}", sign, st.integers(0, 999)),
        st.builds(lambda n, d: f"{n} / {d}", num, den),
    )


def exponent_texts():
    """Exponents mostly small, some past 127 and 255, some zero-padded."""
    value = st.one_of(st.integers(0, 4), st.integers(0, 300), st.just(1000))
    return st.builds(
        lambda e, pad: f"{e:0{pad}d}", value, st.sampled_from([1, 1, 1, 3])
    )


@st.composite
def term_texts(draw, dim, max_terms=12):
    """Term lines of one dimension, with comment and blank lines between
    them, their exponents sometimes repeated."""
    space = st.sampled_from(["", " ", "  ", "\t"])
    lines = []
    for _ in range(draw(st.integers(0, max_terms))):
        if lines and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
        exponents = draw(st.lists(exponent_texts(), min_size=dim, max_size=dim))
        sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
        lines.append(
            draw(st.sampled_from(["", " "])) + draw(coefficient_texts()) + draw(space)
            + ":" + draw(space) + sep.join(exponents)
        )
    return lines


@st.composite
def polynomial_texts(draw):
    dim = draw(st.integers(1, 4))
    return "\n".join([f"dim {dim}", *draw(term_texts(dim))]) + "\n"


@st.composite
def series_texts(draw):
    dim = draw(st.integers(1, 4))
    center = [draw(coefficient_texts().filter(lambda t: " " not in t)) for _ in range(dim)]
    max_degree = draw(st.sampled_from([0, 3, 40, 400, 2000]))
    return "\n".join([
        f"dim {dim}", "center " + " ".join(center), f"maxdeg {max_degree}",
        *draw(term_texts(dim)),
    ]) + "\n"


def same_outcome(parse, oracle, text):
    """The parsed object and the oracle's result, or both FormatErrors with
    one text (then None, None)."""
    try:
        expected = oracle(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == str(exc)
        return None, None
    return parse(text), expected


ORACLE_SETTINGS = settings(max_examples=150, deadline=None)


class TestPackedParsersAgainstFractionParsers:
    @ORACLE_SETTINGS
    @given(text=polynomial_texts())
    def test_polynomials(self, text):
        p, expected = same_outcome(parse_polynomial, fraction_parse_polynomial, text)
        if p is None:
            return
        dim, terms = expected
        assert p.dim == dim
        assert list(p.terms.items()) == list(terms.items())
        assert format_polynomial(p) == fraction_format([f"dim {dim}"], terms)

    @ORACLE_SETTINGS
    @given(text=series_texts())
    def test_series(self, text):
        s, expected = same_outcome(parse_series, fraction_parse_series, text)
        if s is None:
            return
        dim, center, max_degree, terms = expected
        assert (s.dim, s.center, s.max_degree) == (dim, center, max_degree)
        assert list(s.terms.items()) == list(terms.items())
        headers = [
            f"dim {dim}",
            "center " + " ".join(f"{c.numerator}/{c.denominator}" for c in center),
            f"maxdeg {max_degree}",
        ]
        assert format_series(s) == fraction_format(headers, terms)

    @pytest.mark.parametrize("kind", ["polynomial", "series"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_adversarial_text(self, kind, data):
        text = data.draw(text_like(VALID[kind]))
        parse = PARSERS[kind]
        oracle = {"polynomial": fraction_parse_polynomial, "series": fraction_parse_series}
        got, expected = same_outcome(parse, oracle[kind], text)
        if got is not None:
            assert list(got.terms.items()) == list(expected[-1].items())

    @pytest.mark.parametrize("kind, text", [
        # the first wide degree comes after narrow ones, so the keys so far
        # move to a wider packing
        ("polynomial", "dim 2\n1/2 : 1 0\n-3 : 0 2\n7/1000000000000000000000000000007 : 300 0\n"
                       "2 : 0 1000\n-1/3 : 129 1\n"),
        ("polynomial", "dim 3\n+4 : 0 0 0\n-0.25 : 1 1 1\n.5 : 2 0 0\n1 / 3 : 0 2 0\n"),
        ("polynomial", "dim 1\n0/7 : 3\n-0 : 4\n5/10 : 0\n"),
        ("polynomial", "dim 2\n1 : 300 0\n2 : 300 0\n"),
        ("polynomial", "dim 2\n1/0 : 300 0\n"),
        ("polynomial", "dim 2\n1 : 1 0\n1 : 1 x\n"),
        ("series", "dim 2\ncenter 0 1/2\nmaxdeg 400\n3/18446744073709551616 : 200 200\n"),
        ("series", "dim 2\ncenter 0 -1.5\nmaxdeg 3\n1 : 1 1\n0 : 3 1\n"),
        ("series", "dim 1\ncenter 0\nmaxdeg 2\n1 : 0\n1 : 0\n"),
    ])
    def test_directed_cases(self, kind, text):
        oracle = {"polynomial": fraction_parse_polynomial, "series": fraction_parse_series}
        got, expected = same_outcome(PARSERS[kind], oracle[kind], text)
        if got is not None:
            assert list(got.terms.items()) == list(expected[-1].items())
            headers = format_series(got).splitlines()[:3] if kind == "series" else [
                f"dim {got.dim}"
            ]
            formatted = (format_series if kind == "series" else format_polynomial)(got)
            assert formatted == fraction_format(headers, expected[-1])
