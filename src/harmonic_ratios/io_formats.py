"""Text formats for polynomials, series, and certificates.

Polynomial files: a `dim n` header, then one term per line in the form
`<num>/<den> : e1 e2 ... en`, sorted in the graded-then-prec order.  Lines
starting with `#` and blank lines are ignored.  Writing then parsing
reproduces the object bit-exactly.

The parsers build a polynomial's packed store (see ``polynomial``) straight
from ints: a term line of plain ASCII digits, `[-+]p[/q] : e1 ... en`, is
matched by one compiled pattern per dimension, and any other line goes to
the per-line checker ``_parse_term``, which accepts what ``Fraction`` reads
and words every ``FormatError``.  The formatter writes each term's reduced
p/q straight from the store, in key order, which is the graded-then-prec
order.  No ``Fraction`` is built for a term either way.

Series files add `center x1 ... xn` and `maxdeg N` header lines.
Certificates are flat `key = value` blocks with exact rationals.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

from .certificates import BoundCertificate
from .multiindex import MultiIndex
from .polynomial import Polynomial, _over_lcm, _Packing, _packing, _repacked
from .series import TruncatedSeries


class FormatError(ValueError):
    pass


def _format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _quote(text: str) -> str:
    """``text`` for an error message: quoted, and cut after 32 characters."""
    return repr(text) if len(text) <= 32 else f"{text[:32]!r}..."


def _exceeded_digit_limit(text: str) -> int:
    """``sys.get_int_max_str_digits()`` if ``text`` has a run of more
    digits than that limit allows ``int`` to read, else 0."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit:
        return limit
    return 0


def _parse_fraction(text: str) -> Fraction:
    # Fraction also reads exponent form, where a few bytes such as 1e9999999
    # build a huge integer; the format is p/q (or a plain decimal)
    if "e" in text or "E" in text:
        raise FormatError(f"bad rational {_quote(text)} (want p/q, no exponent)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        limit = _exceeded_digit_limit(text)
        if limit:
            raise FormatError(
                f"rational {_quote(text)} has more digits than "
                f"sys.get_int_max_str_digits() allows ({limit})"
            ) from None
        raise FormatError(f"bad rational {_quote(text)}") from exc


def _meaningful_lines(text: str) -> List[str]:
    lines = map(str.strip, text.splitlines())
    return [line for line in lines if line and line[0] != "#"]


def _parse_term(line: str, dim: int) -> Tuple[MultiIndex, Fraction]:
    if ":" not in line:
        raise FormatError(f"term line missing ':': {_quote(line)}")
    coeff_text, exp_text = line.split(":", 1)
    coeff = _parse_fraction(coeff_text.strip())
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


def _format_terms(p: Polynomial, headers: List[str], comment: str) -> str:
    """Comment lines, then ``headers``, then one line per term of p, in key
    order, each coefficient reduced to lowest terms."""
    lines = [f"# {c}" for c in comment.splitlines()] + headers
    pk, nums, den = p._store
    # the exponents read off the key's fields as _Packing.unpack does, as
    # text at once: a third of the formatter's time
    field, shifts, gcd = pk.field, pk.shifts, math.gcd
    for key in sorted(nums):
        n = nums[key]
        g = gcd(n, den)
        exponents = " ".join([str(key >> s & field) for s in shifts])
        lines.append(f"{n // g}/{den // g} : {exponents}")
    return "\n".join(lines) + "\n"


def format_polynomial(p: Polynomial, comment: str = "") -> str:
    return _format_terms(p, [f"dim {p.dim}"], comment)


def _header_int(line: str) -> int:
    try:
        return int(line.split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad header {_quote(line)}") from exc


def _header_dim(line: str) -> int:
    dim = _header_int(line)
    if dim < 1:
        raise FormatError("dimension must be >= 1")
    return dim


@functools.lru_cache(maxsize=None)
def _term_pattern(dim: int) -> re.Pattern:
    """A term line of ``dim`` exponents in plain ASCII digits, whitespace
    stripped: groups are the numerator, the denominator (None if absent)
    and the exponents."""
    exponents = "[ \t]+".join(["([0-9]+)"] * dim)
    return re.compile(rf"([-+]?[0-9]+)(?:/([0-9]+))?[ \t]*:[ \t]*{exponents}")


def _parse_terms(
    lines: List[str], dim: int
) -> Tuple[_Packing, Dict[int, Tuple[int, int]]]:
    """Each term line's reduced coefficient (numerator, positive
    denominator) by packed exponent, in file order, zero terms kept, and
    the packing of the keys, wide enough for every exponent.

    A line that ``_term_pattern`` matches is read with ``int`` alone.  Any
    other line, and a matched one with a zero denominator or more digits
    than ``int`` reads, is read by ``_parse_term``, which raises the
    ``FormatError``.
    """
    fullmatch, gcd = _term_pattern(dim).fullmatch, math.gcd
    pk = _packing(dim, 0)
    bits, top = pk.bits, pk.top
    terms: Dict[int, Tuple[int, int]] = {}
    for line in lines:
        m, d = fullmatch(line), 0
        if m is not None:
            try:
                n, d, *alpha = map(int, m.groups("1"))
            except ValueError:  # more digits than int reads
                pass
        if d:
            if d != 1:
                g = gcd(n, d)
                n, d = n // g, d // g
        else:
            alpha, c = _parse_term(line, dim)
            n, d = c.numerator, c.denominator
        key = sum(alpha)
        if key > top:  # a wider packing, and the keys so far under it
            old, pk = pk, _packing(dim, key)
            bits, top = pk.bits, pk.top
            terms = _repacked(terms, old, pk)
        # _Packing.pack, inline: a call per term line cost a sixth of the
        # parse
        for e in reversed(alpha):
            key = key << bits | e
        if key in terms:
            raise FormatError(f"duplicate term {tuple(alpha)}")
        terms[key] = n, d
    return pk, terms


def parse_polynomial(text: str) -> Polynomial:
    lines = _meaningful_lines(text)
    if not lines or not lines[0].startswith("dim "):
        raise FormatError("polynomial file must start with a 'dim n' header")
    dim = _header_dim(lines[0])
    pk, terms = _parse_terms(lines[1:], dim)
    return Polynomial._from_store(dim, pk, *_over_lcm(terms))


def format_series(s: TruncatedSeries, comment: str = "") -> str:
    center = "center " + " ".join(_format_fraction(c) for c in s.center)
    return _format_terms(s, [f"dim {s.dim}", center, f"maxdeg {s.max_degree}"], comment)


def parse_series(text: str) -> TruncatedSeries:
    lines = _meaningful_lines(text)
    if len(lines) < 3:
        raise FormatError("series file needs dim, center, and maxdeg headers")
    if not lines[0].startswith("dim "):
        raise FormatError("series file must start with a 'dim n' header")
    dim = _header_dim(lines[0])
    if not lines[1].startswith("center"):
        raise FormatError("second header must be 'center ...'")
    center = tuple(_parse_fraction(t) for t in lines[1].split()[1:])
    if len(center) != dim:
        raise FormatError("center length does not match dim")
    if not lines[2].startswith("maxdeg"):
        raise FormatError("third header must be 'maxdeg N'")
    max_degree = _header_int(lines[2])
    if max_degree < 0:
        raise FormatError("truncation degree must be >= 0")
    pk, terms = _parse_terms(lines[3:], dim)
    for key in terms:  # a zero coefficient is still out of range
        if key >> pk.degree_shift > max_degree:
            raise FormatError(
                f"index {pk.unpack(key)} exceeds truncation degree {max_degree}"
            )
    return TruncatedSeries._from_store(
        dim, pk, *_over_lcm(terms), center=center, max_degree=max_degree
    )


def format_certificate(cert: BoundCertificate) -> str:
    lines = [
        f"a0 = {_format_fraction(cert.a0)}",
        f"r = {_format_fraction(cert.r)}",
        f"k = {cert.k}",
        f"n = {cert.n}",
        f"A = {_format_fraction(cert.A)}",
        "R = " + " ".join(_format_fraction(ri) for ri in cert.R),
        "polydisc = " + " ".join(_format_fraction(p) for p in cert.polydisc),
    ]
    return "\n".join(lines) + "\n"


def _certificate_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:  # int()'s own message holds the whole text
        raise FormatError(f"bad certificate: {name} {_quote(text)} is not an integer") from None


def parse_certificate(text: str) -> BoundCertificate:
    fields: Dict[str, str] = {}
    for line in _meaningful_lines(text):
        if "=" not in line:
            raise FormatError(f"certificate line missing '=': {_quote(line)}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        return BoundCertificate(
            a0=_parse_fraction(fields["a0"]),
            r=_parse_fraction(fields["r"]),
            k=_certificate_int(fields["k"], "k"),
            n=_certificate_int(fields["n"], "n"),
            A=_parse_fraction(fields["A"]),
            R=tuple(_parse_fraction(t) for t in fields["R"].split()),
        )
    except KeyError as exc:
        raise FormatError(f"certificate missing field {exc}") from exc
    except FormatError:
        raise
    except ValueError as exc:  # the constants' checks
        raise FormatError(f"bad certificate: {exc}") from exc
