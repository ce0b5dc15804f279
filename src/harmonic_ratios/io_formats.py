"""Text formats for polynomials, series, and certificates.

Polynomial files: a `dim n` header, then one term per line in the form
`<num>/<den> : e1 e2 ... en`, sorted in the graded-then-prec order.  Lines
starting with `#` and blank lines are ignored.  Writing then parsing
reproduces the object bit-exactly.

Series files add `center x1 ... xn` and `maxdeg N` header lines.
Certificates are flat `key = value` blocks with exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .certificates import BoundCertificate
from .multiindex import MultiIndex
from .polynomial import Polynomial
from .series import TruncatedSeries


class FormatError(ValueError):
    pass


def _format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_fraction(text: str) -> Fraction:
    # Fraction also reads exponent form, where a few bytes such as 1e9999999
    # build a huge integer; the format is p/q (or a plain decimal)
    if "e" in text or "E" in text:
        raise FormatError(f"bad rational {text!r} (want p/q, no exponent)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}") from exc


def _meaningful_lines(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _parse_term(line: str, dim: int) -> Tuple[MultiIndex, Fraction]:
    if ":" not in line:
        raise FormatError(f"term line missing ':': {line!r}")
    coeff_text, exp_text = line.split(":", 1)
    coeff = _parse_fraction(coeff_text.strip())
    parts = exp_text.split()
    if len(parts) != dim:
        raise FormatError(f"expected {dim} exponents in {line!r}")
    try:
        alpha = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"bad exponent in {line!r}") from exc
    if any(e < 0 for e in alpha):
        raise FormatError(f"negative exponent in {line!r}")
    return alpha, coeff


def _format_terms(p: Polynomial, headers: List[str], comment: str) -> str:
    """Comment lines, then ``headers``, then one line per term of p."""
    lines = [f"# {c}" for c in comment.splitlines()] + headers
    for alpha, coeff in p.sorted_terms():
        lines.append(f"{_format_fraction(coeff)} : " + " ".join(map(str, alpha)))
    return "\n".join(lines) + "\n"


def format_polynomial(p: Polynomial, comment: str = "") -> str:
    return _format_terms(p, [f"dim {p.dim}"], comment)


def _header_int(line: str) -> int:
    try:
        return int(line.split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad header {line!r}") from exc


def _header_dim(line: str) -> int:
    dim = _header_int(line)
    if dim < 1:
        raise FormatError("dimension must be >= 1")
    return dim


def _parse_terms(lines: List[str], dim: int) -> Dict[MultiIndex, Fraction]:
    terms: Dict[MultiIndex, Fraction] = {}
    for line in lines:
        alpha, coeff = _parse_term(line, dim)
        if alpha in terms:
            raise FormatError(f"duplicate term {alpha}")
        terms[alpha] = coeff
    return terms


def parse_polynomial(text: str) -> Polynomial:
    lines = _meaningful_lines(text)
    if not lines or not lines[0].startswith("dim "):
        raise FormatError("polynomial file must start with a 'dim n' header")
    dim = _header_dim(lines[0])
    return Polynomial._trusted(dim, _parse_terms(lines[1:], dim))


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
    coeffs = _parse_terms(lines[3:], dim)
    for alpha in coeffs:  # a zero coefficient is still out of range
        if sum(alpha) > max_degree:
            raise FormatError(f"index {alpha} exceeds truncation degree {max_degree}")
    return TruncatedSeries._trusted(dim, coeffs, center=center, max_degree=max_degree)


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


def parse_certificate(text: str) -> BoundCertificate:
    fields: Dict[str, str] = {}
    for line in _meaningful_lines(text):
        if "=" not in line:
            raise FormatError(f"certificate line missing '=': {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        return BoundCertificate(
            a0=_parse_fraction(fields["a0"]),
            r=_parse_fraction(fields["r"]),
            k=int(fields["k"]),
            n=int(fields["n"]),
            A=_parse_fraction(fields["A"]),
            R=tuple(_parse_fraction(t) for t in fields["R"].split()),
        )
    except KeyError as exc:
        raise FormatError(f"certificate missing field {exc}") from exc
    except FormatError:
        raise
    except ValueError as exc:  # int() of k or n, or the constants' checks
        raise FormatError(f"bad certificate: {exc}") from exc
