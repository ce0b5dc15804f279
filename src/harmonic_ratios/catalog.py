"""Curated harmonic functions and pairs sharing a nodal set.

Polynomial entries carry their exact ``Polynomial`` body.  Transcendental
entries carry a coefficient generator that produces exact rational Taylor
coefficients; exactness is only possible where the function's derivative
values are rational, so the transcendental generators are anchored at the
origin (requesting another center raises).

Built-in names:

* ``saddle2d``   x^2 - y^2
* ``imz2``       Im(x+iy)^2 = 2xy
* ``rezk:k``     Re(x+iy)^k, any k >= 1
* ``imzk:k``     Im(x+iy)^k, any k >= 1
* ``paperH``     x^2 - y^2 + z^3 - 3x^2 z  (two nodal domains, non-Lipschitz)
* ``expsin``     e^y sin x
* ``coshsin``    cosh y sin x

``expsin`` and ``coshsin`` share the nodal set {sin x = 0}; their ratio is
e^y / cosh y = 1 + tanh y.  The pair is a standard textbook example of
distinct harmonic functions with a common zero set; it is registered with
that provenance note in the manifest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .io_formats import format_polynomial
from .polynomial import Polynomial
from .regions import Region
from .series import TruncatedSeries


class UnknownEntry(KeyError):
    pass


class ParameterOutOfRange(ValueError):
    """A parametric entry's parameter beyond its stated bound."""


# the largest k of rezk:k and imzk:k: (x+iy)^2048 has 2049 terms and builds
# in about 0.2 s, and from k = 1030 on its largest coefficient is past the
# float range anyway
MAX_ZK_DEGREE = 2048


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dimension: int
    kind: str  # "polynomial" | "transcendental"
    zero_set: str
    provenance: str
    polynomial: Optional[Polynomial] = None
    series_at_origin: Optional[Callable[[int], Dict[tuple, Fraction]]] = None
    eval_arrays: Optional[Callable[..., np.ndarray]] = None

    def taylor(self, center: Sequence, max_degree: int) -> TruncatedSeries:
        """Exact Taylor truncation about a rational center."""
        if max_degree < 0:
            raise ValueError("degree must be non-negative")
        if self.kind == "polynomial":
            return TruncatedSeries.from_polynomial(self.polynomial, max_degree, center)
        if any(Fraction(c) != 0 for c in center):
            raise ValueError(
                f"entry {self.name} has exact coefficients at the origin only"
            )
        coeffs = self.series_at_origin(max_degree)
        return TruncatedSeries(
            self.dimension, (Fraction(0),) * self.dimension, max_degree, coeffs
        )

    def __call__(self, *coords: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation."""
        if self.kind == "polynomial":
            return self.polynomial.evaluate_array(list(coords))
        return self.eval_arrays(*coords)


@dataclass(frozen=True)
class SharedZeroPair:
    u: CatalogEntry
    v: CatalogEntry
    common_zero: str
    region: Region


def leading_expansion(entry, probe: int = 0) -> TruncatedSeries:
    """The Taylor series at the origin of a catalog entry, or of any object
    with its ``dimension`` and ``taylor``, through the first of the degrees
    ``probe``, ``2 probe + 1``, ... at which a term is nonzero: so through
    at least its vanishing order.  The entry must not vanish identically
    (no catalog entry does)."""
    while (s := entry.taylor((0,) * entry.dimension, probe)).leading_degree() < 0:
        probe = 2 * probe + 1
    return s


def expand(u, v, n_out: int) -> Tuple[TruncatedSeries, TruncatedSeries]:
    """u and v through degree n_out + k, the inputs of a ratio series of
    degree ``n_out``, where k is v's leading degree.

    A parsed series (a ``TruncatedSeries``) is taken as it is.  A catalog
    entry is expanded at the origin; for such a v, k comes from
    ``leading_expansion(v, n_out)``.
    """
    if isinstance(v, TruncatedSeries):
        k = max(v.leading_degree(), 0)  # a zero series fails in the division
    else:
        k = leading_expansion(v, n_out).leading_degree()
    return tuple(
        s if isinstance(s, TruncatedSeries) else s.taylor((0,) * s.dimension, n_out + k)
        for s in (u, v)
    )


# -- polynomial bodies -------------------------------------------------------


def _re_im_zk(k: int) -> Tuple[Polynomial, Polynomial]:
    """Re and Im of (x+iy)^k as exact 2D polynomials."""
    if k < 1:
        raise ValueError("k must be >= 1")
    parts: Tuple[Dict[tuple, Fraction], ...] = ({}, {})  # Re, Im
    for j in range(k + 1):
        # the term of y^j carries i^j, which cycles 1, i, -1, -i
        parts[j % 2][(k - j, j)] = Fraction((-1) ** (j // 2) * comb(k, j))
    return Polynomial(2, parts[0]), Polynomial(2, parts[1])


_PAPER_H = Polynomial(
    3,
    {
        (2, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(-1),
        (0, 0, 3): Fraction(1),
        (2, 0, 1): Fraction(-3),
    },
)


# -- transcendental coefficient generators -----------------------------------

# derivatives at 0 of the one-variable factors, which repeat with period 4
_SIN, _EXP, _COSH = (0, 1, 0, -1), (1, 1, 1, 1), (1, 0, 1, 0)


def _taylor_coeffs(derivatives: Tuple[int, ...], n: int) -> List[Fraction]:
    """Taylor coefficients at 0 through degree n of a function whose
    derivatives at 0 are ``derivatives`` repeated."""
    out, fact = [], 1
    for i in range(n + 1):
        fact *= max(i, 1)
        out.append(Fraction(derivatives[i % 4], fact))
    return out


def _product_series(fx: Tuple[int, ...], gy: Tuple[int, ...], n: int):
    """Taylor coefficients at the origin through degree n of f(x) g(y),
    with f and g given by their derivatives at 0."""
    coeffs: Dict[tuple, Fraction] = {}
    g = _taylor_coeffs(gy, n)
    for i, a in enumerate(_taylor_coeffs(fx, n)):
        if a == 0:
            continue
        for j, b in enumerate(g[:n + 1 - i]):
            if b:
                coeffs[(i, j)] = a * b
    return coeffs


# -- registry -----------------------------------------------------------------


def _static_entries() -> Dict[str, CatalogEntry]:
    re2, im2 = _re_im_zk(2)
    saddle = CatalogEntry(
        name="saddle2d",
        dimension=2,
        kind="polynomial",
        zero_set="the two lines y = x and y = -x; four nodal sectors",
        provenance="classical degree-2 harmonic saddle",
        polynomial=Polynomial(2, {(2, 0): 1, (0, 2): -1}),
    )
    imz2 = CatalogEntry(
        name="imz2",
        dimension=2,
        kind="polynomial",
        zero_set="the coordinate axes x = 0 and y = 0",
        provenance="imaginary part of (x+iy)^2",
        polynomial=im2,
    )
    paper_h = CatalogEntry(
        name="paperH",
        dimension=3,
        kind="polynomial",
        zero_set=(
            "slice z=0: two orthogonal lines x = +-y; slices z != 0: two "
            "hyperbola-like branches; exactly two nodal domains near 0"
        ),
        provenance="cubic harmonic with non-Lipschitz nodal domains",
        polynomial=_PAPER_H,
    )
    expsin = CatalogEntry(
        name="expsin",
        dimension=2,
        kind="transcendental",
        zero_set="the vertical lines x = m*pi, m integer",
        provenance=(
            "e^y sin x; shares its zero set with cosh y sin x (standard "
            "example of distinct harmonic functions with one nodal set; "
            "not taken from the reference examples)"
        ),
        series_at_origin=functools.partial(_product_series, _SIN, _EXP),
        eval_arrays=lambda x, y: np.exp(y) * np.sin(x),
    )
    coshsin = CatalogEntry(
        name="coshsin",
        dimension=2,
        kind="transcendental",
        zero_set="the vertical lines x = m*pi, m integer",
        provenance="cosh y sin x; pairs with expsin",
        series_at_origin=functools.partial(_product_series, _SIN, _COSH),
        eval_arrays=lambda x, y: np.cosh(y) * np.sin(x),
    )
    return {
        e.name: e for e in (saddle, imz2, paper_h, expsin, coshsin)
    }


_REGISTRY = _static_entries()


def catalog_get(name: str) -> CatalogEntry:
    """Look up an entry; ``rezk:k`` and ``imzk:k`` are parametric."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    for prefix, pick in (("rezk:", 0), ("imzk:", 1)):
        if name.startswith(prefix):
            try:
                k = int(name[len(prefix):])
            except ValueError as exc:
                raise UnknownEntry(name) from exc
            if k < 1:
                raise UnknownEntry(name)
            if k > MAX_ZK_DEGREE:
                raise ParameterOutOfRange(
                    f"{name}: k is at most {MAX_ZK_DEGREE} in rezk:k and imzk:k"
                )
            body = _re_im_zk(k)[pick]
            part = "real" if pick == 0 else "imaginary"
            return CatalogEntry(
                name=name,
                dimension=2,
                kind="polynomial",
                zero_set=f"{2 * k} equally spaced rays through the origin",
                provenance=f"{part} part of (x+iy)^{k}",
                polynomial=body,
            )
    raise UnknownEntry(name)


def catalog_names() -> List[str]:
    return sorted(_REGISTRY) + ["rezk:k", "imzk:k"]


def shared_pair(u_name: str, v_name: str) -> SharedZeroPair:
    u, v = catalog_get(u_name), catalog_get(v_name)
    if u.dimension != v.dimension:
        raise ValueError("pair members must share a dimension")
    if (u_name, v_name) in (("expsin", "coshsin"), ("coshsin", "expsin")):
        return SharedZeroPair(
            u=u,
            v=v,
            common_zero="the vertical lines x = m*pi",
            region=Region.box((-2.0, -2.0), (2.0, 2.0)),
        )
    if u_name == v_name:
        return SharedZeroPair(
            u=u,
            v=v,
            common_zero=u.zero_set,
            region=Region.box((-1.0,) * u.dimension, (1.0,) * u.dimension),
        )
    raise UnknownEntry(f"no registered shared-zero pair ({u_name}, {v_name})")


def manifest(max_degree: int = 6) -> List[Dict[str, object]]:
    """JSON-ready description of every static entry."""
    out = []
    for name in sorted(_REGISTRY):
        e = _REGISTRY[name]
        item: Dict[str, object] = {
            "name": e.name,
            "dimension": e.dimension,
            "kind": e.kind,
            "zero_set": e.zero_set,
            "provenance": e.provenance,
        }
        if e.kind == "polynomial":
            item["body"] = format_polynomial(e.polynomial)
        else:
            item["taylor_at_origin"] = format_polynomial(
                e.taylor((0,) * e.dimension, max_degree)
            )
        out.append(item)
    return out

