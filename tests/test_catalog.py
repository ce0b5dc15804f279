"""The built-in catalog of harmonic functions and shared-zero pairs."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from harmonic_ratios import Polynomial, TruncatedSeries
from harmonic_ratios.catalog import (
    UnknownEntry,
    catalog_get,
    catalog_names,
    expand,
    manifest,
    shared_pair,
)


class TestLookup:
    def test_static_names_resolve(self):
        for name in ("saddle2d", "imz2", "paperH", "expsin", "coshsin"):
            assert catalog_get(name).name == name

    def test_parametric_names(self):
        assert catalog_get("rezk:5").polynomial.total_degree() == 5
        assert catalog_get("imzk:3").polynomial.total_degree() == 3

    def test_unknown_raises(self):
        with pytest.raises(UnknownEntry):
            catalog_get("nope")
        with pytest.raises(UnknownEntry):
            catalog_get("rezk:0")
        with pytest.raises(UnknownEntry):
            catalog_get("rezk:x")

    def test_names_listing(self):
        names = catalog_names()
        assert "paperH" in names and "rezk:k" in names


class TestHarmonicity:
    @pytest.mark.parametrize("name", ["saddle2d", "imz2", "paperH", "rezk:4", "imzk:5"])
    def test_polynomial_entries(self, name):
        assert catalog_get(name).polynomial.laplacian().is_zero()

    @pytest.mark.parametrize("name", ["expsin", "coshsin"])
    def test_transcendental_truncations(self, name):
        # the Laplacian of a degree-N truncation of a harmonic function
        # vanishes through degree N-2
        s = catalog_get(name).taylor((0, 0), 10)
        lap = Polynomial(s.dim, s.terms).laplacian()
        for alpha, c in lap.terms.items():
            assert sum(alpha) > 8, (alpha, c)


class TestTaylorData:
    def test_expsin_coefficients(self):
        s = catalog_get("expsin").taylor((0, 0), 4)
        assert s.coefficient((1, 0)) == 1          # sin x ~ x
        assert s.coefficient((1, 1)) == 1          # x * y
        assert s.coefficient((3, 0)) == Fraction(-1, 6)
        assert s.coefficient((1, 2)) == Fraction(1, 2)
        assert s.coefficient((2, 0)) == 0

    @pytest.mark.parametrize("name, y_part", [
        ("expsin", lambda j: Fraction(1, factorial(j))),
        ("coshsin", lambda j: Fraction(1 - j % 2, factorial(j))),
    ])
    def test_transcendental_coefficients_in_closed_form(self, name, y_part):
        n = 15
        want = {}
        for i in range(1, n + 1, 2):  # sin x: (-1)^((i - 1) / 2) / i!
            for j in range(n + 1 - i):
                c = Fraction((-1) ** (i // 2), factorial(i)) * y_part(j)
                if c:
                    want[(i, j)] = c
        assert catalog_get(name).taylor((0, 0), n).coefficients == want

    def test_polynomial_entry_any_rational_center(self):
        s = catalog_get("paperH").taylor((Fraction(1, 3), 0, Fraction(1, 3)), 3)
        # value at the center is the constant coefficient
        assert s.coefficient((0, 0, 0)) == catalog_get("paperH").polynomial.evaluate(
            (Fraction(1, 3), 0, Fraction(1, 3))
        )

    def test_transcendental_off_origin_rejected(self):
        with pytest.raises(ValueError):
            catalog_get("expsin").taylor((1, 0), 4)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            catalog_get("saddle2d").taylor((0, 0), -1)


class TestEvaluation:
    def test_vectorized_call(self):
        e = catalog_get("expsin")
        x = np.array([0.3, -1.1])
        y = np.array([0.5, 0.2])
        assert np.allclose(e(x, y), np.exp(y) * np.sin(x))

    def test_rezk_sign_changes_on_circle(self):
        for k in (2, 3, 4):
            e = catalog_get(f"rezk:{k}")
            theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
            vals = e(np.cos(theta), np.sin(theta))
            flips = int(np.sum(np.sign(vals) != np.sign(np.roll(vals, 1))))
            assert flips == 2 * k


class TestPairs:
    def test_shared_pair_registered(self):
        pair = shared_pair("expsin", "coshsin")
        assert pair.common_zero.startswith("the vertical lines")
        assert pair.region.kind == "box"

    def test_same_name_pair(self):
        pair = shared_pair("saddle2d", "saddle2d")
        assert pair.u.name == pair.v.name

    def test_unregistered_pair(self):
        with pytest.raises(UnknownEntry):
            shared_pair("saddle2d", "imz2")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shared_pair("paperH", "saddle2d")


class RecordingEntry:
    """A pair member that records the degrees it is expanded to."""

    def __init__(self, name):
        self.entry = catalog_get(name)
        self.dimension = self.entry.dimension
        self.degrees = []

    def taylor(self, center, max_degree):
        self.degrees.append(max_degree)
        return self.entry.taylor(center, max_degree)


class TestExpand:
    @pytest.mark.parametrize("u, v, n_out, probes, k", [
        ("expsin", "coshsin", 40, [40], 1),
        # coshsin = x + ... vanishes through degree 0; the probe goes up
        ("expsin", "coshsin", 0, [0, 1], 1),
        # Re(x+iy)^6 vanishes through degree 5
        ("rezk:6", "rezk:6", 2, [2, 5, 11], 6),
        ("paperH", "paperH", 3, [3], 2),
    ])
    def test_catalog_entries_through_n_out_plus_k(self, u, v, n_out, probes, k):
        u_rec, v_rec = RecordingEntry(u), RecordingEntry(v)
        u_t, v_t = expand(u_rec, v_rec, n_out)
        assert v_rec.degrees == probes + [n_out + k] and u_rec.degrees == [n_out + k]
        assert v_t.leading_degree() == k
        origin = (0,) * v_rec.dimension
        assert u_t == catalog_get(u).taylor(origin, n_out + k)
        assert v_t == catalog_get(v).taylor(origin, n_out + k)

    def test_parsed_series_taken_as_they_are(self):
        # k = 2 is read from the parsed divisor; the catalog numerator is
        # expanded through 3 + 2
        v = TruncatedSeries(2, (0, 0), 9, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})
        u_t, v_t = expand(catalog_get("expsin"), v, 3)
        assert v_t is v
        assert u_t == catalog_get("expsin").taylor((0, 0), 5)
        u = TruncatedSeries(2, (0, 0), 4, {(1, 1): Fraction(3)})
        u_t, v_t = expand(u, catalog_get("imz2"), 3)
        assert u_t is u and v_t == catalog_get("imz2").taylor((0, 0), 5)

    def test_zero_parsed_divisor_is_left_to_the_division(self):
        v = TruncatedSeries(2, (0, 0), 4, {})
        u_t, v_t = expand(catalog_get("expsin"), v, 0)
        assert v_t is v and u_t.max_degree == 0


class TestManifest:
    def test_every_static_entry_listed(self):
        entries = manifest()
        names = {e["name"] for e in entries}
        assert names == {"saddle2d", "imz2", "paperH", "expsin", "coshsin"}
        for e in entries:
            assert e["zero_set"] and e["provenance"]
