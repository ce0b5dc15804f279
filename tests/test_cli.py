"""End-to-end runs of the command-line front end."""

import argparse
import json
import os
import sys
from fractions import Fraction

import pytest

from harmonic_ratios import Polynomial, TruncatedSeries, catalog
from harmonic_ratios.cli import build_parser, main
from harmonic_ratios.io_formats import (
    format_polynomial, format_series, parse_polynomial, parse_series,
)
from harmonic_ratios import nodal, verify
from harmonic_ratios.nodal import (
    COUNT_CELL_BYTES, COUNT_PLANE_BYTES, CRITICAL_CELL_BYTES, CRITICAL_SEED_BYTES,
    PLOT_NODE_BYTES,
)

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def write_poly(path, p):
    path.write_text(format_polynomial(p))
    return str(path)


def run(tmp_path, *args):
    return main(["--out", str(tmp_path), *args])


class TestDivide:
    def test_textbook_quotient(self, tmp_path):
        dividend = write_poly(tmp_path / "P.poly", X**3 * Y - X * Y**3)
        divisor = write_poly(tmp_path / "Q.poly", X * Y)
        assert run(tmp_path, "divide", "--dividend", dividend, "--divisor", divisor) == 0
        quotient = parse_poly_file(tmp_path / "quotient.poly")
        assert quotient == X * X - Y * Y
        report = json.loads((tmp_path / "divide_report.json").read_text())
        assert report["passed"] and report["residual_verified"]

    def test_not_divisible_exits_one(self, tmp_path):
        dividend = write_poly(tmp_path / "P.poly", X * X + Y * Y)
        divisor = write_poly(tmp_path / "Q.poly", X * Y)
        assert run(tmp_path, "divide", "--dividend", dividend, "--divisor", divisor) == 1
        report = json.loads((tmp_path / "divide_report.json").read_text())
        assert not report["passed"] and report["error"] == "NotDivisible"

    def test_missing_file_exits_two(self, tmp_path):
        assert run(tmp_path, "divide", "--dividend", "no.poly", "--divisor", "nope") == 2

    def test_wrong_quotient_is_a_failed_check(self, tmp_path, monkeypatch):
        from harmonic_ratios import division

        real = division._divide_form

        def off_by_one(target, divisor, pk):
            (quotient, den), remainder = real(target, divisor, pk)
            # the constant term, packed key 0, gains 1
            quotient[0] = quotient.get(0, 0) + den
            return (quotient, den), remainder

        monkeypatch.setattr(division, "_divide_form", off_by_one)
        dividend = write_poly(tmp_path / "P.poly", X**3 * Y - X * Y**3)
        divisor = write_poly(tmp_path / "Q.poly", X * Y)
        assert run(tmp_path, "divide", "--dividend", dividend, "--divisor", divisor) == 1
        report = json.loads((tmp_path / "divide_report.json").read_text())
        assert not report["passed"] and report["error"] == "ResidualNonzero"


def parse_poly_file(path):
    return parse_polynomial(path.read_text())


class TestSeries:
    def test_catalog_pair(self, tmp_path):
        assert run(tmp_path, "series", "--pair", "expsin,coshsin", "--degree", "4") == 0
        report = json.loads((tmp_path / "series_report.json").read_text())
        assert report["residual_verified"]
        assert (tmp_path / "ratio.series").exists()

    @pytest.mark.parametrize("args", [
        ("--numerator", "rezk:6", "--denominator", "rezk:6", "--degree", "2"),
        ("--pair", "rezk:6,rezk:6", "--degree", "1"),
        # a denominator that vanishes to order 6, beyond the output degree 0
        ("--pair", "rezk:6,rezk:6", "--degree", "0"),
    ])
    def test_divisor_of_high_order_gives_one(self, tmp_path, args):
        # Re(x+iy)^6 vanishes to order 6 at the origin: the inputs are
        # expanded through the output degree plus 6
        assert run(tmp_path, "series", *args) == 0
        report = json.loads((tmp_path / "series_report.json").read_text())
        assert report["residual_verified"]
        f = parse_series((tmp_path / "ratio.series").read_text())
        assert f.max_degree == int(args[-1])
        assert f.coefficients == {(0, 0): 1}

    def test_file_numerator_over_catalog_divisor(self, tmp_path):
        # the parsed numerator is taken as it is; the catalog denominator
        # x^2 - y^2 (order 2) is expanded through degree 3 + 2
        u = TruncatedSeries.from_polynomial((X * X - Y * Y) * (X + Polynomial.constant(2, 1)), 5)
        (tmp_path / "u.series").write_text(format_series(u))
        assert run(tmp_path, "series", "--numerator", str(tmp_path / "u.series"),
                   "--denominator", "saddle2d", "--degree", "3") == 0
        f = parse_series((tmp_path / "ratio.series").read_text())
        assert f.coefficients == {(0, 0): 1, (1, 0): 1}

    def test_bad_pair_exits_two(self, tmp_path):
        assert run(tmp_path, "series", "--pair", "expsin", "--degree", "4") == 2

    @pytest.mark.parametrize("files", [
        ("--numerator", "saddle2d"),
        ("--denominator", "saddle2d"),
        ("--numerator", "expsin", "--denominator", "coshsin"),
    ])
    def test_pair_with_a_file_flag_exits_two(self, tmp_path, capsys, files):
        # both input forms at once: neither may be dropped silently
        assert run(tmp_path, "series", "--pair", "expsin,coshsin", *files,
                   "--degree", "3") == 2
        assert capsys.readouterr().err.startswith("error: give either --pair or both")
        assert not list(tmp_path.iterdir())


class TestCertify:
    def test_pass(self, tmp_path):
        code = run(tmp_path, "certify", "--a", "1", "--c", "1", "--r", "1",
                   "--k", "1", "--n", "2", "--n-check", "6")
        assert code == 0
        report = json.loads((tmp_path / "certify_report.json").read_text())
        assert report["verify"]["passed"]
        assert (tmp_path / "bound.cert").exists()

    def test_ill_formed_certificate_is_a_failed_check(self, tmp_path, monkeypatch):
        from harmonic_ratios.certificates import BoundCertificate

        monkeypatch.setattr(BoundCertificate, "is_well_formed", lambda self: False)
        assert run(tmp_path, "certify", "--a", "1", "--c", "1", "--r", "1",
                   "--k", "1", "--n", "2") == 1
        report = json.loads((tmp_path / "certify_report.json").read_text())
        assert not report["passed"] and report["error"] == "IllFormedCertificate"

    def test_bad_rational_exits_two(self, tmp_path):
        assert run(tmp_path, "certify", "--a", "x", "--c", "1", "--r", "1",
                   "--k", "0", "--n", "2") == 2

    @pytest.mark.parametrize("flag", ["--a", "--c", "--r"])
    @pytest.mark.parametrize("value", ["1e5", "1E-2", "1/0"])
    def test_exponent_or_zero_denominator_exits_two(self, tmp_path, capsys, flag, value):
        args = {"--a": "1", "--c": "1", "--r": "1", flag: value}
        argv = [tok for item in args.items() for tok in item]
        assert run(tmp_path, "certify", *argv, "--k", "0", "--n", "2") == 2
        assert f"argument {flag}: bad rational" in capsys.readouterr().err

    def test_rational_past_the_int_string_limit_is_quoted_short(self, tmp_path, capsys):
        big = "1" + "0" * 5000
        assert run(tmp_path, "certify", "--a", big, "--c", "1", "--r", "1",
                   "--k", "1", "--n", "2") == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert "argument --a: bad rational '1000" in error and big not in error
        assert len(error.encode()) < 200
        limit = sys.get_int_max_str_digits()
        assert f"sys.get_int_max_str_digits() allows, {limit}" in error


class TestVerify:
    def test_harnack_box_flag(self, tmp_path):
        code = run(tmp_path, "verify", "harnack", "--pair", "expsin,coshsin",
                   "--box", "-1,1,-1,1", "--samples", "1e4")
        assert code == 0
        report = json.loads((tmp_path / "verify_harnack_report.json").read_text())
        assert abs(report["extremes"]["C_star"] - 7.389056) < 1e-2

    def test_max_default_region(self, tmp_path):
        code = run(tmp_path, "verify", "max", "--pair", "expsin,coshsin",
                   "--boundary-samples", "256", "--interior-samples", "256")
        assert code == 0

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["--out", str(out), "verify", "max", "--pair",
                         "expsin,coshsin", "--boundary-samples", "128",
                         "--interior-samples", "128"]) == 0
        assert (a / "verify_max_report.json").read_bytes() == \
               (b / "verify_max_report.json").read_bytes()

    def test_zero_samples_exits_two(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "harnack", "--pair", "expsin,coshsin",
                   "--samples", "0") == 2
        assert "error:" in capsys.readouterr().err

    def test_leading_forms_reach_the_vanishing_order(self, tmp_path):
        # Re(x+iy)^9 vanishes through degree 8: truncated there, every
        # sample point counted as a zero of a zero leading form
        assert run(tmp_path, "verify", "leading", "--pair", "rezk:9,rezk:9") == 0
        report = json.loads((tmp_path / "verify_leading_report.json").read_text())
        assert report["passed"] and report["extremes"]["zeros_found"] == 18

    def test_ortho(self, tmp_path):
        q = write_poly(tmp_path / "q.poly", X**3 - 3 * X * Y**2)
        assert run(tmp_path, "verify", "ortho", "--q", q, "--q2", "1",
                   "--samples", "1000") == 0


class TestNodal:
    def test_count_with_expectation(self, tmp_path):
        assert run(tmp_path, "nodal", "count", "--fn", "rezk:3",
                   "--ball", "0,0:1", "--res", "128", "--expect", "6") == 0
        assert run(tmp_path, "nodal", "count", "--fn", "rezk:3",
                   "--ball", "0,0:1", "--res", "128", "--expect", "7") == 1

    def test_plot_svg(self, tmp_path):
        assert run(tmp_path, "nodal", "plot", "--fn", "saddle2d",
                   "--box", "-1,1,-1,1", "--res", "48") == 0
        assert (tmp_path / "nodal_set.svg").exists()

    def test_3d_plot_keeps_the_zero_nodes(self, tmp_path, capsys):
        # x y z vanishes on node planes only: every point is a zero node
        x, y, z = (Polynomial.variable(3, i) for i in range(3))
        fn = write_poly(tmp_path / "xyz.poly", x * y * z)
        out = tmp_path / "out"
        assert run(out, "nodal", "plot", "--fn", fn, "--box", "-1,1,-1,1,-1,1",
                   "--res", "8") == 0
        assert capsys.readouterr().out.startswith("217 zero points")
        assert len((out / "nodal_set.csv").read_text().splitlines()) == 1 + 217

    @pytest.mark.parametrize("action", [
        ("count",), ("plot", "--res", "64"), ("critical", "--grid", "40"),
    ])
    def test_zero_polynomial_exits_two(self, tmp_path, capsys, action):
        # Z = {w = 0} is the whole box: not a nodal set
        fn = tmp_path / "zero.poly"
        fn.write_text("dim 2\n")
        out = tmp_path / "out"
        assert run(out, "nodal", action[0], "--fn", str(fn), "--box", "-1,1,-1,1",
                   *action[1:]) == 2
        assert capsys.readouterr().err == \
            "error: w is the zero polynomial: its zero set is the whole region\n"
        assert not out.exists()

    def test_missing_region_exits_two(self, tmp_path):
        assert run(tmp_path, "nodal", "count", "--fn", "saddle2d") == 2

    def test_bad_region_spec_exits_two(self, tmp_path):
        assert run(tmp_path, "nodal", "count", "--fn", "saddle2d",
                   "--ball", "0,0") == 2

    @pytest.mark.parametrize("args", [
        ("count", "--res", "0"),
        ("critical", "--grid", "0"),
        ("count", "--res", "-4"),
        ("plot", "--res", "0"),
    ])
    def test_grid_size_below_one_exits_two(self, tmp_path, capsys, args):
        assert run(tmp_path, "nodal", args[0], "--fn", "paperH",
                   "--ball", "0,0,0:0.5", *args[1:]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


# the flags each action reads, and no more
ACTION_FLAGS = {
    ("verify", "max"): {"--pair", "--ball", "--box", "--boundary-samples",
                        "--interior-samples", "--tol"},
    ("verify", "harnack"): {"--pair", "--ball", "--box", "--samples", "--floor"},
    ("verify", "ortho"): {"--q", "--q2", "--radius", "--samples", "--tol"},
    ("verify", "elliptic"): {"--pair", "--ball", "--box", "--samples", "--h0",
                             "--halvings", "--min-order"},
    ("verify", "leading"): {"--pair", "--samples", "--tol"},
    ("nodal", "count"): {"--fn", "--ball", "--box", "--res", "--band", "--expect"},
    ("nodal", "plot"): {"--fn", "--ball", "--box", "--res"},
    ("nodal", "critical"): {"--fn", "--ball", "--box", "--grid", "--tol"},
    ("catalog", "list"): set(),
    ("catalog", "dump"): {"--degree"},
}

# a value each flag accepts where its default is None
FLAG_VALUES = {"--pair": "expsin,coshsin", "--q": "saddle2d", "--fn": "saddle2d",
               "--ball": "0,0:1", "--box": "-1,1,-1,1", "--expect": "2"}


def action_parsers(command):
    """The parser of each action of ``command``, by action name."""
    (parser,) = [a.choices[command] for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    (actions,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions.choices


def flag_values(parser):
    """Each flag of ``parser`` but --help, with a value it accepts."""
    return {a.option_strings[-1]: FLAG_VALUES.get(a.option_strings[-1], str(a.default))
            for a in parser._actions if a.option_strings and a.dest != "help"}


def required_flags(parser):
    return {a.option_strings[-1] for a in parser._actions if a.required}


class TestActionFlags:
    """Each action of ``verify``, ``nodal`` and ``catalog`` has a parser of
    its own: a flag that only a sibling action reads is a usage error, and
    so is a flag not spelled in full."""

    @pytest.mark.parametrize("command,action", sorted(ACTION_FLAGS))
    def test_each_action_declares_the_flags_it_reads(self, command, action):
        parsers = action_parsers(command)
        assert sorted(parsers) == sorted(a for c, a in ACTION_FLAGS if c == command)
        assert set(flag_values(parsers[action])) == ACTION_FLAGS[command, action]
        # the input flags are required wherever they are declared
        assert required_flags(parsers[action]) == \
            {"--pair", "--q", "--fn"} & ACTION_FLAGS[command, action]

    @pytest.mark.parametrize("command,action", sorted(ACTION_FLAGS))
    def test_a_sibling_flag_exits_two(self, tmp_path, capsys, command, action):
        parsers = action_parsers(command)
        own = flag_values(parsers[action])
        # the required flags, and a region where the action takes one: a
        # run without it would exit 2 in nodal whatever the other flags
        base = [command, action]
        for flag in sorted(required_flags(parsers[action]) | {"--box"} & set(own)):
            base += [flag, own[flag]]
        foreign = {flag: value for parser in parsers.values()
                   for flag, value in flag_values(parser).items() if flag not in own}
        assert foreign or (command, action) == ("catalog", "dump")
        for flag, value in sorted(foreign.items()):
            assert run(tmp_path, *base, flag, value) == 2, flag
            err = capsys.readouterr().err
            assert sum("error:" in line for line in err.splitlines()) == 1, err
            assert f"unrecognized arguments: {flag}" in err
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,action", sorted(ACTION_FLAGS))
    def test_an_abbreviated_flag_exits_two(self, tmp_path, capsys, command, action):
        parsers = action_parsers(command)
        own = flag_values(parsers[action])
        options = [o for a in parsers[action]._actions for o in a.option_strings]
        base = [command, action]
        for flag in sorted(required_flags(parsers[action]) | {"--box"} & set(own)):
            base += [flag, own[flag]]
        # each flag less its last letter, where that prefix names only it
        cuts = {flag[:-1]: value for flag, value in own.items()
                if len(flag) > 3 and sum(o.startswith(flag[:-1]) for o in options) == 1}
        assert cuts or (command, action) == ("catalog", "list")
        for cut, value in sorted(cuts.items()):
            assert run(tmp_path, *base, cut, value) == 2, cut
            err = capsys.readouterr().err
            assert sum("error:" in line for line in err.splitlines()) == 1, err
            assert f"unrecognized arguments: {cut}" in err
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        # argparse takes an unambiguous prefix unless told not to: this
        # counted at --res 8 and exited 0
        ("nodal", "count", "--fn", "saddle2d", "--box", "-1,1,-1,1", "--re", "8",
         "--exp", "4"),
        ("--se=1", "catalog", "list"),
    ])
    def test_a_prefix_is_no_flag(self, tmp_path, capsys, args):
        assert run(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert "unrecognized arguments: " in err
        assert not list(tmp_path.iterdir())

    def test_every_parser_refuses_prefixes(self):
        parsers = [build_parser()]
        for parser in parsers:  # the list grows by each parser's sub-parsers
            assert parser.allow_abbrev is False, parser.prog
            parsers += [sub for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)
                        for sub in a.choices.values()]
        assert len(parsers) > len(ACTION_FLAGS)  # the walk reached the actions


class TestInputValidation:
    """Bad flag values are usage errors: an ``error:`` line and exit 2,
    before any report is written."""

    @pytest.mark.parametrize("args", [
        ("nodal", "count", "--fn", "rezk:3", "--box", "-1,1,-1,1", "--res", "64",
         "--band", "nan"),
        ("nodal", "count", "--fn", "rezk:3", "--box", "-1,1,-1,1", "--res", "64",
         "--band", "-1"),
        ("nodal", "count", "--fn", "rezk:3", "--box", "-1,1,-1,1", "--res", "64",
         "--band", "inf"),
        ("nodal", "critical", "--fn", "saddle2d", "--ball", "0,0:1", "--grid", "8",
         "--tol", "-1e-8"),
        ("nodal", "critical", "--fn", "saddle2d", "--ball", "0,0:1", "--grid", "8",
         "--tol", "nan"),
        ("series", "--pair", "expsin,coshsin", "--degree", "-1"),
        ("series", "--pair", "expsin,coshsin", "--degree", "2.5"),
        ("verify", "leading", "--pair", "expsin,coshsin", "--degree", "-1"),
        # the leading forms follow from the pair; there is no degree flag
        ("verify", "leading", "--pair", "expsin,coshsin", "--degree", "8"),
        ("catalog", "dump", "--degree", "-1"),
        # the input truncation follows from the divisor; there is no margin flag
        ("series", "--numerator", "expsin", "--denominator", "coshsin", "--degree", "5",
         "--extra-degree", "4"),
        ("certify", "--a", "1", "--c", "1", "--r", "1", "--k", "1", "--n", "2",
         "--n-check", "-1"),
        ("certify", "--a", "1", "--c", "1", "--r", "1", "--k", "-1", "--n", "2"),
        ("certify", "--a", "1", "--c", "1", "--r", "1", "--k", "1", "--n", "0"),
        ("verify", "elliptic", "--pair", "expsin,coshsin", "--halvings", "-1"),
        ("verify", "elliptic", "--pair", "expsin,coshsin", "--halvings", "0"),
        ("verify", "elliptic", "--pair", "expsin,coshsin", "--h0", "0"),
        ("verify", "elliptic", "--pair", "expsin,coshsin", "--h0", "nan"),
        ("verify", "elliptic", "--pair", "expsin,coshsin", "--min-order", "nan"),
        ("verify", "harnack", "--pair", "expsin,coshsin", "--floor", "nan"),
        ("verify", "harnack", "--pair", "expsin,coshsin", "--floor", "-1"),
        ("verify", "max", "--pair", "expsin,coshsin", "--tol", "nan"),
        ("verify", "ortho", "--q", "rezk:3", "--radius", "-1"),
        ("verify", "ortho", "--q", "rezk:3", "--radius", "inf"),
        ("nodal", "count", "--fn", "rezk:3", "--box", "-1,1,-1,1", "--res", "64",
         "--expect", "-1"),
        ("nodal", "count", "--fn", "rezk:3", "--box", "-1,1,-1,1", "--res", "64",
         "--expect", "x"),
        # a required input flag left out
        ("verify", "max"),
        ("verify", "harnack"),
        ("verify", "elliptic"),
        ("verify", "leading"),
        ("verify", "ortho"),
        # a region or a polynomial of the wrong dimension
        ("nodal", "plot", "--fn", "paperH", "--ball", "0,0:0.5"),
        ("nodal", "count", "--fn", "rezk:2", "--ball", "0,0,0:1"),
        ("verify", "max", "--pair", "expsin,coshsin", "--ball", "0,0,0:1"),
        ("verify", "ortho", "--q", "paperH"),
        ("verify", "ortho", "--q", "rezk:2", "--q2", "paperH"),
    ])
    def test_bad_flag_value_exits_two(self, tmp_path, capsys, args):
        assert run(tmp_path, *args) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        # past the count bound, numpy refused the size with a ValueError
        ("verify", "harnack", "--pair", "expsin,coshsin", "--samples", "1e300"),
        ("nodal", "count", "--fn", "paperH", "--ball", "0,0,0:0.5", "--res", "1e300"),
        # h0 * 0.5**2000 underflows to 0, and the residual divided by zero
        ("verify", "elliptic", "--pair", "expsin,coshsin", "--halvings", "2000"),
        # 0.5**1022 is the smallest positive normal float
        ("verify", "elliptic", "--pair", "expsin,coshsin", "--h0", "1",
         "--halvings", "1023"),
    ])
    def test_oversized_count_exits_two(self, tmp_path, capsys, args):
        assert run(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "internal error" not in err
        assert not list(tmp_path.iterdir())

    def test_long_count_is_quoted_short(self, tmp_path, capsys):
        big = "1" + "0" * 5000
        assert run(tmp_path, "verify", "harnack", "--pair", "expsin,coshsin",
                   "--samples", big) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert "argument --samples: bad count '1000" in error and big not in error
        assert "'..." in error and len(error.encode()) < 200
        assert not list(tmp_path.iterdir())

    def test_zero_volume_box_exits_two(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "harnack", "--pair", "expsin,coshsin",
                   "--box", "0,0,0,0") == 2
        assert "lo < hi" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("nodal", "count", "--fn", "rezk:3", "--ball", "0,0:nan", "--res", "16"),
        ("verify", "harnack", "--pair", "expsin,coshsin", "--ball", "0,0:nan",
         "--samples", "100"),
    ])
    def test_nan_radius_exits_two(self, tmp_path, capsys, args):
        assert run(tmp_path, *args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("u.series", "dim x\ncenter 0 0\nmaxdeg 3\n"),
        ("u.series", "dim 2\ncenter 0 0\nmaxdeg 1\n1/1 : 2 0\n"),
        ("u.poly", "dim 0\n"),
    ])
    def test_malformed_file_exits_two(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        if name.endswith(".series"):
            args = ("series", "--numerator", str(path), "--denominator", str(path),
                    "--degree", "1")
        else:
            args = ("divide", "--dividend", str(path), "--divisor", str(path))
        assert run(tmp_path / "out", *args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        # one sample per axis lands on the bounding box's corner, outside the ball
        ("--ball", "0.5,0.5:0.1", "--samples", "1"),
        # a floor above 1 rejects every ratio
        ("--box", "-1,1,-1,1", "--samples", "100", "--floor", "2"),
    ])
    def test_degenerate_region_or_vanishing_ratio_exits_two(self, tmp_path, capsys, args):
        assert run(tmp_path, "verify", "harnack", "--pair", "expsin,coshsin", *args) == 2
        assert "error:" in capsys.readouterr().err

    def test_checked_verify_flags_accept_valid_values(self, tmp_path):
        assert run(tmp_path, "verify", "elliptic", "--pair", "expsin,coshsin",
                   "--samples", "200", "--h0", "0.05", "--halvings", "1",
                   "--min-order", "1.5") == 0
        assert run(tmp_path, "verify", "harnack", "--pair", "expsin,coshsin",
                   "--samples", "100", "--floor", "0") == 0
        assert run(tmp_path, "verify", "max", "--pair", "expsin,coshsin",
                   "--boundary-samples", "64", "--interior-samples", "64",
                   "--tol", "0") == 0

    def test_band_zero_and_degree_zero_accepted(self, tmp_path):
        assert run(tmp_path, "nodal", "count", "--fn", "rezk:3", "--box",
                   "-1,1,-1,1", "--res", "64", "--band", "0", "--expect", "6") == 0
        assert run(tmp_path, "series", "--pair", "expsin,coshsin", "--degree", "0") == 0


class TestInternalError:
    def test_unexpected_exception_exits_three(self, tmp_path, capsys, monkeypatch):
        import harmonic_ratios.cli as cli

        def broken(args):
            raise RuntimeError("boom\non two lines")

        monkeypatch.setattr(cli, "cmd_catalog", broken)
        assert run(tmp_path, "catalog", "list") == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom on two lines\n"
        assert captured.out == ""


class TestCatalog:
    def test_list(self, tmp_path, capsys):
        assert run(tmp_path, "catalog", "list") == 0
        assert "paperH" in capsys.readouterr().out

    def test_dump_parses(self, tmp_path):
        assert run(tmp_path, "catalog", "dump", "--degree", "4") == 0
        report = json.loads((tmp_path / "catalog_dump_report.json").read_text())
        assert any(e["name"] == "expsin" for e in report["entries"])


class TestEnvironment:
    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARMONIC_RATIOS_OUT", str(tmp_path))
        assert main(["catalog", "list"]) == 0
        assert (tmp_path / "catalog_list_report.json").exists()


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    def test_several_calls_build_the_parser_once(self, tmp_path, monkeypatch):
        import harmonic_ratios.cli as cli

        builds = []
        real = cli.build_parser

        def counting():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        assert run(tmp_path, "catalog", "list") == 0
        assert run(tmp_path, "series", "--pair", "expsin,coshsin", "--degree", "-1") == 2
        assert run(tmp_path, "series", "--pair", "expsin,coshsin", "--degree", "2") == 0
        assert len(builds) == 1

    def test_out_dir_env_is_read_on_each_call(self, tmp_path, monkeypatch):
        first, env, flag = tmp_path / "first", tmp_path / "env", tmp_path / "flag"
        monkeypatch.delenv("HARMONIC_RATIOS_OUT", raising=False)
        assert run(first, "catalog", "list") == 0
        monkeypatch.setenv("HARMONIC_RATIOS_OUT", str(env))
        assert main(["catalog", "list"]) == 0
        assert (env / "catalog_list_report.json").exists()
        (env / "catalog_list_report.json").unlink()
        # --out still takes precedence over the environment
        assert run(flag, "catalog", "list") == 0
        assert (flag / "catalog_list_report.json").exists()
        assert not list(env.iterdir())

    def test_usage_error_leaves_no_state_behind(self, tmp_path, capsys):
        import harmonic_ratios.cli as cli

        argv = ["verify", "max", "--pair", "expsin,coshsin",
                "--boundary-samples", "64", "--interior-samples", "64"]
        cli._parser.cache_clear()
        assert run(tmp_path / "alone", *argv) == 0
        # a failed parse that set other values of the same flags
        assert main(["--out", str(tmp_path / "bad"), "--seed", "5", *argv,
                     "--tol", "nan"]) == 2
        assert "error:" in capsys.readouterr().err
        assert run(tmp_path / "after", *argv) == 0
        assert not (tmp_path / "bad").exists()
        assert (tmp_path / "after" / "verify_max_report.json").read_bytes() == \
               (tmp_path / "alone" / "verify_max_report.json").read_bytes()

    def test_help_is_the_parser_help(self, capsys):
        import harmonic_ratios.cli as cli

        assert main(["--help"]) == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()


class TestExitTwoInputs:
    """Inputs that once ended in an internal error (exit 3)."""

    def test_max_on_a_3d_box_exits_zero(self, tmp_path):
        # the pair's default region is the box [-1, 1]^3
        assert run(tmp_path, "verify", "max", "--pair", "paperH,paperH") == 0
        report = json.loads((tmp_path / "verify_max_report.json").read_text())
        assert report["passed"] and report["samples"]["boundary"] == 6 * 26 * 26

    @pytest.mark.parametrize("args", [
        # f = 1, so every residual is exactly 0
        ("--pair", "saddle2d,saddle2d"),
        # x +- h rounds to x at the smallest steps
        ("--pair", "expsin,coshsin", "--halvings", "60"),
    ])
    def test_vanishing_residual_exits_two(self, tmp_path, capsys, args):
        assert run(tmp_path, "verify", "elliptic", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: residual vanishes at h = ")
        assert "no decay order to fit" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, first, second", [
        ("divide", "dim 2\n1/1 : 1 1\n", "dim 3\n1/1 : 1 0 0\n"),
        ("series", "dim 2\ncenter 0 0\nmaxdeg 4\n1/1 : 1 1\n",
         "dim 3\ncenter 0 0 0\nmaxdeg 4\n1/1 : 1 0 0\n"),
        ("series", "dim 2\ncenter 0 0\nmaxdeg 4\n1/1 : 1 1\n",
         "dim 2\ncenter 1/2 0\nmaxdeg 4\n1/1 : 1 0\n"),
    ], ids=["divide-dims", "series-dims", "series-centers"])
    def test_mismatched_exact_inputs_exit_two(self, tmp_path, capsys, command, first, second):
        suffix = ".poly" if command == "divide" else ".series"
        paths = [tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"]
        for path, text in zip(paths, (first, second)):
            path.write_text(text)
        if command == "divide":
            args = ("divide", "--dividend", str(paths[0]), "--divisor", str(paths[1]))
        else:
            args = ("series", "--numerator", str(paths[0]), "--denominator",
                    str(paths[1]), "--degree", "2")
        assert run(tmp_path / "out", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err
        assert ("centers" if "1/2" in second else "dimension") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ("count", "--fn", "paperH", "--ball", "0,0,0:0.5", "--res", "1e6"),
        ("count", "--fn", "rezk:3", "--box", "-1,1,-1,1", "--res", "1e9"),
        ("plot", "--fn", "paperH", "--ball", "0,0,0:0.5", "--res", "1e6"),
        ("critical", "--fn", "paperH", "--ball", "0,0,0:0.5", "--grid", "1e6"),
    ])
    def test_sign_grid_beyond_physical_memory_exits_two(self, tmp_path, capsys, args):
        # about 10**18 grid points: no machine has that much memory
        points, size = {
            "count": (10**18, COUNT_CELL_BYTES),  # sign grid cells
            "plot": ((10**6 + 1) ** 3, PLOT_NODE_BYTES),  # grid nodes
            "critical": (10**18, CRITICAL_CELL_BYTES),  # grid cells, the scan
        }[args[0]]
        assert run(tmp_path, "nodal", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err
        assert f"{points} points" in err and f"{points * size} bytes" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, points, size", [
        (("critical", "--grid", "200"), 200**3, CRITICAL_CELL_BYTES),
        (("plot", "--res", "200"), 201**3, PLOT_NODE_BYTES),
    ])
    def test_peak_beyond_physical_memory_exits_two(
        self, tmp_path, capsys, monkeypatch, args, points, size
    ):
        # 8 bytes per cell or node fit in 64 MiB; the peak does not
        monkeypatch.setattr(nodal, "_physical_memory", lambda: 2**26)
        assert points * 8 <= 2**26 < points * size
        assert run(tmp_path, "nodal", args[0], "--fn", "paperH",
                   "--ball", "0,0,0:0.5", *args[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{points * size} bytes" in err
        assert not list(tmp_path.iterdir())

    def test_1d_count_beyond_physical_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        # a 1D grid is one slab: its 10^6 cells take about 42 MB at their
        # peak, far more than the 2^16-cell slab of 2D and 3D grids
        x = Polynomial.variable(1, 0)
        fn = write_poly(tmp_path / "w.poly", x * x * x - x.scale(Fraction(1, 4)))
        monkeypatch.setattr(nodal, "_physical_memory", lambda: 2**26)
        out = tmp_path / "out"
        assert run(out, "nodal", "count", "--fn", fn, "--ball", "0:1", "--res", "1e6") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --res 1000000 asks for 1000000 points of 1 byte(s)")
        assert f"{COUNT_PLANE_BYTES * 10**6} bytes besides" in err
        assert not out.exists()

    def test_seeds_beyond_physical_memory_exit_two(self, tmp_path, capsys, monkeypatch):
        # rezk:12 vanishes to order 12 at the origin, so 64052 of the 90000
        # cells at grid 300 seed a Gauss-Newton refinement.  The scan fits in
        # 8 MiB; the seeds of a slab, up to its 218 planes of 300 cells, do
        # not, and the refusal comes on entry, before the scan
        cells, slab, size = 300**2, 218 * 300, CRITICAL_SEED_BYTES * 3
        memory = 2**23
        monkeypatch.setattr(nodal, "_physical_memory", lambda: memory)
        assert cells * CRITICAL_CELL_BYTES <= memory < slab * size
        assert run(tmp_path, "nodal", "critical", "--fn", "rezk:12",
                   "--ball", "0,0:1", "--grid", "300") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --grid 300 asks for {cells} points of "
                              f"{CRITICAL_CELL_BYTES} byte(s)")
        assert f"and {slab * size} bytes besides" in err and "internal error" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, flag, points, size", [
        (("harnack", "--pair", "expsin,coshsin", "--samples", "1e9"),
         "--samples 1000000000", 31623**2, verify.HARNACK_POINT_BYTES),
        (("harnack", "--pair", "paperH,paperH", "--samples", "1e9"),
         "--samples 1000000000", 1000**3, verify.HARNACK_POINT_BYTES),
        (("max", "--pair", "expsin,coshsin", "--interior-samples", "1e9"),
         "--interior-samples 1000000000", 10**9, verify.INTERIOR_SAMPLE_BYTES(2)),
        (("max", "--pair", "paperH,paperH", "--interior-samples", "1e9"),
         "--interior-samples 1000000000", 10**9, verify.INTERIOR_SAMPLE_BYTES(3)),
        (("max", "--pair", "expsin,coshsin", "--boundary-samples", "1e9"),
         "--boundary-samples 1000000000", 10**9, verify.BOUNDARY_SAMPLE_BYTES(2)),
        (("max", "--pair", "paperH,paperH", "--ball", "0,0,0:1",
          "--boundary-samples", "1e9"), "--boundary-samples 1000000000", 10**9,
         verify.BOUNDARY_SAMPLE_BYTES(3)),
        (("elliptic", "--pair", "expsin,coshsin", "--samples", "1e9"),
         "--samples 1000000000", 10**9, verify.ELLIPTIC_SAMPLE_BYTES(2)),
        (("elliptic", "--pair", "paperH,paperH", "--samples", "1e9"),
         "--samples 1000000000", 10**9, verify.ELLIPTIC_SAMPLE_BYTES(3)),
        (("leading", "--pair", "expsin,coshsin", "--samples", "1e9"),
         "--samples 1000000000", 10**9, verify.LEADING_SAMPLE_BYTES(2)),
        (("leading", "--pair", "paperH,paperH", "--samples", "1e9"),
         "--samples 1000000000", 10**9, verify.LEADING_SAMPLE_BYTES(3)),
    ])
    def test_samples_beyond_physical_memory_exit_two(
        self, tmp_path, capsys, monkeypatch, args, flag, points, size
    ):
        # a machine of 8 GiB, so that no machine runs these counts here
        monkeypatch.setattr(nodal, "_physical_memory", lambda: 2**33)
        assert run(tmp_path, "verify", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} asks for {points} points")
        assert f"{points * size} bytes" in err and "internal error" not in err
        assert not list(tmp_path.iterdir())

    def test_physical_memory_without_sysconf(self, monkeypatch):
        assert nodal._physical_memory() > 0
        monkeypatch.delattr(os, "sysconf")
        assert nodal._physical_memory() is None

    @pytest.mark.parametrize("args", [
        ("nodal", "count", "--fn", "rezk:2000", "--box", "-1,1,-1,1", "--res", "8"),
        ("verify", "harnack", "--pair", "rezk:2000,rezk:2000"),
        ("nodal", "count", "--fn", "{big}", "--box", "-1,1,-1,1", "--res", "8"),
    ], ids=["count-rezk2000", "harnack-rezk2000", "count-file"])
    def test_coefficients_beyond_the_float_range_exit_two(self, tmp_path, capsys, args):
        # 10^400 (x^2 - y^2); rezk:2000 has coefficients past 10^308 too
        big = write_poly(tmp_path / "big.poly", (X * X - Y * Y).scale(10**400))
        out = tmp_path / "out"
        assert run(out, *(arg.format(big=big) for arg in args)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the polynomial's coefficients exceed the float range")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_coefficient_past_the_int_string_limit_exits_two(self, tmp_path, capsys):
        # 10^5000 x^2 is a valid p/q whose 5001 digits int() refuses to read
        big = tmp_path / "big.poly"
        big.write_text("dim 2\n1" + "0" * 5000 + "/1 : 2 0\n")
        out = tmp_path / "out"
        assert run(out, "divide", "--dividend", str(big), "--divisor", str(big)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        limit = str(sys.get_int_max_str_digits())
        assert "sys.get_int_max_str_digits()" in err and limit in err
        assert len(err.encode()) - len(str(big)) < 200
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        # finite coefficients whose values and gradients overflow on the grid
        ("nodal", "count", "--fn", "rezk:1000", "--ball", "0,0:1", "--res", "64"),
        ("nodal", "critical", "--fn", "paperH", "--ball", "0,0,1e308:0.5", "--grid", "8"),
        ("nodal", "critical", "--fn", "rezk:3", "--ball", "1e300,0:1", "--grid", "8"),
        ("nodal", "plot", "--fn", "paperH", "--ball", "0,0,1e308:0.5", "--res", "8"),
        ("nodal", "plot", "--fn", "rezk:3", "--ball", "1e300,0:1", "--res", "8"),
    ], ids=["count-rezk1000", "critical-paperH-far", "critical-rezk3-far",
            "plot-paperH-far", "plot-rezk3-far"])
    def test_values_beyond_the_float_range_exit_two(self, tmp_path, capfd, args):
        out = tmp_path / "out"
        assert run(out, *args) == 2
        captured = capfd.readouterr()
        # no numpy warning and no LAPACK message either
        assert captured.out == ""
        assert captured.err.startswith("error: w or its gradient is not finite on the grid")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("nodal", "count", "--fn", "saddle2d", "--ball", "0,0:1e308", "--res", "8"),
        ("nodal", "plot", "--fn", "saddle2d", "--box", "-1e308,1e308,0,1", "--res", "8"),
        ("verify", "harnack", "--pair", "expsin,coshsin", "--ball", "0,0:1e308"),
    ])
    def test_region_extent_beyond_the_float_range_exits_two(self, tmp_path, capfd, args):
        # hi - lo overflows to inf: no grid can be laid over the region
        out = tmp_path / "out"
        assert run(out, *args) == 2
        captured = capfd.readouterr()
        assert captured.out == ""  # no numpy warning either
        assert captured.err.startswith("error: ")
        assert "extent is beyond the float range" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dim", [1, 4])
    def test_plot_of_a_dimension_without_a_drawing_exits_two(self, tmp_path, capfd, dim):
        fn = write_poly(tmp_path / "w.poly", Polynomial.variable(dim, 0))
        center = ",".join(["0"] * dim)
        out = tmp_path / "out"
        assert run(out, "nodal", "plot", "--fn", fn, "--ball", f"{center}:1") == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: nodal plot draws functions of dimension 2 or 3, not {dim}\n"
        assert not out.exists()

    def test_failed_bisection_is_a_failed_check(self, tmp_path, capsys):
        # w reaches 5e282 on the grid, and no bisected point of degree 1000
        # comes within 1e-12 of that; the routine's own accuracy check fails
        # on a point that the plot would return, inside the box
        assert run(tmp_path, "nodal", "plot", "--fn", "rezk:1000",
                   "--box", "-1,1,-1,1", "--res", "16") == 1
        out = capsys.readouterr().out
        assert out.startswith("zero-set bisection failed: bisection stopped at |w| > 1e-12")
        near = json.loads(out.split(" near ")[1].splitlines()[0])
        assert all(-1.0 <= v <= 1.0 for v in near)
        report = json.loads((tmp_path / "nodal_plot_report.json").read_text())
        assert report["passed"] is False and report["error"] == "BisectionError"
        assert not (tmp_path / "nodal_set.svg").exists()

    @pytest.mark.parametrize("name", ["rezk:100000", "imzk:2049"])
    def test_catalog_parameter_beyond_its_bound_exits_two(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert run(out, "nodal", "count", "--fn", name, "--ball", "0,0:1", "--res", "8") == 2
        assert run(out, "series", "--pair", f"{name},rezk:2", "--degree", "1") == 2
        err = capsys.readouterr().err.splitlines()
        bound = f"error: {name}: k is at most {catalog.MAX_ZK_DEGREE} in rezk:k and imzk:k"
        assert err == [bound, bound]
        assert not out.exists()

    def test_exact_division_takes_coefficients_beyond_the_float_range(self, tmp_path):
        big = write_poly(tmp_path / "big.poly", (X * X - Y * Y).scale(10**400))
        assert run(tmp_path, "divide", "--dividend", big, "--divisor", big) == 0
        assert parse_poly_file(tmp_path / "quotient.poly") == Polynomial.constant(2, 1)
