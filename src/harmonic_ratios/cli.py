"""Command-line front end.

Every subcommand writes a machine-readable JSON report next to its other
artifacts and prints a short human summary.  Exit status: 0 when all
requested checks pass, 1 when a check fails (the report path is printed),
2 when inputs fail to parse, 3 on any other error (an ``internal error:``
line on stderr naming the exception; this is a bug).  Each action of
``verify``, ``nodal`` and ``catalog`` accepts only the flags it reads (its
``--help`` lists them): any other flag is a usage error, exit status 2.

The output directory defaults to the ``HARMONIC_RATIOS_OUT`` environment
variable, then to the current directory.  Runs are deterministic: a fixed
seed plus the same inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from . import catalog as _catalog
from . import io_formats as io
from .certificates import (
    IllFormedCertificate,
    bound_certificate,
    verify_certificate,
)
from .division import DivisionError, divide_by_harmonic, series_ratio
from .nodal import (
    BeyondMemory,
    BisectionError,
    NonFiniteValues,
    ZeroFunction,
    critical_set_sample,
    nodal_domain_count,
    write_points_csv,
    write_svg,
    zero_set_sample,
)
from .polynomial import CoefficientOverflow, Polynomial
from .regions import Region
from .series import TruncatedSeries
from .verify import (
    DegenerateRegion,
    RatioEvaluator,
    RatioVanishes,
    ResidualVanishes,
    harnack_constant,
    leading_zero_inclusion,
    max_principle_check,
    residual_convergence,
    sphere_orthogonality,
)


class CliError(Exception):
    """Bad input: wrong flags, unparsable files, unknown names."""


# -- input plumbing ------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load(arg: str, parse: Callable[[str], Polynomial]):
    """The file ``arg`` read with ``parse``, or else the catalog entry named
    ``arg``."""
    if os.path.exists(arg):
        try:
            return parse(_read(arg))
        except io.FormatError as exc:
            raise CliError(f"{arg}: {exc}") from exc
    try:
        return _catalog.catalog_get(arg)
    except _catalog.UnknownEntry as exc:
        raise CliError(f"{arg} is neither a readable file nor a catalog name") from exc
    except _catalog.ParameterOutOfRange as exc:
        raise CliError(str(exc)) from exc


def load_polynomial(arg: str) -> Polynomial:
    """A polynomial file path, or a polynomial catalog entry name."""
    loaded = _load(arg, io.parse_polynomial)
    if not isinstance(loaded, _catalog.CatalogEntry):
        return loaded
    if loaded.kind != "polynomial":
        raise CliError(f"catalog entry {arg} is not polynomial")
    return loaded.polynomial


def load_series(arg: str) -> Union[TruncatedSeries, _catalog.CatalogEntry]:
    """A series file path, parsed, or a catalog entry name, left for
    ``catalog.expand`` to expand."""
    return _load(arg, io.parse_series)


def parse_region(args: argparse.Namespace, dim: int) -> Region:
    """--ball 'cx,cy[,cz]:r' or --box 'x0,x1,y0,y1[,z0,z1]', of dimension
    ``dim``."""
    if args.ball and args.box:
        raise CliError("give either --ball or --box, not both")
    if args.ball:
        spec = args.ball
        try:
            center_txt, radius_txt = spec.split(":")
            center, radius = [float(c) for c in center_txt.split(",")], float(radius_txt)
        except ValueError as exc:
            raise CliError(f"bad --ball spec {spec!r} (want cx,cy[,cz]:r)") from exc
        try:
            region = Region.ball(center, radius)
        except ValueError as exc:
            raise CliError(f"bad --ball spec {spec!r}: {exc}") from exc
    elif args.box:
        spec = args.box
        try:
            vals = [float(c) for c in spec.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --box spec {spec!r}") from exc
        if len(vals) % 2 or len(vals) < 4:
            raise CliError("--box wants per-axis pairs: x0,x1,y0,y1[,z0,z1]")
        try:
            region = Region.box(vals[0::2], vals[1::2])
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        raise CliError("a region is required: --ball or --box")
    if region.dim != dim:
        raise CliError(f"the region has dimension {region.dim}, the function {dim}")
    return region


# the largest count flag: 10**9 samples or grid cells per axis would
# already need more than 10 GB of points or cells
MAX_COUNT = 10**9


def _flag_type(
    noun: str, want: str, convert: Callable[[str], Any], ok: Callable[[Any], bool]
) -> Callable[[str], Any]:
    """A flag type: ``convert`` the text, then require ``ok`` of the value.

    Both failures raise ``argparse.ArgumentTypeError``, which argparse
    reports as a usage error (an ``error:`` line and exit status 2).  The
    message quotes at most the text's first 32 characters, and names the
    int-string limit when ``convert`` failed on more digits than it allows.
    """

    def parse(text: str) -> Any:
        why = f"want {want}"
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:  # io.FormatError among them
            limit = io._exceeded_digit_limit(text)
            if limit:
                why = f"more digits than sys.get_int_max_str_digits() allows, {limit}"
        raise argparse.ArgumentTypeError(f"bad {noun} {io._quote(text)} ({why})")

    return parse


def _whole(text: str) -> Union[int, float]:
    """A float, as an int when it is a whole number (``1e6`` is 1000000)."""
    value = float(text)
    return int(value) if value.is_integer() else value


# a sample count or grid size, also in scientific notation like 1e6
parse_count = _flag_type(
    "count", f"a positive integer up to {MAX_COUNT}", _whole,
    lambda value: isinstance(value, int) and 0 < value <= MAX_COUNT,
)
# a truncation degree or an expected count
parse_degree = _flag_type(
    "integer", "a non-negative integer", int, lambda value: value >= 0
)
# a band or a tolerance
parse_tolerance = _flag_type(
    "tolerance", "a finite number >= 0", float, lambda value: 0 <= value < math.inf
)
# a step or a radius
parse_positive = _flag_type(
    "number", "a finite number > 0", float, lambda value: 0 < value < math.inf
)
# a rational in the p/q form of the file formats
parse_rational = _flag_type(
    "rational", "p/q, no exponent", io._parse_fraction, lambda value: True
)


def _pair(args: argparse.Namespace) -> _catalog.SharedZeroPair:
    try:
        u_name, v_name = args.pair.split(",")
    except ValueError as exc:
        raise CliError("--pair wants two comma-separated catalog names") from exc
    try:
        return _catalog.shared_pair(u_name.strip(), v_name.strip())
    except (_catalog.UnknownEntry, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _write(path: str, text: str) -> str:
    """Write ``text`` to ``path``, making its directory first; return ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_report(out_dir: str, name: str, payload: Dict) -> str:
    return _write(
        os.path.join(out_dir, f"{name}_report.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def _emit(out_dir: str, payload: Dict, lines: Sequence[str]) -> int:
    """Write the report, named after ``payload["command"]`` with its spaces
    turned into underscores (``verify max`` writes
    ``verify_max_report.json``), print ``lines`` and the report's path, and
    return the exit status: 0 if the payload passed, else 1."""
    path = write_report(out_dir, payload["command"].replace(" ", "_"), payload)
    for line in lines:
        print(line)
    ok = bool(payload.get("passed", True))
    if not ok:
        print(f"FAILED; see {path}")
    else:
        print(f"report: {path}")
    return 0 if ok else 1


def _fail(out_dir: str, command: str, what: str, exc: Exception) -> int:
    """Report a computation that failed its own check: exit status 1."""
    payload = {
        "command": command,
        "passed": False,
        "error": type(exc).__name__,
        "detail": str(exc),
    }
    return _emit(out_dir, payload, [f"{what} failed: {exc}"])


# -- subcommands ---------------------------------------------------------------


def cmd_divide(args: argparse.Namespace) -> int:
    p = load_polynomial(args.dividend)
    q = load_polynomial(args.divisor)
    if p.dim != q.dim:
        raise CliError(f"the dividend has dimension {p.dim}, the divisor {q.dim}")
    try:
        outcome = divide_by_harmonic(p, q)
    except DivisionError as exc:
        return _fail(args.out, "divide", "division", exc)
    quotient = outcome.quotient
    q_path = _write(
        args.quotient_out or os.path.join(args.out, "quotient.poly"),
        io.format_polynomial(quotient, comment="quotient"),
    )
    payload = {
        "command": "divide",
        "passed": True,
        "residual_verified": outcome.residual_verified,
        "quotient_file": q_path,
        "quotient_degree": quotient.total_degree(),
        "quotient_terms": quotient.term_count(),
    }
    return _emit(args.out, payload, [f"quotient ({quotient.term_count()} terms) -> {q_path}"])


def cmd_series(args: argparse.Namespace) -> int:
    degree = args.degree
    files = args.numerator, args.denominator
    if args.pair and not any(files):
        pair = _pair(args)
        u, v = pair.u, pair.v
    elif all(files) and not args.pair:
        u, v = load_series(args.numerator), load_series(args.denominator)
    else:
        raise CliError("give either --pair or both --numerator and --denominator")
    u, v = _catalog.expand(u, v, degree)
    if u.dim != v.dim:
        raise CliError(f"the numerator has dimension {u.dim}, the denominator {v.dim}")
    if u.center != v.center:
        raise CliError("the numerator and the denominator have different centers")
    try:
        outcome = series_ratio(u, v, degree, strict=args.strict)
    except DivisionError as exc:
        return _fail(args.out, "series", "series division", exc)
    f = outcome.quotient
    s_path = _write(
        args.series_out or os.path.join(args.out, "ratio.series"),
        io.format_series(f, comment="ratio"),
    )
    payload = {
        "command": "series",
        "passed": True,
        "residual_verified": outcome.residual_verified,
        "series_file": s_path,
        "max_degree": f.max_degree,
        "nonzero_coefficients": f.term_count(),
    }
    return _emit(args.out, payload, [f"ratio series to degree {f.max_degree} -> {s_path}"])


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        cert = bound_certificate(args.a, args.c, args.r, args.k, args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except IllFormedCertificate as exc:
        return _fail(args.out, "certify", "certificate construction", exc)
    report = verify_certificate(cert, args.n_check)
    c_path = _write(os.path.join(args.out, "bound.cert"), io.format_certificate(cert))
    payload = {
        "command": "certify",
        "passed": report.passed,
        "certificate_file": c_path,
        "verify": report.to_dict(),
    }
    return _emit(
        args.out,
        payload,
        [
            f"A = {cert.A}, R = ({', '.join(str(x) for x in cert.R)})",
            report.summary(),
            f"certificate -> {c_path}",
        ],
    )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.check != "ortho":
        pair = _pair(args)
    if args.check in ("max", "harnack", "elliptic"):
        region = parse_region(args, pair.u.dimension) if args.ball or args.box else pair.region
    if args.check == "max":
        evaluator = RatioEvaluator.for_pair(pair)
        report = max_principle_check(
            evaluator,
            region,
            boundary_samples=args.boundary_samples,
            interior_samples=args.interior_samples,
            tol=args.tol,
            seed=args.seed,
        )
    elif args.check == "harnack":
        evaluator = RatioEvaluator.for_pair(pair)
        report = harnack_constant(
            evaluator, region, samples=args.samples, floor=args.floor
        )
    elif args.check == "ortho":
        q = load_polynomial(args.q)
        if args.q2 == "1":
            q2 = Polynomial.constant(q.dim, 1)
        else:
            q2 = load_polynomial(args.q2)
        try:
            report = sphere_orthogonality(
                q, q2, r=args.radius, quad_points=args.samples, tol=args.tol
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    elif args.check == "elliptic":
        if not args.h0 * 0.5**args.halvings >= sys.float_info.min:
            raise CliError(
                f"--h0 {args.h0!r} halved {args.halvings} times is no longer "
                "a positive normal float"
            )
        report = residual_convergence(
            pair.u,
            pair.v,
            region,
            h0=args.h0,
            halvings=args.halvings,
            samples=args.samples,
            seed=args.seed,
            min_order=args.min_order,
        )
    else:
        # leading: u and v each through its vanishing order, so both
        # leading forms are there
        report = leading_zero_inclusion(
            _catalog.leading_expansion(pair.u), _catalog.leading_expansion(pair.v),
            samples=args.samples, tol=args.tol, seed=args.seed,
        )
    payload = {"command": f"verify {args.check}", "passed": report.passed}
    payload.update(report.to_dict())
    return _emit(args.out, payload, [report.summary()])


def cmd_nodal(args: argparse.Namespace) -> int:
    w = load_polynomial(args.fn)
    region = parse_region(args, w.dim)
    if args.action == "count":
        count = nodal_domain_count(w, region, args.res, band_rel=args.band)
        passed = args.expect is None or count == args.expect
        payload = {
            "command": "nodal count",
            "passed": passed,
            "count": count,
            "resolution": args.res,
            "expected": args.expect,
        }
        return _emit(args.out, payload, [str(count)])
    if args.action == "plot":
        if w.dim not in (2, 3):
            raise CliError(f"nodal plot draws functions of dimension 2 or 3, not {w.dim}")
        try:
            points, segments = zero_set_sample(w, region, args.res)
        except BisectionError as exc:
            return _fail(args.out, "nodal plot", "zero-set bisection", exc)
        os.makedirs(args.out, exist_ok=True)
        if w.dim == 2:
            art = os.path.join(args.out, "nodal_set.svg")
            write_svg(points, segments, art)
        else:
            art = os.path.join(args.out, "nodal_set.csv")
            write_points_csv(points, art)
        payload = {
            "command": "nodal plot",
            "passed": True,
            "points": len(points),
            "segments": len(segments),
            "artifact": art,
        }
        return _emit(args.out, payload, [f"{len(points)} zero points -> {art}"])
    report = critical_set_sample(
        w,
        region,
        grid=args.grid,
        tol_value=args.tol,
        tol_gradient=args.tol,
    )
    payload = {"command": "nodal critical", "passed": True}
    payload.update(report.to_dict())
    return _emit(
        args.out,
        payload,
        [f"{len(report.critical_points)} critical point(s): "
         f"{report.critical_points}"],
    )


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        names = _catalog.catalog_names()
        payload = {"command": "catalog list", "passed": True, "names": names}
        return _emit(args.out, payload, names)
    manifest = _catalog.manifest(args.degree)
    payload = {"command": "catalog dump", "passed": True, "entries": manifest}
    return _emit(args.out, payload, [json.dumps(manifest, indent=2, sort_keys=True)])


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-ratios",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output directory for reports and artifacts "
        "(default: $HARMONIC_RATIOS_OUT or .)",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divide", help="divide one harmonic polynomial by another")
    p.add_argument("--dividend", required=True, help="polynomial file or catalog name")
    p.add_argument("--divisor", required=True, help="polynomial file or catalog name")
    p.add_argument("--quotient-out", default=None, help="quotient file path")

    p = sub.add_parser("series", help="ratio of two Taylor series to a degree")
    p.add_argument("--pair", default=None, help="u,v catalog pair")
    p.add_argument("--numerator", default=None, help="series file or catalog name")
    p.add_argument("--denominator", default=None, help="series file or catalog name")
    p.add_argument("--degree", type=parse_degree, required=True, help="output degree")
    p.add_argument("--series-out", default=None, help="output series file path")
    p.add_argument(
        "--no-strict",
        dest="strict",
        action="store_false",
        help="write the quotient even when the residual check fails",
    )

    p = sub.add_parser("certify", help="build and verify a coefficient bound")
    p.add_argument(
        "--a", type=parse_rational, required=True,
        help="coefficient growth bound (rational p/q)",
    )
    p.add_argument(
        "--c", type=parse_rational, required=True,
        help="divisor leading coefficient (rational p/q)",
    )
    p.add_argument(
        "--r", type=parse_rational, required=True,
        help="measurement radius (rational p/q)",
    )
    p.add_argument(
        "--k", type=parse_degree, required=True, help="divisor vanishing order"
    )
    p.add_argument("--n", type=parse_count, required=True, help="dimension")
    p.add_argument(
        "--n-check", type=parse_degree, default=12, help="verification degree"
    )

    # the flags that several actions share, each declared once
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--pair", required=True, help="u,v catalog pair")
    fn = argparse.ArgumentParser(add_help=False)
    fn.add_argument("--fn", required=True, help="polynomial file or catalog name")
    region = argparse.ArgumentParser(add_help=False)
    region.add_argument("--ball", default=None, help="cx,cy[,cz]:r")
    region.add_argument("--box", default=None, help="x0,x1,y0,y1[,z0,z1]")

    checks = sub.add_parser("verify", help="numeric property checks on ratio pairs")
    checks = checks.add_subparsers(dest="check", required=True)
    max_ = checks.add_parser("max", parents=[pair, region])
    harnack = checks.add_parser("harnack", parents=[pair, region])
    ortho = checks.add_parser("ortho")
    elliptic = checks.add_parser("elliptic", parents=[pair, region])
    leading = checks.add_parser("leading", parents=[pair])
    for p in (harnack, ortho, elliptic, leading):
        p.add_argument("--samples", type=parse_count, default=10000)
    max_.add_argument("--boundary-samples", type=parse_count, default=4096)
    max_.add_argument("--interior-samples", type=parse_count, default=4096)
    for p in (max_, ortho, leading):
        p.add_argument("--tol", type=parse_tolerance, default=1e-9, help="check tolerance")
    harnack.add_argument("--floor", type=parse_tolerance, default=1e-9, help="harnack zero floor")
    ortho.add_argument("--q", required=True, help="homogeneous harmonic polynomial")
    ortho.add_argument("--q2", default="1", help="lower-degree polynomial, or 1")
    ortho.add_argument("--radius", type=parse_positive, default=1.0, help="sphere radius")
    elliptic.add_argument("--h0", type=parse_positive, default=0.05, help="initial grid step")
    elliptic.add_argument("--halvings", type=parse_count, default=3, help="step halvings (>= 1)")
    elliptic.add_argument(
        "--min-order", type=parse_tolerance, default=1.9, help="least decay order"
    )

    actions = sub.add_parser("nodal", help="nodal-set plots and analyses")
    actions = actions.add_subparsers(dest="action", required=True)
    plot = actions.add_parser("plot", parents=[fn, region])
    count = actions.add_parser("count", parents=[fn, region])
    critical = actions.add_parser("critical", parents=[fn, region])
    for p in (plot, count):
        p.add_argument("--res", type=parse_count, default=256, help="grid resolution")
    count.add_argument("--band", type=parse_tolerance, default=1e-10, help="zero-detection band")
    count.add_argument(
        "--expect", type=parse_degree, default=None, help="fail unless the count matches"
    )
    critical.add_argument("--grid", type=parse_count, default=24, help="critical-point seed grid")
    critical.add_argument("--tol", type=parse_tolerance, default=1e-8)

    actions = sub.add_parser("catalog", help="inspect the built-in catalog")
    actions = actions.add_subparsers(dest="action", required=True)
    actions.add_parser("list")
    actions.add_parser("dump").add_argument(
        "--degree", type=parse_degree, default=6, help="taylor degree in dumps"
    )

    return parser


def _join_region_flags(argv: List[str]) -> List[str]:
    """Turn '--box -1,1,-1,1' into '--box=-1,1,-1,1'.

    Region values often start with a minus sign, which argparse would
    otherwise read as a new option.
    """
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--box", "--ball") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and then reused: the
    parser holds no per-call state, and building it costs about as much as
    a small command."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit
    status, with the codes of the module docstring.

    ``main`` may be called any number of times in one process: the parser is
    built on the first call only, and ``$HARMONIC_RATIOS_OUT`` is read on
    every call that gives no ``--out``.  Bad input exits 2, among others a
    flag that the action does not read, a ``nodal`` function that is the
    zero polynomial, a ``verify elliptic`` residual that is exactly 0 (no
    decay order to fit) and a ``nodal`` grid or a ``verify`` sample count
    whose peak, as the routine that allocates it measures it, is more bytes
    than the machine's physical memory (``BeyondMemory``, reported with the
    flag that sized it).
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_join_region_flags(list(argv)))
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    if args.out is None:
        args.out = os.environ.get("HARMONIC_RATIOS_OUT", ".")
    try:
        # looked up by name on every call, so a rebound cmd_* takes effect
        return globals()[f"cmd_{args.command}"](args)
    except BeyondMemory as exc:
        flag = "--res" if exc.name == "resolution" else "--" + exc.name.replace("_", "-")
        print(f"error: {flag} {exc.value} {exc.need}", file=sys.stderr)
        return 2
    except (
        CliError, io.FormatError, CoefficientOverflow, DegenerateRegion,
        NonFiniteValues, RatioVanishes, ResidualVanishes, ZeroFunction,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
