"""Seeded inputs and operation plans for the three benchmark workloads.

Everything here is standard library only and independent of the program
under test: the exact polynomials are dicts ``{exponent tuple: Fraction}``
built with this module's own arithmetic and written in the documented
``.poly``/``.series`` text formats.  The program only ever sees those files
and CLI flags, and the oracle compares its outputs against the quotients
generated here.

The seed changes coefficients, rotations, regions and sampling seeds.  It
never changes the sequence of subcommands, their sizes (degrees, term
counts, resolutions, sample counts) or their expected answers' shape, so the
cost of a pass stays close to the same across seeds.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

Poly = Dict[Tuple[int, ...], Fraction]


# -- exact polynomial arithmetic ---------------------------------------------


def monomials(dim: int, max_degree: int) -> List[Tuple[int, ...]]:
    """Every exponent of total degree <= max_degree, graded order."""
    out = []
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(dim), d):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def scale(p: Poly, c: Fraction) -> Poly:
    return {k: c * v for k, v in p.items()} if c else {}


def power(p: Poly, e: int, dim: int) -> Poly:
    out: Poly = {(0,) * dim: Fraction(1)}
    for _ in range(e):
        out = mul(out, p)
    return out


def laplacian(p: Poly) -> Poly:
    out: Poly = {}
    for a, c in p.items():
        for i, e in enumerate(a):
            if e >= 2:
                b = list(a)
                b[i] -= 2
                key = tuple(b)
                out[key] = out.get(key, Fraction(0)) + c * e * (e - 1)
    return {k: v for k, v in out.items() if v}


def compose_linear(p: Poly, rows: Sequence[Sequence[Fraction]]) -> Poly:
    """P(Mx) for the matrix with the given rows."""
    dim = len(rows)
    forms = [
        {tuple(int(j == t) for t in range(dim)): rows[i][j] for j in range(dim) if rows[i][j]}
        for i in range(dim)
    ]
    out: Poly = {}
    for a, c in p.items():
        term: Poly = {(0,) * dim: c}
        for i, e in enumerate(a):
            term = mul(term, power(forms[i], e, dim))
        out = add(out, term)
    return out


def cayley(params: Sequence[Fraction], dim: int) -> List[List[Fraction]]:
    """Exactly orthogonal (I - S)(I + S)^-1 from the strict upper triangle of S."""
    S = [[Fraction(0)] * dim for _ in range(dim)]
    it = iter(params)
    for i in range(dim):
        for j in range(i + 1, dim):
            S[i][j] = next(it)
            S[j][i] = -S[i][j]
    aug = [
        [Fraction(int(i == j)) + S[i][j] for j in range(dim)]
        + [Fraction(int(i == j)) - S[i][j] for j in range(dim)]
        for i in range(dim)
    ]
    for c in range(dim):
        pivot = next(i for i in range(c, dim) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(dim):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [vi - f * vc for vi, vc in zip(aug[i], aug[c])]
    rows = [row[dim:] for row in aug]
    for i in range(dim):
        for j in range(dim):
            dot = sum(rows[i][k] * rows[j][k] for k in range(dim))
            if dot != int(i == j):
                raise ArithmeticError("Cayley transform is not orthogonal")
    return rows


def re_im_pow(k: int, dim: int, axes: Tuple[int, int]) -> Tuple[Poly, Poly]:
    """Re and Im of (x_a + i x_b)^k as polynomials in ``dim`` variables."""
    re: Poly = {}
    im: Poly = {}
    a, b = axes
    for j in range(k + 1):
        e = [0] * dim
        e[a], e[b] = k - j, j
        c = Fraction(math.comb(k, j))
        # i^j cycles 1, i, -1, -i
        if j % 4 == 0:
            re[tuple(e)] = c
        elif j % 4 == 1:
            im[tuple(e)] = c
        elif j % 4 == 2:
            re[tuple(e)] = -c
        else:
            im[tuple(e)] = -c
    return re, im


# -- seeded values -------------------------------------------------------------


def rational(rng: random.Random, num: int = 9, den: int = 9) -> Fraction:
    """Nonzero rational with |numerator| <= num and denominator <= den."""
    n = 0
    while n == 0:
        n = rng.randint(-num, num)
    return Fraction(n, rng.randint(1, den))


def dense(rng: random.Random, dim: int, degree: int) -> Poly:
    return {a: rational(rng) for a in monomials(dim, degree)}


def random_harmonic(rng: random.Random, dim: int, k: int) -> Poly:
    """Nonzero homogeneous harmonic polynomial of degree k.

    2D: a Re(x+iy)^k + b Im(x+iy)^k.  3D adds Re(y+iz)^k and
    z * Re(x+iy)^(k-1), both harmonic because each factor is harmonic in
    variables the other does not involve.
    """
    re, im = re_im_pow(k, dim, (0, 1))
    parts = [re, im]
    if dim == 3:
        parts.append(re_im_pow(k, dim, (1, 2))[0])
        z = {(0, 0, 1): Fraction(1)}
        parts.append(mul(z, re_im_pow(k - 1, dim, (0, 1))[0]))
    q: Poly = {}
    for part in parts:
        q = add(q, scale(part, rational(rng)))
    if not q or laplacian(q):
        raise ArithmeticError("generated divisor is zero or not harmonic")
    return q


# -- paper's 3D cubic and its seeded rotations ---------------------------------

PAPER_H: Poly = {
    (2, 0, 0): Fraction(1),
    (0, 2, 0): Fraction(-1),
    (0, 0, 3): Fraction(1),
    (2, 0, 1): Fraction(-3),
}


def rotated_paper_h(rng: random.Random) -> Poly:
    """paperH o O for a seeded rational rotation O with small Cayley
    parameters.  Rotations that leave a monomial cancelled are redrawn, so
    every seed evaluates the generic 16-term cubic."""
    while True:
        params = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
        p = compose_linear(PAPER_H, cayley(params, 3))
        if len(p) == 16:
            return p


# -- ratio 1 + tanh y, the reference for the expsin/coshsin pair ---------------


def one_plus_tanh(degree: int) -> Poly:
    """Taylor coefficients of e^y / cosh y = 1 + tanh y in two variables."""
    fact = [Fraction(1)]
    for j in range(1, degree + 1):
        fact.append(fact[-1] * j)
    e = [1 / f for f in fact]
    ch = [1 / f if j % 2 == 0 else Fraction(0) for j, f in enumerate(fact)]
    g: List[Fraction] = []
    for m in range(degree + 1):
        acc = e[m] - sum(ch[i] * g[m - i] for i in range(1, m + 1))
        g.append(acc / ch[0])
    return {(0, j): c for j, c in enumerate(g) if c}


# -- file formats ---------------------------------------------------------------


def _term_lines(p: Poly) -> List[str]:
    return [
        f"{c.numerator}/{c.denominator} : " + " ".join(map(str, a))
        for a, c in sorted(p.items(), key=lambda t: (sum(t[0]), t[0]))
    ]


def format_poly(p: Poly, dim: int) -> str:
    return "\n".join([f"dim {dim}"] + _term_lines(p)) + "\n"


def format_series(p: Poly, dim: int, max_degree: int) -> str:
    head = [f"dim {dim}", "center " + " ".join(["0/1"] * dim), f"maxdeg {max_degree}"]
    return "\n".join(head + _term_lines(p)) + "\n"


def parse_terms(text: str) -> Tuple[Dict[str, str], Poly]:
    """Headers and terms of a ``.poly`` or ``.series`` file."""
    headers: Dict[str, str] = {}
    terms: Poly = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            key, _, value = line.partition(" ")
            headers[key] = value.strip()
            continue
        coeff, exps = line.split(":", 1)
        alpha = tuple(int(t) for t in exps.split())
        if alpha in terms:
            raise ValueError(f"duplicate term {alpha}")
        terms[alpha] = Fraction(coeff.strip())
    return headers, terms


# -- plans ----------------------------------------------------------------------


class Plan:
    """Collects generated files and the ordered operations of one pass."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: List[Dict[str, object]] = []
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, "in", name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, "out", name)

    def op(self, cmd: str, argv: List[str], check: Dict[str, object]) -> None:
        self.ops.append({"cmd": cmd, "argv": argv, "check": check})


def _series_case(plan: Plan, tag: str, f: Poly, q: Poly, dim: int, n: int, k: int) -> None:
    u = mul(f, q)
    num = plan.write(f"{tag}_u.series", format_series(u, dim, n + k))
    den = plan.write(f"{tag}_v.series", format_series(q, dim, n + k))
    expect = plan.write(f"{tag}_f.series", format_series(f, dim, n))
    out = plan.out(f"{tag}_ratio.series")
    plan.op(
        "series",
        ["series", "--numerator", num, "--denominator", den,
         "--degree", str(n), "--series-out", out],
        {"kind": "quotient", "output": out, "expect": expect},
    )


def exact_ratio(plan: Plan, rng: random.Random) -> None:
    # series: the xy divisors need a rotation, x^2 - y^2 with the same f does not
    xy2 = {(1, 1): Fraction(1)}
    saddle2 = {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    xy3 = {(1, 1, 0): Fraction(1)}
    saddle3 = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)}
    f2 = dense(rng, 2, 24)
    f3 = dense(rng, 3, 8)
    _series_case(plan, "s2_xy", f2, xy2, 2, 24, 2)
    _series_case(plan, "s2_saddle", f2, saddle2, 2, 24, 2)
    _series_case(plan, "s3_xy", f3, xy3, 3, 8, 2)
    _series_case(plan, "s3_saddle", f3, saddle3, 3, 8, 2)
    expect = plan.write("pair_f.series", format_series(one_plus_tanh(40), 2, 40))
    out = plan.out("pair_ratio.series")
    plan.op(
        "series",
        ["series", "--pair", "expsin,coshsin", "--degree", "40", "--series-out", out],
        {"kind": "quotient", "output": out, "expect": expect},
    )
    # divide: harmonic q of degree 1..3 times a dense r, in 2D and 3D
    for i in range(100):
        dim = 2 + i % 2
        k = 1 + i % 3
        q = random_harmonic(rng, dim, k)
        r = dense(rng, dim, 5 if dim == 2 else 3)
        p_path = plan.write(f"d{i}_p.poly", format_poly(mul(q, r), dim))
        q_path = plan.write(f"d{i}_q.poly", format_poly(q, dim))
        expect = plan.write(f"d{i}_r.poly", format_poly(r, dim))
        out = plan.out("quotient.poly")
        plan.op(
            "divide",
            ["divide", "--dividend", p_path, "--divisor", q_path, "--quotient-out", out],
            {"kind": "quotient", "output": out, "expect": expect},
        )
    # certify: exact certificate construction and index-by-index check
    for i in range(6):
        a = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        r = Fraction(1, rng.randint(2, 4))
        plan.op(
            "certify",
            ["certify", "--a", str(a), "--c", str(c), "--r", str(r),
             "--k", str(1 + i % 2), "--n", str(3 + i % 2), "--n-check", "16"],
            {"kind": "exit0"},
        )


def nodal_grid(plan: Plan, rng: random.Random) -> None:
    plan.op(
        "nodal_count",
        ["nodal", "count", "--fn", "paperH", "--ball", "0,0,0:0.5",
         "--res", "256", "--expect", "2"],
        {"kind": "count", "expect": 2},
    )
    # The count of a rotated paperH is 2 at every rotation; the sign-grid
    # counter gets some rotations wrong at this resolution (a known defect,
    # kept visible on purpose).
    rot = plan.write("paperH_rotated.poly", format_poly(rotated_paper_h(rng), 3))
    plan.op(
        "nodal_count",
        ["nodal", "count", "--fn", rot, "--ball", "0,0,0:0.5",
         "--res", "192", "--expect", "2"],
        {"kind": "count", "expect": 2},
    )
    for k in range(2, 9):
        name = f"{rng.choice(['rezk', 'imzk'])}:{k}"
        radius = round(rng.uniform(0.5, 1.5), 3)
        plan.op(
            "nodal_count",
            ["nodal", "count", "--fn", name, "--ball", f"0,0:{radius}",
             "--res", "512", "--expect", str(2 * k)],
            {"kind": "count", "expect": 2 * k},
        )
    # 1001 x 1001 samples on a box symmetric in x put one grid column on the
    # shared zero x = 0: its points near the origin take the series fallback,
    # the rest are invalid and skipped
    for _ in range(5):
        a = round(rng.uniform(0.5, 1.5), 3)
        y0 = round(rng.uniform(-1.0, -0.3), 3)
        y1 = round(rng.uniform(0.3, 1.0), 3)
        plan.op(
            "verify_harnack",
            ["verify", "harnack", "--pair", "expsin,coshsin",
             "--box", f"{-a},{a},{y0},{y1}", "--samples", "1002001"],
            {"kind": "harnack", "y0": y0, "y1": y1},
        )


def point_batch(plan: Plan, rng: random.Random) -> None:
    plan.op(
        "nodal_critical",
        ["nodal", "critical", "--fn", "paperH", "--ball", "0,0,0:1", "--grid", "12"],
        {"kind": "critical"},
    )
    name = f"{rng.choice(['rezk', 'imzk'])}:5"
    cx, cy = (round(rng.uniform(-0.1, 0.1), 3) for _ in range(2))
    plan.op(
        "nodal_plot",
        ["nodal", "plot", "--fn", name, "--ball", f"{cx},{cy}:1", "--res", "256"],
        {"kind": "plot"},
    )
    for _ in range(100):
        cx, cy = (round(rng.uniform(-1.5, 1.5), 3) for _ in range(2))
        radius = round(rng.uniform(0.1, 0.5), 3)
        plan.op(
            "verify_max",
            ["--seed", str(rng.randint(0, 10**6)), "verify", "max",
             "--pair", "expsin,coshsin", "--ball", f"{cx},{cy}:{radius}"],
            {"kind": "exit0"},
        )
    for _ in range(20):
        plan.op(
            "verify_elliptic",
            ["--seed", str(rng.randint(0, 10**6)), "verify", "elliptic",
             "--pair", "expsin,coshsin", "--samples", "2000"],
            {"kind": "exit0"},
        )


BUILDERS = {
    "exact-ratio": exact_ratio,
    "nodal-grid": nodal_grid,
    "point-batch": point_batch,
}
WORKLOADS = tuple(BUILDERS)


def generate(workload: str, seed: int, workdir: str) -> str:
    """Write the inputs and ``plan.json`` for one workload; return its path."""
    plan = Plan(workdir)
    BUILDERS[workload](plan, random.Random(f"{workload}:{seed}"))
    path = os.path.join(workdir, "plan.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": plan.ops}, fh, indent=1)
    return path
