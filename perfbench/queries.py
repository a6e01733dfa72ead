"""The seeded query stream of the cli-oneshot workload, and its answers.

Every query has a fixed shape and variable count, so each seed gives the
same mix of cheap and expensive queries and the latency percentiles stay
comparable across seeds.  The seed picks the rational arguments (points,
beta, q, z, Gauss parameters) and the order in which a pass sends them.

Each expected answer comes from a second route that the benchmark
computes in its own process before timing starts, never from the route
the CLI takes: enumeration against a closed form, the tableau sum against
a determinant, the shifted-exponent sum against the refined quotient, and
a Gauss sum written out here.  Requires grothtab on sys.path.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

from grothtab import (
    HolmanInstance,
    count_sst_product,
    count_svt_formula,
    enumerate_svt,
    grothendieck_bialternant,
    holman_series,
    principal_specialization_q,
)
from grothtab.identities import DEFAULT_BETAS, DEFAULT_QS

# (shape, nvars, method) for count-svt.
COUNT_SVT = [
    ((2, 1), 7, "holman"), ((2, 1), 7, "formula"), ((2, 1), 3, "enum"),
    ((2, 1), 5, "all"), ((3, 1), 6, "all"), ((3, 1), 4, "holman"),
    ((2, 2), 5, "all"), ((2, 2), 6, "enum"), ((3, 2), 4, "enum"),
    ((3, 2), 5, "formula"), ((4, 2), 4, "formula"), ((3, 2, 1), 4, "holman"),
    ((3, 2, 1), 5, "all"), ((1, 1, 1), 5, "all"), ((6,), 4, "formula"),
    ((6,), 5, "enum"), ((2, 1, 1), 6, "holman"), ((3, 3), 4, "all"),
    ((5, 1), 3, "enum"), ((2, 2, 1, 1), 5, "formula"), ((1,), 7, "holman"),
    ((4,), 6, "all"), ((1, 1, 1, 1, 1, 1), 7, "all"), ((2, 2, 2), 4, "holman"),
]
COUNT_SST = [((3, 2, 1), 5), ((4, 2), 5), ((2, 2), 7), ((6,), 5),
             ((2, 1, 1), 4), ((3, 3), 4), ((5, 1), 6), ((1, 1, 1, 1), 6)]
ONES = [((2, 1), 3), ((2, 1), 6), ((3, 1), 5), ((2, 2), 4), ((3, 2, 1), 4),
        ((4, 1, 1), 4), ((1, 1), 7), ((5,), 4)]
AT = [((2, 1), 3), ((3, 1), 3), ((2, 2), 3), ((2, 1, 1), 4), ((3, 2), 2), ((4,), 4)]
PRINCIPAL = [((2, 1), 4), ((3, 1), 5), ((2, 2, 1), 5), ((3, 2), 4),
             ((1, 1, 1), 6), ((4, 2), 3), ((2, 1), 7), ((5, 1), 4)]
SYMBOLIC = [((1,), 2), ((2, 1), 3), ((2, 2), 3), ((3, 1), 4), ((2, 1, 1), 4), ((3,), 2)]
REFINED = [((2, 1), 3), ((2, 2), 3), ((3, 1), 4), ((2, 1, 1), 4), ((1,), 4)]
HOLMAN = [((2, 1), 3), ((2, 1), 6), ((3, 1), 5), ((2, 2), 5), ((3, 2, 1), 4),
          ((1, 1, 1), 6), ((4,), 5), ((2, 2, 1), 5), ((3, 3), 3), ((5, 1), 4)]
GAUSS = 10
ENUMERATE = [((2, 1), 3, "svt"), ((2, 1), 4, "svt"), ((3, 1), 3, "svt"),
             ((2, 2), 4, "svt"), ((3, 2), 3, "sst"), ((4, 2), 4, "sst"),
             ((2, 1, 1), 4, "svt"), ((1, 1), 5, "svt")]
# verify --id on grids of at most (5, 5).
VERIFY = {"hook-counts": (5, 5), "gg-eq-w": (4, 4), "prop-3.1": (5, 5),
          "prop-3.2": (5, 5), "cor-3.3": (5, 5), "cor-3.4": (5, 5),
          "thm-3.5": (4, 4), "cor-3.8": (5, 4), "thm-3.9": (4, 4),
          "cor-3.11": (5, 4), "prop-AA": (4, 4), "thm-3.13": (5, 5),
          "oddness": (5, 4)}


def shape_arg(shape) -> str:
    return ",".join(map(str, shape))


def rat(rng, lo=-7, hi=7, avoid=()) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        if value not in avoid:
            return value


# ----------------------------------------------------------------------
# second routes
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def svt_terms(shape, n):
    """{(excess, weight): multiplicity} over the enumerated set-valued tableaux."""
    terms = {}
    for t in enumerate_svt(shape, n):
        counts = [0] * n
        for row in t.rows:
            for cell in row:
                for v in cell:
                    counts[v - 1] += 1
        key = (t.excess, tuple(counts))
        terms[key] = terms.get(key, 0) + 1
    return terms


def svt_count(shape, n) -> int:
    return sum(svt_terms(shape, n).values())


def sst_count(shape, n) -> int:
    return sum(c for (excess, _), c in svt_terms(shape, n).items() if excess == 0)


def svt_value(shape, n, xs, b) -> Fraction:
    """Sum over tableaux of b^excess * prod x_i^weight_i."""
    total = Fraction(0)
    for (excess, weight), c in svt_terms(shape, n).items():
        term = Fraction(c) * Fraction(b) ** excess
        for x, w in zip(xs, weight):
            term *= Fraction(x) ** w
        total += term
    return total


def gauss_sum(a, m, c, z) -> Fraction:
    """sum_k (a)_k (-m)_k / ((c)_k k!) z^k, written out term by term."""
    total = Fraction(0)
    for k in range(m + 1):
        num = den = Fraction(1)
        for i in range(k):
            num *= (a + i) * (-m + i)
            den *= (c + i) * (i + 1)
        total += num / den * z ** k
    return total


def partitions(size, cap=None):
    cap = size if cap is None else cap
    if size == 0:
        yield ()
        return
    for first in range(min(size, cap), 0, -1):
        for rest in partitions(size - first, first):
            yield (first,) + rest


def verify_instances(check_id, max_size, max_vars) -> int:
    """Instance count of one check on a grid, from the grid's definition."""
    pairs = sum(1 for size in range(1, max_size + 1) for shape in partitions(size)
                for n in range(1, max_vars + 1) if len(shape) <= n)
    columns = sum(max(0, max_vars - k + 1) for k in range(1, max_size + 1))
    betas, qs = len(DEFAULT_BETAS), len(DEFAULT_QS)
    return {
        "hook-counts": 2 * pairs, "gg-eq-w": pairs,
        "prop-3.1": max_size * max_vars * betas, "prop-3.2": columns * betas,
        "cor-3.3": max_size * max_vars, "cor-3.4": columns,
        "thm-3.5": pairs * qs, "cor-3.8": pairs, "thm-3.9": pairs * betas,
        "cor-3.11": pairs, "prop-AA": pairs * betas, "thm-3.13": pairs,
        "oddness": pairs,
    }[check_id]


# ----------------------------------------------------------------------
# the stream
# ----------------------------------------------------------------------

def entry(argv, kind, expected):
    return {"sub": argv[0], "argv": argv, "kind": kind, "expected": expected}


def _count_text(methods, count):
    return "".join(f"{m}: {count}\n" for m in methods) + "agree\n"


def build(seed: int) -> list[dict]:
    """One pass of queries with their expected answers, in catalogue order."""
    rng = random.Random(seed)
    out = []
    for shape, n, method in COUNT_SVT:
        argv = ["count-svt", "--shape", shape_arg(shape), "--vars", str(n), "--method", method]
        if method == "all":
            out.append(entry(argv, "text", _count_text(["enum", "formula", "holman"],
                                                       svt_count(shape, n))))
        else:
            count = count_svt_formula(shape, n) if method == "enum" else svt_count(shape, n)
            out.append(entry(argv, "text", f"{count}\n"))
    for shape, n in COUNT_SST:
        argv = ["count-sst", "--shape", shape_arg(shape), "--vars", str(n), "--method", "all"]
        out.append(entry(argv, "text", _count_text(["enum", "product", "hook"],
                                                   sst_count(shape, n))))
    for i, (shape, n) in enumerate(ONES):
        beta = Fraction(1) if i % 4 == 0 else rat(rng)
        argv = ["eval-groth", "--shape", shape_arg(shape), "--vars", str(n),
                f"--beta={beta}", "--ones"]
        if beta == 1:
            value = svt_count(shape, n)
        else:
            value = count_sst_product(shape, n) * holman_series(
                HolmanInstance.from_shape(shape, n, -beta))
        out.append(entry(argv, "text", f"{value}\n"))
    for shape, n in AT:
        beta = rat(rng)
        point = [rat(rng) for _ in range(n)]
        argv = ["eval-groth", "--shape", shape_arg(shape), "--vars", str(n), f"--beta={beta}",
                "--at=" + ",".join(map(str, point))]
        value = grothendieck_bialternant(shape, n, beta).substitute(
            {f"x{i + 1}": v for i, v in enumerate(point)}).as_fraction()
        out.append(entry(argv, "text", f"{value}\n"))
    for shape, n in PRINCIPAL:
        beta = rat(rng)
        q = rat(rng, avoid=(0, 1, -1))
        argv = ["eval-groth", "--shape", shape_arg(shape), "--vars", str(n), f"--beta={beta}",
                f"--principal-q={q}"]
        value = svt_value(shape, n, [q ** i for i in range(n)], beta)
        out.append(entry(argv, "text", f"{value}\n"))
    for shape, n in SYMBOLIC:
        argv = ["eval-groth", "--shape", shape_arg(shape), "--vars", str(n)]
        out.append(entry(argv, "text", f"{grothendieck_bialternant(shape, n)}\n"))
    for shape, n in REFINED:
        betas = [rat(rng) for _ in range(n - 1)]
        q = rat(rng, avoid=(0, 1, -1))
        argv = ["eval-groth", "--shape", shape_arg(shape), "--vars", str(n),
                "--refined=" + ",".join(map(str, betas)),
                "--at=" + ",".join(str(q ** i) for i in range(n))]
        value = principal_specialization_q(shape, n, betas, q)
        out.append(entry(argv, "text", f"{value}\n"))
    for shape, n in HOLMAN:
        z = rat(rng)
        argv = ["eval-holman", "--from-shape", shape_arg(shape), "--vars", str(n), f"--z={z}"]
        value = svt_value(shape, n, [1] * n, -z) / sst_count(shape, n)
        out.append(entry(argv, "text", f"{value}\n"))
    for _ in range(GAUSS):
        a = rat(rng, 1, 9)
        m = rng.randint(1, 8)
        c = rat(rng, 1, 9)
        z = rat(rng)
        argv = ["eval-2f1", "--", str(a), str(-m), str(c), str(z)]
        out.append(entry(argv, "text", f"{gauss_sum(a, m, c, z)}\n"))
    for shape, n, kind in ENUMERATE:
        argv = ["enumerate", "--shape", shape_arg(shape), "--vars", str(n), "--kind", kind]
        count = count_svt_formula(shape, n) if kind == "svt" else count_sst_product(shape, n)
        out.append(entry(argv, "lines", count))
    for check_id, (max_size, max_vars) in VERIFY.items():
        argv = ["verify", "--id", check_id, "--max-size", str(max_size),
                "--max-vars", str(max_vars), "--format", "json"]
        out.append(entry(argv, "verify", verify_instances(check_id, max_size, max_vars)))
    return out


def wrong(query, code: int, stdout: str) -> bool:
    """Whether a finished query gave a wrong answer or a non-zero exit."""
    if code != 0:
        return True
    kind, expected = query["kind"], query["expected"]
    if kind == "text":
        return stdout != expected
    if kind == "lines":
        lines = stdout.splitlines()
        return len(lines) != expected or len(set(lines)) != expected
    try:
        report = json.loads(stdout)
    except ValueError:
        return True
    return not (report.get("ok") is True and report.get("failed") == 0
                and report.get("passed") == expected and len(report.get("checks", ())) == 1
                and report["checks"][0].get("instances") == expected)
