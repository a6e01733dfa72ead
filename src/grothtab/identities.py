"""Registry of named cross-checks between independent computation routes.

Every check compares a left and a right route that share nothing beyond the
scalar/polynomial arithmetic layer: closed-form counts against brute-force
enumeration, determinant quotients against tableau sums, the shifted-exponent
sum against the refined quotient's value at the geometric point (a
determinant on ints), coupled hypergeometric sums against polynomial
evaluations.

A check is a row function rows(grid, shape, n) that yields (params, left,
right) for one instance; the row and column checks filter the shape.
_sweep owns the one sweep over the Grid, check by check and, within a
check, ordered by shape size, then shape (lexicographically), then number
of variables, so the first reported witness of a failure is the smallest
offender.  An instance that raises is
one failed instance whose witness names its shape, n, exception type and
the function, file and line of the innermost traceback frame, and the
sweep goes on.  An empty Grid is rejected.  The tableau sum of each
(shape, n) is memoized, so a process enumerates it once, and so is its
diagonal x_1 = ... = x_n = t (Poly.collapse), a polynomial in (b, t) with
one term per excess: the values at x = 1 and at x = (beta, .., beta) and
the set-valued counts (its coefficient sum) are read off the diagonal,
and only gg-eq-w and the diagonal itself read the full sum.  thm-3.9 and
cor-3.11 take their series side from hypergeom.ones_value_by_series, the
function behind `count-svt --method holman` too, so verify checks the
code the CLI runs, and thm-3.13 reads hypergeom.shape_series, as
`eval-holman --from-shape` does; all of them read one memoized walk of
each (shape, n)'s series, a polynomial in z.  run_check sweeps one check
over the whole Grid and run_all the whole registry.  With more than one
worker (the GROTH_THREADS environment variable caps the count), run_all
cuts the Grid's pairs into contiguous chunks, about four per worker,
largest first, and each worker sweeps every check over its chunk, so
each pair's memos live in one worker.  The chunk reports are merged in
Grid order, so the counts and witnesses are those of the serial run; a
check's seconds are then its time summed over the chunks.
"""

import os
import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from time import perf_counter

from .arith import binomial, exact_count
from .grothendieck import (
    BETA,
    _x_names,
    count_svt_formula,
    grothendieck_bialternant,
    grothendieck_tableau_sum,
    principal_specialization_q,
    refined_bialternant_at,
)
from .hypergeom import gauss_2f1_terminating, ones_value_by_series, shape_series
from .partitions import Partition, count_sst_hook, count_sst_product, partitions_of
from .tableaux import enumerate_sst

DEFAULT_BETAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 5))
DEFAULT_QS = (Fraction(2), Fraction(3, 2), Fraction(5, 7))

MAX_WITNESSES = 5

# the one variable that x_1, ..., x_n are set equal to on the diagonal
_T = "t"


class UnknownCheckError(LookupError):
    """Requested check id is not registered."""


@dataclass(frozen=True)
class Grid:
    """Parameter grid a check runs over.

    Shapes are all partitions of size 1..max_size paired with every
    variable count 1..max_vars that can hold them.  The scalar points are
    the fixed generic rationals DEFAULT_BETAS and DEFAULT_QS, chosen to keep
    every denominator nonzero; seed sets the random betas of thm-3.5.
    """

    max_size: int = 6
    max_vars: int = 4
    seed: int = 2718

    def __post_init__(self):
        if self.max_size < 1 or self.max_vars < 1:
            raise ValueError(f"empty grid: max_size={self.max_size} and "
                             f"max_vars={self.max_vars} must both be at least 1")

    def shapes(self):
        """(shape, nvars) pairs, ordered by size, shape, nvars; pairs whose
        shape has more rows than variables are skipped (no fillings)."""
        for size in range(1, self.max_size + 1):
            for shape in partitions_of(size):
                for nvars in range(1, self.max_vars + 1):
                    if len(shape) <= nvars:
                        yield shape, nvars

    def random_betas(self, shape: Partition, nvars: int) -> tuple[Fraction, ...]:
        """Deterministic pseudo-random refinement parameters per instance."""
        h = self.seed
        for v in (shape.size, *shape.parts, nvars):
            h = h * 1000003 + v + 11
        rng = random.Random(h)
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(nvars - 1))


@dataclass
class Witness:
    params: dict[str, str]
    left: str
    right: str

    def to_json(self) -> dict:
        return {"params": dict(self.params), "left": self.left, "right": self.right}


@dataclass
class CheckReport:
    id: str
    summary: str
    passed: int
    failed: int
    witnesses: list[Witness] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def instances(self) -> int:
        return self.passed + self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "summary": self.summary,
            "instances": self.instances,
            "passed": self.passed,
            "failed": self.failed,
            "seconds": round(self.seconds, 3),
            "witnesses": [w.to_json() for w in self.witnesses],
        }


@dataclass
class SuiteReport:
    max_size: int
    max_vars: int
    checks: list[CheckReport]

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "max_size": self.max_size,
            "max_vars": self.max_vars,
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


@dataclass(frozen=True)
class Check:
    id: str
    summary: str
    left: str
    right: str
    rows: callable


CHECKS: dict[str, Check] = {}


def _register(check_id: str, summary: str, left: str, right: str):
    def wrap(fn):
        CHECKS[check_id] = Check(check_id, summary, left, right, fn)
        return fn
    return wrap


def check_ids() -> list[str]:
    return list(CHECKS)


def _fail(report: CheckReport, params, left, right) -> None:
    report.failed += 1
    if len(report.witnesses) < MAX_WITNESSES:
        report.witnesses.append(Witness(
            {k: str(v) for k, v in params.items()}, str(left), str(right)))


def _sweep(grid: Grid, pairs, ids) -> list[CheckReport]:
    """One report per check in ids, each over the (shape, n) pairs in the
    order given: check by check, then pair by pair."""
    reports = []
    for check_id in ids:
        check = CHECKS[check_id]
        report = CheckReport(check.id, check.summary, 0, 0)
        start = perf_counter()
        for shape, n in pairs:
            try:
                for params, left, right in check.rows(grid, shape, n):
                    if left == right:
                        report.passed += 1
                    else:
                        _fail(report, params, left, right)
            except Exception as exc:  # one crashing instance must not hide the rest
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                at = f"{frame.name} ({os.path.basename(frame.filename)}:{frame.lineno})"
                _fail(report, {"shape": shape, "n": n, "error": type(exc).__name__, "at": at},
                      exc, "")
        report.seconds = perf_counter() - start
        reports.append(report)
    return reports


def _merge(parts) -> CheckReport:
    """One check's reports over consecutive chunks of the grid, in grid
    order, as the one report of a sweep over all of them: the counts and
    seconds add up, and the first MAX_WITNESSES witnesses are kept."""
    witnesses = [w for part in parts for w in part.witnesses][:MAX_WITNESSES]
    return CheckReport(parts[0].id, parts[0].summary, sum(p.passed for p in parts),
                       sum(p.failed for p in parts), witnesses, sum(p.seconds for p in parts))


def _chunks(pairs: list, workers: int) -> list[list]:
    """The pairs cut into contiguous chunks of near-equal length, about
    four per worker, so that the load balances to within one chunk."""
    count = min(len(pairs), 4 * workers)
    return [pairs[i * len(pairs) // count:(i + 1) * len(pairs) // count] for i in range(count)]


def run_check(check_id: str, grid: Grid | None = None) -> CheckReport:
    """Run one registered check over the grid and report per-instance
    pass/fail counts with the first few failing witnesses."""
    if check_id not in CHECKS:
        raise UnknownCheckError(f"unknown check id {check_id!r}; "
                                f"known: {', '.join(check_ids())}")
    grid = grid or Grid()
    return _sweep(grid, list(grid.shapes()), [check_id])[0]


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit request or cpu count, capped by GROTH_THREADS."""
    workers = explicit if explicit is not None else (os.cpu_count() or 1)
    cap = os.environ.get("GROTH_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            print(f"warning: ignoring malformed GROTH_THREADS={cap!r}", file=sys.stderr)
    return max(1, workers)


def run_all(grid: Grid | None = None, workers: int | None = None) -> SuiteReport:
    """Run every registered check; reports come back in registry order.
    With more than one worker, the grid's chunks are swept in worker
    processes, the last (largest) chunk first."""
    grid = grid or Grid()
    ids = check_ids()
    pairs = list(grid.shapes())
    count = resolve_workers(workers)
    if count > 1 and len(pairs) > 1:
        # imported here, so that a CLI process that starts no pool does not pay for it
        from concurrent.futures import ProcessPoolExecutor
        chunks = _chunks(pairs, count)
        with ProcessPoolExecutor(max_workers=min(count, len(chunks))) as pool:
            futures = [pool.submit(_sweep, grid, chunk, ids) for chunk in reversed(chunks)]
            parts = [future.result() for future in reversed(futures)]
        reports = [_merge(column) for column in zip(*parts)]
    else:
        reports = _sweep(grid, pairs, ids)
    return SuiteReport(grid.max_size, grid.max_vars, reports)


# ----------------------------------------------------------------------
# the registered checks
# ----------------------------------------------------------------------

def _svt_count(shape, nvars) -> int:
    """Number of set-valued tableaux: the coefficient sum of the memoized
    diagonal, one term per excess, so the fillings of (shape, nvars) are
    enumerated once and their sum is not walked again."""
    return exact_count(sum(_diagonal(shape, nvars).terms.values()),
                       f"set-valued count for {shape}, n={nvars}")


def _gauss(shape, n, z):
    """Props 3.1/3.2: C(n+k-1,k) * 2F1(k,1-n;k+1;z) for the row (k) and
    C(n,k) * 2F1(k,k-n;k+1;z) for the column (1^k), the same for (1)."""
    k = shape.size
    if len(shape) == 1:
        return binomial(n + k - 1, k) * gauss_2f1_terminating(k, 1 - n, k + 1, z)
    return binomial(n, k) * gauss_2f1_terminating(k, k - n, k + 1, z)


@lru_cache(maxsize=None)
def _diagonal(shape, n):
    """The tableau sum at x_1 = ... = x_n = t: a polynomial in (b, t)
    with one term per excess, since a filling with excess e has |shape| + e
    letters.  The values at x = 1 and at x = (beta, .., beta) are taken on
    it, and so are the set-valued counts (its coefficient sum), memoized
    per (shape, n), so a process passes over each full sum's terms once."""
    return grothendieck_tableau_sum(shape, n).collapse(_x_names(n), _T)


def _all_ones_rows(shape, n, closed_form):
    """Rows comparing closed_form(beta) with the tableau sum at x = 1."""
    at_ones = _diagonal(shape, n).substitute({_T: 1})
    for beta in DEFAULT_BETAS:
        yield ({"shape": shape, "n": n, "beta": beta}, closed_form(beta),
               at_ones.substitute({BETA: beta}).as_fraction())


@_register("hook-counts",
           "closed-form semistandard counts match direct enumeration",
           "pairwise-difference and content/hook products",
           "enumeration of semistandard tableaux")
def _hook_counts(grid, shape, n):
    direct = sum(1 for _ in enumerate_sst(shape, n))
    yield {"shape": shape, "n": n, "form": "pairwise"}, count_sst_product(shape, n), direct
    yield {"shape": shape, "n": n, "form": "hook"}, count_sst_hook(shape, n), direct


@_register("gg-eq-w",
           "set-valued tableau sum equals the determinant quotient",
           "tableau generating sum", "bi-alternant / Vandermonde")
def _tableau_sum_vs_bialternant(grid, shape, n):
    yield ({"shape": shape, "n": n},
           grothendieck_tableau_sum(shape, n),
           grothendieck_bialternant(shape, n))


@_register("prop-3.1",
           "single-row all-ones values via the Gauss series",
           "C(n+k-1,k) * 2F1(k,1-n;k+1;-beta)", "tableau sum at x = 1")
def _single_row_values(grid, shape, n):
    if len(shape) == 1:
        yield from _all_ones_rows(shape, n, lambda beta: _gauss(shape, n, -beta))


@_register("prop-3.2",
           "single-column all-ones values via the Gauss series",
           "C(n,k) * 2F1(k,k-n;k+1;-beta)", "tableau sum at x = 1")
def _single_column_values(grid, shape, n):
    if shape[0] == 1:
        yield from _all_ones_rows(shape, n, lambda beta: _gauss(shape, n, -beta))


@_register("cor-3.3",
           "single-row set-valued counts via the Gauss series",
           "C(n+k-1,k) * 2F1(k,1-n;k+1;-1)", "enumeration")
def _single_row_counts(grid, shape, n):
    if len(shape) == 1:
        yield {"shape": shape, "n": n}, _gauss(shape, n, -1), _svt_count(shape, n)


@_register("cor-3.4",
           "single-column set-valued counts via the Gauss series",
           "C(n,k) * 2F1(k,k-n;k+1;-1)", "enumeration")
def _single_column_counts(grid, shape, n):
    if shape[0] == 1:
        yield {"shape": shape, "n": n}, _gauss(shape, n, -1), _svt_count(shape, n)


@_register("thm-3.5",
           "shifted-exponent expansion equals the refined quotient at the "
           "geometric point",
           "nested k-sum", "refined bi-alternant at x = (1,q,..,q^(n-1))")
def _geometric_point_expansion(grid, shape, n):
    """Each row compares two values at x = (1, q, ..., q^(n-1)): the nested
    k-sum and the refined quotient taken at the point on ints
    (refined_bialternant_at), never the polynomial in x.  Both are
    polynomials in the n-1 betas, drawn at random from the grid's seed, so
    each row is a randomized (Schwartz-Zippel) test of the identity in the
    betas, not a proof for every beta.  The value needs no polynomial
    guard: a wrong determinant or division gives a wrong value, which fails
    the row, and gg-eq-w compares the symbolic bi-alternant, a
    divided-difference chain whose result must be symmetric in the x's,
    with the tableau sum as polynomials on every (shape, n)."""
    betas = grid.random_betas(shape, n)
    for q in DEFAULT_QS:
        left = principal_specialization_q(shape, n, betas, q)
        right = refined_bialternant_at(shape, n, betas, [q ** i for i in range(n)])
        yield ({"shape": shape, "n": n, "q": q,
                "betas": ",".join(str(b) for b in betas)}, left, right)


@_register("cor-3.8",
           "binomial-shift count formula matches enumeration",
           "nested binomial-shift sum", "enumeration of set-valued tableaux")
def _count_formula(grid, shape, n):
    yield {"shape": shape, "n": n}, count_svt_formula(shape, n), _svt_count(shape, n)


@_register("thm-3.9",
           "all-ones value factors through the coupled series",
           "|SST| * coupled series at z = -beta", "tableau sum at x = 1")
def _all_ones_factorization(grid, shape, n):
    yield from _all_ones_rows(shape, n, lambda beta: ones_value_by_series(shape, n, beta))


@_register("cor-3.11",
           "set-valued count factors through the coupled series",
           "|SST| * coupled series at z = -1", "enumeration")
def _count_factorization(grid, shape, n):
    yield {"shape": shape, "n": n}, ones_value_by_series(shape, n, 1), _svt_count(shape, n)


@_register("prop-AA",
           "value at x = (beta,..,beta) with parameter -1/beta is beta^|shape|",
           "tableau sum at the tilted point", "beta^|shape|")
def _tilted_point_value(grid, shape, n):
    """The tableau sum is homogeneous: a filling T with excess e(T) gives
    the monomial b^e(T) x^w(T) with |w(T)| = |shape| + e(T).  At x = beta
    and b = -1/beta it is (-1)^e(T) beta^|shape|, so each row, whatever its
    beta, restates the one scalar identity sum_T (-1)^e(T) = 1."""
    diagonal = _diagonal(shape, n)
    for beta in DEFAULT_BETAS:
        left = diagonal.substitute({_T: beta, BETA: -1 / beta}).as_fraction()
        right = beta ** shape.size
        yield {"shape": shape, "n": n, "beta": beta}, left, right


@_register("thm-3.13",
           "coupled series at z = 1 is the reciprocal semistandard count",
           "coupled series at z = 1", "1 / |SST|")
def _reciprocal_count(grid, shape, n):
    left = shape_series(shape, n, 1)
    yield {"shape": shape, "n": n}, left, Fraction(1, count_sst_product(shape, n))


@_register("oddness",
           "every non-empty set-valued count is odd",
           "enumerated count mod 2", "1")
def _odd_counts(grid, shape, n):
    count = _svt_count(shape, n)
    yield {"shape": shape, "n": n, "count": count}, count % 2, 1
