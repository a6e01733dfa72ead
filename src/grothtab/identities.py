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
sweep goes on.  An empty Grid is rejected.  grothendieck memoizes the
tableau sum of each (shape, n) on packed keys, so a process enumerates it
once, and its diagonal x_1 = ... = x_n = t as its counts by excess
(c_0, ..., c_E), read off the keys' b field with nothing unpacked; the
diagonal is sum_e c_e b^e t^(|shape| + e), so the tuple loses nothing.
The checks call both through the grothendieck module, so a function put
in its place there reaches every check.
The value at x = 1 is sum_e c_e beta^e, the value at x = (beta, .., beta)
with b = -1/beta is beta^|shape| sum_e c_e (-1)^e and the set-valued
count is sum_e c_e, each read off the counts by arith.polynomial_at or a
sum, and only gg-eq-w and the diagonal itself read the full sum.
gg-eq-w compares the packed sum with the bi-alternant built from its
Schur coefficients (the kernel's sums by exponent set at every beta = 1,
grothendieck._exponent_set_sums, and Kostka numbers,
grothendieck._packed_bialternant) and expanded onto keys of the same
packing (polynomials._shape_packing), so neither side is unpacked; a
packing mismatch raises, and fails the instance.  The sweep compares the
two once, and only a failing row's witness unpacks them for the terms
that differ.  The kernel is on one side of three checks and on both
sides of none: gg-eq-w holds it against the tableau sum, thm-3.5 against
the refined quotient's int determinant at a point and cor-3.8 against
enumeration.  thm-3.5's point (1, q, ..., q^(n-1)) is kept per (q, n),
an argument of its right side alone.  thm-3.9 and cor-3.11 take their
series side from hypergeom.ones_value_by_series, the function behind
`count-svt --method holman` too, so verify checks the code the CLI runs,
and thm-3.13 reads hypergeom.shape_series, as `eval-holman --from-shape`
does; all of them read one memoized walk of each (shape, n)'s series, a
polynomial in z.  The row and column checks keep their Gauss side per
(shape, n) too, the binomial times hypergeom._gauss_parts (the 2F1 that
gauss_2f1_terminating reads), and read it at each beta by polynomial_at,
so no check substitutes into a Poly or sums a series per point.
run_check sweeps one check over the whole Grid and run_all the whole
registry.  With more than one
worker (at most the CPUs the process may run on, and the GROTH_THREADS
environment variable caps the count), run_all estimates each (shape, n)
pair's cost a priori as its semistandard count |SST(shape, n)| and
assigns the pairs by Graham's longest-processing-time rule: largest
estimate first (ties in Grid order), each to the worker with the least
estimated load so far.  Each worker is forked by os.fork and sweeps every
check over its own pairs, kept in Grid order, so each pair's memos live
in one worker, and sends its results back through a pipe, marshalled.
A sweep's unit is one (check, pair) result: its passed and failed counts,
its first witnesses and its seconds.  The parent puts each worker's
results at its pairs' Grid indices, and every run, serial or forked, and
run_check too, builds each check's report by one fold over its results
in Grid order (_report): the counts and seconds are summed, so a check's
seconds are the sum of its pairs' times, and the first witnesses are
kept, so a forked run reports what the serial run does.
Where os.fork does not exist, run_all sweeps serially.  The records are
NamedTuples, and the workers need no process pool, so
importing the package and running in parallel load neither dataclasses
(nor, through it, inspect) nor multiprocessing.  Nor does the package load
traceback until an instance raises, or csv until `--format csv` prints.
"""

import marshal
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from time import perf_counter
from typing import NamedTuple

from . import grothendieck
from .arith import binomial, exact_count, polynomial_at
from .grothendieck import (
    _packed_bialternant,
    count_svt_formula,
    principal_specialization_q,
    refined_bialternant_at,
)
from .hypergeom import _gauss_parts, ones_value_by_series, shape_series
from .partitions import Partition, count_sst_hook, count_sst_product, partitions_of
from .tableaux import enumerate_sst

DEFAULT_BETAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 5))
DEFAULT_QS = (Fraction(2), Fraction(3, 2), Fraction(5, 7))

MAX_WITNESSES = 5


class UnknownCheckError(LookupError):
    """Requested check id is not registered."""


class _GridFields(NamedTuple):
    max_size: int = 6
    max_vars: int = 4
    seed: int = 2718


class Grid(_GridFields):
    """Parameter grid a check runs over.

    Shapes are all partitions of size 1..max_size paired with every
    variable count 1..max_vars that can hold them.  The scalar points are
    the fixed generic rationals DEFAULT_BETAS and DEFAULT_QS, chosen to keep
    every denominator nonzero; seed sets the random betas of thm-3.5.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_size < 1 or self.max_vars < 1:
            raise ValueError(f"empty grid: max_size={self.max_size} and "
                             f"max_vars={self.max_vars} must both be at least 1")
        return self

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


class Witness(NamedTuple):
    params: dict[str, str]
    left: str
    right: str

    def to_json(self) -> dict:
        return {"params": dict(self.params), "left": self.left, "right": self.right}


class CheckReport(NamedTuple):
    """One check's counts, first witnesses and time."""

    id: str
    summary: str
    passed: int
    failed: int
    witnesses: list[Witness] = []
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


class SuiteReport(NamedTuple):
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


class Check(NamedTuple):
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


def _witness(params, left, right) -> tuple:
    return {k: str(v) for k, v in params.items()}, str(left), str(right)


def _sweep(grid: Grid, pairs, ids) -> list[list[tuple]]:
    """For each check in ids, one result per (shape, n) pair in the order
    given: (passed, failed, witnesses, seconds), where witnesses are the
    pair's first MAX_WITNESSES failures as (params, left, right) tuples of
    strs.  The results are plain values, so marshal carries them as they
    are."""
    results = []
    for check_id in ids:
        rows, mine = CHECKS[check_id].rows, []
        for shape, n in pairs:
            start, passed, failed, witnesses = perf_counter(), 0, 0, []
            try:
                for params, left, right in rows(grid, shape, n):
                    if left == right:
                        passed += 1
                        continue
                    failed += 1
                    if failed <= MAX_WITNESSES:
                        witnesses.append(_witness(params, left, right))
            except Exception as exc:  # one crashing instance must not hide the rest
                from traceback import extract_tb  # loaded by the first crash only

                frame = extract_tb(exc.__traceback__)[-1]
                at = f"{frame.name} ({os.path.basename(frame.filename)}:{frame.lineno})"
                failed += 1
                if failed <= MAX_WITNESSES:
                    witnesses.append(_witness(
                        {"shape": shape, "n": n, "error": type(exc).__name__, "at": at}, exc, ""))
            mine.append((passed, failed, witnesses, perf_counter() - start))
        results.append(mine)
    return results


def _report(check_id: str, results) -> CheckReport:
    """One check's report from its per-pair results in grid order: the
    counts and seconds summed, and the first MAX_WITNESSES witnesses."""
    check = CHECKS[check_id]
    passed, failed, witnesses, seconds = zip(*results)
    return CheckReport(check.id, check.summary, sum(passed), sum(failed),
                       [Witness(*w) for mine in witnesses for w in mine][:MAX_WITNESSES],
                       sum(seconds))


def _estimate(shape, n) -> int:
    """A pair's a-priori cost: its semistandard count |SST(shape, n)|, which
    tracks the time of its checks.  A count that raises gives 1, so the
    run goes on and the pair fails in the checks that take the count."""
    try:
        return count_sst_product(shape, n)
    except Exception:
        return 1


def _assign(pairs: list, workers: int) -> list[list[int]]:
    """Each worker's pairs, as indices into pairs in ascending (grid)
    order, by Graham's longest-processing-time rule on _estimate: the pairs
    go out largest estimate first, ties in grid order, each to the first
    worker with the least estimated load so far.  Every estimate is at
    least 1, so each of the first `workers` pairs opens a worker of its
    own, and the estimated loads differ by at most the largest estimate."""
    costs = [_estimate(shape, n) for shape, n in pairs]
    loads, held = [0] * workers, [[] for _ in range(workers)]
    for i in sorted(range(len(pairs)), key=lambda i: -costs[i]):
        least = loads.index(min(loads))
        held[least].append(i)
        loads[least] += costs[i]
    return [sorted(mine) for mine in held]


def run_check(check_id: str, grid: Grid | None = None) -> CheckReport:
    """Run one registered check over the grid and report per-instance
    pass/fail counts with the first few failing witnesses."""
    if check_id not in CHECKS:
        raise UnknownCheckError(f"unknown check id {check_id!r}; "
                                f"known: {', '.join(check_ids())}")
    grid = grid or Grid()
    return _report(check_id, _sweep(grid, list(grid.shapes()), [check_id])[0])


def _usable_cpus() -> int:
    """The CPUs this process may run on: os.process_cpu_count (Python
    3.13+), else the size of its affinity mask, else os.cpu_count, so a
    run pinned by taskset or a container forks no more workers than it
    may run."""
    if hasattr(os, "process_cpu_count"):
        count = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count()
    return count or 1


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit request or the usable CPUs, capped by
    GROTH_THREADS."""
    workers = explicit if explicit is not None else _usable_cpus()
    cap = os.environ.get("GROTH_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            print(f"warning: ignoring malformed GROTH_THREADS={cap!r}", file=sys.stderr)
    return max(1, workers)


def run_all(grid: Grid | None = None, workers: int | None = None) -> SuiteReport:
    """Run every registered check; reports come back in registry order.
    With more than one worker, and where os.fork exists, the grid's pairs
    are assigned by _assign and swept in forked worker processes
    (_fork_sweeps)."""
    grid = grid or Grid()
    ids = check_ids()
    pairs = list(grid.shapes())
    count = min(resolve_workers(workers), len(pairs))
    if count > 1 and hasattr(os, "fork"):
        results = _fork_sweeps(grid, pairs, _assign(pairs, count), ids)
    else:
        results = _sweep(grid, pairs, ids)
    return SuiteReport(grid.max_size, grid.max_vars,
                       [_report(check_id, mine) for check_id, mine in zip(ids, results)])


def _fork_sweeps(grid: Grid, pairs: list, held: list, ids) -> list[list[tuple]]:
    """_sweep's results over all the pairs, each list of indices in held
    swept in one forked worker whose results are placed at those indices
    (held covers every pair once).  The parent reads
    every worker's pipe to its end, then reaps the workers; a worker that
    dies or exits non-zero raises RuntimeError naming the pairs it held.
    On any exception, an interrupt included, the parent kills and reaps
    every worker before re-raising."""
    pids, pipes = [], []  # the workers not yet reaped, the read ends not yet closed
    try:
        for mine in held:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
            except BaseException:
                os.close(write_end)
                raise
            if pid == 0:
                _worker(grid, [pairs[i] for i in mine], ids, write_end)
            os.close(write_end)
            pids.append(pid)
        payloads = []
        for read_end in pipes:
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
        codes = []
        while pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1]))
            del pids[0]
    except BaseException:
        from signal import SIGKILL
        for pid in pids:
            try:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass
        raise
    finally:
        for read_end in pipes:
            os.close(read_end)
    errors = [_worker_failure(code, [pairs[i] for i in mine])
              for code, mine in zip(codes, held) if code]
    if errors:
        raise RuntimeError("; ".join(errors))
    results = [[None] * len(pairs) for _ in ids]
    for payload, mine in zip(payloads, held):
        for placed, swept in zip(results, marshal.loads(payload)):
            for i, result in zip(mine, swept):
                placed[i] = result
    return results


def _worker(grid: Grid, pairs: list, ids, write_end: int) -> None:
    """A forked worker: sweeps its pairs, marshals _sweep's results into
    its pipe, and leaves by os._exit, so it flushes no inherited stdio and
    runs no atexit hook."""
    code = 1
    try:
        payload = marshal.dumps(_sweep(grid, pairs, ids))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _worker_failure(code: int, pairs: list) -> str:
    """The error of a worker that ended with exit code `code` (minus the
    signal number when a signal killed it): it names how many pairs it
    held, and the first and the last of them."""
    how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
    (first, m), (last, n) = pairs[0], pairs[-1]
    return f"a verify worker {how} holding {len(pairs)} pair(s), {first} n={m} to {last} n={n}"


# ----------------------------------------------------------------------
# the registered checks
# ----------------------------------------------------------------------

def _svt_count(shape, nvars) -> int:
    """Number of set-valued tableaux: the sum of the memoized diagonal's
    counts by excess, so the fillings of (shape, nvars) are enumerated
    once and their sum is not walked again."""
    return exact_count(sum(grothendieck._tableau_sum_diagonal(shape, nvars)),
                       f"set-valued count for {shape}, n={nvars}")


@lru_cache(maxsize=None)
def _gauss_series(shape, n):
    """Props 3.1/3.2 as a polynomial in z, (parts, d):
    C(n+k-1,k) * 2F1(k,1-n;k+1;z) for the row (k) and
    C(n,k) * 2F1(k,k-n;k+1;z) for the column (1^k), the same for (1);
    the 2F1 is hypergeom._gauss_parts, its parts times the binomial.
    Memoized per (shape, n), so each pair sums its series once."""
    k, row = shape.size, len(shape) == 1
    parts, d = _gauss_parts(k, 1 - n if row else k - n, k + 1)
    prefactor = binomial(n + k - 1, k) if row else binomial(n, k)
    return tuple(prefactor * c for c in parts), d


def _gauss(shape, n, z):
    """The row or column's Gauss side (_gauss_series) at z."""
    return polynomial_at(*_gauss_series(shape, n), z)


def _all_ones_rows(shape, n, closed_form):
    """Rows comparing closed_form(beta) with the tableau sum at x = 1,
    sum_e c_e beta^e."""
    counts = grothendieck._tableau_sum_diagonal(shape, n)
    for beta in DEFAULT_BETAS:
        yield ({"shape": shape, "n": n, "beta": beta}, closed_form(beta),
               polynomial_at(counts, 1, beta))


@_register("hook-counts",
           "closed-form semistandard counts match direct enumeration",
           "pairwise-difference and content/hook products",
           "enumeration of semistandard tableaux")
def _hook_counts(grid, shape, n):
    direct = sum(1 for _ in enumerate_sst(shape, n, [0] * (n + 1)))
    yield {"shape": shape, "n": n, "form": "pairwise"}, count_sst_product(shape, n), direct
    yield {"shape": shape, "n": n, "form": "hook"}, count_sst_hook(shape, n), direct


@_register("gg-eq-w",
           "set-valued tableau sum equals the determinant quotient",
           "tableau generating sum", "bi-alternant / Vandermonde")
def _tableau_sum_vs_bialternant(grid, shape, n):
    """Both sides stay on the packed keys of polynomials._shape_packing:
    the fill's counts, less b^|shape|, and the quotient at the symbolic
    beta b from its Schur coefficients, written at every rearrangement of
    each exponent, so the two are compared as full polynomials and a fill
    that is not symmetric fails.  Keys over packings that differ raise
    rather than compare, so there is no second, unpacked comparison.  The
    sweep compares the two sides, once; the row's params also hold left
    minus right (_Difference), the terms that differ, which a failing
    row's witness writes out."""
    left, right = grothendieck._tableau_sum(shape, n), _packed_bialternant(shape, n)
    yield {"shape": shape, "n": n, "difference": _Difference(left, right)}, left, right


class _Difference(NamedTuple):
    """Packed left minus packed right, unpacked and subtracted only when
    str is taken, as a witness's params are."""

    left: object
    right: object

    def __str__(self):
        return str(self.left.unpack() - self.right.unpack())


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
    the row, and gg-eq-w compares the symbolic bi-alternant, built from
    its Schur coefficients, with the tableau sum as polynomials on every
    (shape, n).  The left side is the one kernel of Schur coefficients
    (grothendieck._exponent_set_sums) at the pair's betas, whose C_S is the
    refined quotient's coefficient of s_(S - delta); the right side takes
    none of it.  The three qs share one pair's betas: the kernel expands
    the columns once per pair, grouped by exponent set, and each q reads
    those sums with one q-Vandermonde per set; the betas' param string is
    joined once."""
    betas = grid.random_betas(shape, n)
    joined = ",".join(map(str, betas))
    for q in DEFAULT_QS:
        left = principal_specialization_q(shape, n, betas, q)
        right = refined_bialternant_at(shape, n, betas, _q_powers(q, n))
        yield {"shape": shape, "n": n, "q": q, "betas": joined}, left, right


@lru_cache(maxsize=None)
def _q_powers(q, n) -> tuple:
    """The point (1, q, ..., q^(n-1)), memoized per (q, n), so thm-3.5's
    pairs share their qs' powers."""
    return tuple(q ** i for i in range(n))


@_register("cor-3.8",
           "binomial-shift count formula matches enumeration",
           "nested binomial-shift sum", "enumeration of set-valued tableaux")
def _count_formula(grid, shape, n):
    """The nested binomial-shift sum is the shifted-exponent expansion at
    every beta = 1 as q -> 1: the kernel's sums by exponent set per
    (shape, n) (grothendieck._exponent_set_sums), the ones gg-eq-w's
    bi-alternant reads, each set's sum times a product of exponent
    differences.  Its right side enumerates."""
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
    beta, restates the one scalar identity sum_T (-1)^e(T) = 1.  The left
    side is that exact value, beta^|shape| sum_e c_e (-1)^e, from the
    diagonal's counts by excess."""
    alternating = polynomial_at(grothendieck._tableau_sum_diagonal(shape, n), 1, -1)
    for beta in DEFAULT_BETAS:
        left = beta ** shape.size * alternating
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
