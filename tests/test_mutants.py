"""Seeded bugs in the kernels that verify must catch.

One bug sits in the field width of the packed monomials, which the
bi-alternant's Schur route and the tableau sum share, one in the field
the diagonal reads the excess from, one in the sign of the 2 x 2 minor
that each step of the int determinant's fraction-free elimination takes,
two in the Schur route (the Kostka table's strip against mu's last part
and the horizontal strip's range), three in the packed tableau-sum fill (the
per-letter units, the entries' weights and the key the backtracker
carries), one in the integral bi-alternant's column scale, which only the
refined quotient at a point takes from _integral_rows, one in that
quotient's Vandermonde, three in the
backtracker's bounds on a cell's letters (the column cap, the strict
bound from the upper neighbour and the last cell's bound in the table
that fuses the last two cells), one in the sign of the per-set q-Vandermonde of
_shifted_exponent_sum, the expansion behind both the principal
specialization and the binomial-shift count formula, three in the one
kernel of Schur coefficients those two and the bi-alternant read,
_exponent_set_sums (its sign, its repeated exponent and its memo keyed on
c without the betas), two in its tables, _beta_tables (the e_k window and
the scale's exponent), and one
in each of the coupling triangle, the content/hook count, the column
Gauss binomial, the 2F1's m! (its denominator parameter 1, written once
in hypergeom._gauss_parts), the Pochhammer term of _series_parts, the
one evaluator behind the 2F1, the coupled series and its per-instance
polynomial in z, the pruning step of the graded n!-term kernel
coupled_sum, which only the coupled series calls, the q^top scale of
arith.polynomial_at, the one reader of a polynomial in z (the series, the
Gauss side and the diagonal's counts by excess), and the
pairwise-difference count.  Each mutant is put in place
in this process with monkeypatch (the kernel in each module that calls
it), so nothing on disk changes, and run_all(Grid(4, 4), workers=1) runs
in this process too.  CAUGHT_BY maps each mutant to the checks that must
then report failing instances, each with a witness; every other check
must still pass.  The per-(shape, n) memos (every grothtab module
attribute with cache_clear: the tableau sum, its diagonal, the Kostka
table and its strips, the orbit keys, the beta tables, the kernel's sums
by exponent set, the series and the row and
column checks' Gauss side as polynomials in z, thm-3.5's points) are
cleared by
tests/memos.py before and after each run, so no value cached by another
test hides a mutant below it and no value computed under a mutant
outlives it.

verify never runs the refined quotient (refined_bialternant), which
shares the kernel, the Kostka table and the orbit keys with gg-eq-w's
right side, so its two mutants (the kernel read at the betas reversed and
the scale's exponent n - k) must each make it differ from the reference
chain (poly_reference.alternant_quotient) on Grid(4, 4) instead, at symbolic
b1..b_(n-1) or at fixed distinct betas with denominators; at equal
betas the order of the betas does not show.  Two more bugs must
show both in verify and in the CLI: the sign of z = -beta in
hypergeom.ones_value_by_series, which `count-svt --method all` calls too,
and a wrong power of the denominator in arith.polynomial_at, the one
reader of a polynomial in z, which `eval-holman --from-shape` and
`eval-2f1` call too.
"""

import inspect
import textwrap
from fractions import Fraction

import pytest

from grothtab import arith, cli, grothendieck, hypergeom, identities, partitions, polynomials, tableaux
from grothtab.identities import Grid, run_all
from grothtab.polynomials import Poly
from memos import clear_memos
from poly_reference import alternant_quotient


def _edited(function, *edits: str):
    """`function` recompiled from its source with each `old` of the
    alternating old, new strings replaced by its `new`, over a copy of its
    module's globals."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in zip(edits[::2], edits[1::2]):
        assert source.count(old) == 1, f"{old!r} not found once in {function.__name__}"
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source, inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def _kernel(old: str, new: str):
    """arith.coupled_sum edited, in hypergeom, the one module that holds a
    binding of it: the coupled series is its last caller, since the
    shifted-exponent expansion walks its own terms by exponent set
    (grothendieck._exponent_set_sums)."""
    return hypergeom, "coupled_sum", _edited(arith.coupled_sum, old, new)


def _reader(old: str, new: str):
    """arith.polynomial_at edited, in each module that holds a binding of
    it: hypergeom (the coupled series and the 2F1) and identities (the
    diagonal's counts by excess and the checks' Gauss series)."""
    reader = _edited(arith.polynomial_at, old, new)
    return [(module, "polynomial_at", reader) for module in (hypergeom, identities)]


def _keyed_on_c(kernel):
    """kernel(c, *betas) memoized on c alone."""
    memo = {}
    return lambda c, *betas: memo[c] if c in memo else memo.setdefault(c, kernel(c, *betas))


def _pairwise(old: str, new: str):
    """partitions.count_sst_product edited, in each module whose checks
    call it: identities (hook-counts, thm-3.13) and hypergeom (the series
    side of thm-3.9 and cor-3.11)."""
    count = _edited(partitions.count_sst_product, old, new)
    return [(module, "count_sst_product", count) for module in (identities, hypergeom)]


MUTANTS = {
    # grothendieck holds its own binding of the int determinant; every
    # division stays exact, and the value comes out negated at n = 2 and 3
    # (mod 4)
    "minor sign flipped": lambda: (grothendieck, "determinant", _edited(
        arith.determinant, "p * row[j] - a * top[j]", "a * top[j] - p * row[j]")),
    # the bi-alternant's Schur route: _dominant_coefficients looks the
    # kernel and the Kostka table up in grothendieck.  The edited Kostka
    # table calls itself, unmemoized, all the way down.
    # Reading the strip as mu's first part, not its last, is no bug:
    # K(nu, mu) is symmetric in mu and its orbit takes one coefficient
    "strip as long as mu's last part refused": lambda: (grothendieck, "_dominant_schur", _edited(
        grothendieck._dominant_schur.__wrapped__, "mu[-1] >= k", "mu[-1] > k")),
    "strip takes a cell of every row": lambda: (grothendieck, "_strips", _edited(
        grothendieck._strips.__wrapped__, "range(nu[i + 1], nu[i] + 1)",
        "range(nu[i + 1], nu[i])")),
    "field width forced to 2 bits": lambda: (polynomials, "_field_width", lambda degree: 2),
    # grothendieck holds its own binding of enumerate_svt
    "cell weighed by its largest letter only": lambda: (grothendieck, "enumerate_svt", _edited(
        tableaux.enumerate_svt, "sum(map(units.__getitem__, e))", "units[e[-1]] * len(e)")),
    # the last cell yields its weight alone, unfused and from the fused
    # table of the last two cells alike
    "last cell drops the prefix key": lambda: (tableaux, "_backtrack", _edited(
        tableaux._backtrack, "yield stem + weight", "yield weight",
        "yield stem + total", "yield total", "[weight + w for w, _ in", "[w for w, _ in")),
    # the fused table reads the last cell's lower bound with the leaf's
    # largest letter left at 0, so the last cell may repeat its left
    # neighbour's largest letter and any letter its upper neighbour holds
    "last cell's bound ignores the leaf": lambda: (tableaux, "_backtrack", _edited(
        tableaux._backtrack, "for weight, tops[leaf] in", "for weight, _ in")),
    "excess unit dropped": lambda: (grothendieck, "_tableau_sum", _edited(
        grothendieck._tableau_sum.__wrapped__, "b + packing.variable(x)", "packing.variable(x)")),
    # identities looks the reader up in grothendieck
    "diagonal excess read from the x_1 field": lambda: (
        grothendieck, "_tableau_sum_diagonal",
        _edited(grothendieck._tableau_sum_diagonal.__wrapped__, "shift[BETA]", 'shift["x1"]')),
    # only the value at a point takes _integral_rows; the symbolic chain
    # scales its own columns
    "column scale exponent n - k": lambda: (grothendieck, "_integral_rows", _edited(
        grothendieck._integral_rows, "d ** (n - 1 - k)", "d ** (n - k)")),
    # identities holds its own binding of refined_bialternant_at
    "Vandermonde factor flipped": lambda: (identities, "refined_bialternant_at", _edited(
        grothendieck.refined_bialternant_at, "num_i * den_j - num_j * den_i",
        "num_j * den_i - num_i * den_j")),
    "column cap one letter too tight": lambda: (tableaux, "_backtrack", _edited(
        tableaux._backtrack, "caps.append(nvars - sum(", "caps.append(nvars - 1 - sum(")),
    # a cell may repeat its upper neighbour's largest letter
    "upper neighbour's bound not strict": lambda: (tableaux, "_backtrack", _edited(
        tableaux._backtrack, "tops[up[k]] + 1", "tops[up[k]]")),
    # the coupling sign the README pins; HolmanInstance.from_shape looks it up
    "coupling sign l_i + l_j": lambda: (hypergeom, "shape_coupling", _edited(
        hypergeom.shape_coupling, "lam[i - 1] - lam[j - 1] + j - i",
        "lam[i - 1] + lam[j - 1] + j - i")),
    "hook content n + i - j": lambda: (identities, "count_sst_hook", _edited(
        partitions.count_sst_hook, "nvars + j - i", "nvars + i - j")),
    "column binomial C(n + 1, k)": lambda: (identities, "_gauss_series", _edited(
        identities._gauss_series.__wrapped__, "binomial(n, k)", "binomial(n + 1, k)")),
    # count_svt_formula and principal_specialization_q look it up in
    # grothendieck; the per-set product over S sorted decreasing
    "count formula cross factor sign": lambda: (grothendieck, "_shifted_exponent_sum", _edited(
        grothendieck._shifted_exponent_sum, "combinations(s, 2)", "combinations(s[::-1], 2)")),
    # the kernel's sign counts the exponents of the mask larger than the
    # new one
    "set sign from larger exponents": lambda: (grothendieck, "_exponent_set_sums", _edited(
        grothendieck._exponent_set_sums.__wrapped__, "mask & (bit - 1)", "mask & ~(bit - 1)")),
    # a repeated exponent, whose alternant is 0, adds its term to the mask
    # it is already in, a set of fewer than n exponents
    "repeated exponent kept": lambda: (grothendieck, "_exponent_set_sums", _edited(
        grothendieck._exponent_set_sums.__wrapped__, "if not mask & bit:", "if bit:")),
    # the sums at the first betas to reach c, handed to every later betas
    "kernel memo keyed on c alone": lambda: (
        grothendieck, "_exponent_set_sums", _keyed_on_c(grothendieck._exponent_set_sums.__wrapped__)),
    # the m! of the 2F1 read as (2)_m, in the one place its parameters are
    # written; identities holds its own binding of it
    "2F1 term over m + 2": lambda: (identities, "_gauss_parts", _edited(
        hypergeom._gauss_parts, "((gamma,), (1,))", "((gamma,), (2,))")),
    # the one evaluator behind holman_series (the 2F1) and the memoized
    # series that shape_series reads, which look it up in hypergeom
    "series term over (b + k + 1)": lambda: (hypergeom, "_series_parts", _edited(
        hypergeom._series_parts, "b.numerator + k * b.denominator",
        "b.numerator + (k + 1) * b.denominator")),
    "kernel drops negative prefixes": lambda: _kernel("if factor:", "if factor > 0:"),
    # count_svt_formula and principal_specialization_q reach the tables
    # through _shifted_exponent_sum, which looks them up in grothendieck
    "e_k window shifted": lambda: (grothendieck, "_beta_tables", _edited(
        grothendieck._beta_tables.__wrapped__, "for b in betas]", "for b in betas[1:] + (0,)]")),
    "beta scale exponent n - k": lambda: (grothendieck, "_beta_tables", _edited(
        grothendieck._beta_tables.__wrapped__, "d ** (n - 1 - k)", "d ** (n - k)")),
    "reader without the q^top scale": lambda: _reader("total * q, d * scale", "total, d"),
    "pairwise factor one too large": lambda: _pairwise(
        "lam[i] - lam[j] + j - i", "lam[i] - lam[j] + j - i + 1"),
}

# the refined quotient, which verify never runs: each bug in it must make
# refined_bialternant differ from the reference chain (_refined_mismatches)
REFINED_MUTANTS = {
    # the kernel's sums at the betas reversed; the scale stays right
    "column j takes the last j betas": lambda: (grothendieck, "refined_bialternant", _edited(
        grothendieck.refined_bialternant, "_dominant_coefficients(shape, n, betas)",
        "_dominant_coefficients(shape, n, betas[::-1])")),
    # the tables' scale, which thm-3.5's expansion takes too (MUTANTS)
    "scale exponent n - k": lambda: (grothendieck, "_beta_tables", _edited(
        grothendieck._beta_tables.__wrapped__, "d ** (n - 1 - k)", "d ** (n - k)")),
}

CAUGHT_BY = {
    # only thm-3.5's value at a point takes a determinant: the Schur
    # coefficients come from the kernel
    "minor sign flipped": {"thm-3.5"},
    # the bi-alternant's Schur route and the tableau sum share the packing
    # rule, and the fields' carries fold their keys apart; thm-3.5's
    # determinant is on plain ints, with nothing packed.  The diagonal reads
    # the b field alone and gives t the power |shape| + e, so it stays
    # homogeneous, and the b field read mod 4 keeps the excess's parity:
    # prop-AA's rows, which restate sum_T (-1)^excess(T) = 1, still pass
    "field width forced to 2 bits": {"gg-eq-w", "thm-3.9"},
    # only gg-eq-w's right side takes the Kostka table
    "strip as long as mu's last part refused": {"gg-eq-w"},
    "strip takes a cell of every row": {"gg-eq-w"},
    # the letter count, hence the excess, stays right; only the x-weight is wrong
    "cell weighed by its largest letter only": {"gg-eq-w"},
    # every filling is still counted once, so the counts hold; the
    # weights and the excess go wrong
    "last cell drops the prefix key": {"gg-eq-w", "prop-3.1", "prop-3.2", "prop-AA", "thm-3.9"},
    "excess unit dropped": {"gg-eq-w", "prop-3.1", "prop-3.2", "prop-AA", "thm-3.9"},
    # every key is still counted once, so the counts hold; gg-eq-w reads the
    # packed sum, not its diagonal
    "diagonal excess read from the x_1 field": {"prop-3.1", "prop-3.2", "prop-AA", "thm-3.9"},
    "column scale exponent n - k": {"thm-3.5"},
    "Vandermonde factor flipped": {"thm-3.5"},
    # every check that enumerates; thm-3.5 and thm-3.13 never do
    "column cap one letter too tight": {"hook-counts", "gg-eq-w", "prop-3.1", "prop-3.2",
                                        "cor-3.3", "cor-3.4", "cor-3.8", "thm-3.9",
                                        "cor-3.11", "prop-AA", "oddness"},
    # extra fillings in every shape of two rows or more; the sums that
    # alternate by excess (prop-AA, oddness) still come out right
    "upper neighbour's bound not strict": {"hook-counts", "gg-eq-w", "prop-3.1", "prop-3.2",
                                           "cor-3.3", "cor-3.4", "cor-3.8", "thm-3.9",
                                           "cor-3.11"},
    # extra fillings wherever the last cell has a left or upper neighbour
    # in the leaf; as with the bound above, the alternating sums hold
    "last cell's bound ignores the leaf": {"hook-counts", "gg-eq-w", "prop-3.1", "prop-3.2",
                                           "cor-3.3", "cor-3.4", "cor-3.8", "thm-3.9",
                                           "cor-3.11"},
    "coupling sign l_i + l_j": {"thm-3.9", "cor-3.11", "thm-3.13"},
    "hook content n + i - j": {"hook-counts"},
    "column binomial C(n + 1, k)": {"prop-3.2", "cor-3.4"},
    # the one shifted-exponent expansion: a sign (-1)^(n(n-1)/2) on the
    # count formula and the principal specialization alike, from the
    # per-set product; the kernel's sign and its repeated exponent reach
    # the bi-alternant's Schur coefficients too
    "count formula cross factor sign": {"thm-3.5", "cor-3.8"},
    "set sign from larger exponents": {"gg-eq-w", "thm-3.5", "cor-3.8"},
    "repeated exponent kept": {"gg-eq-w", "thm-3.5", "cor-3.8"},
    # gg-eq-w fills the memo at every beta = 1 before thm-3.5 reads it at
    # its random betas; cor-3.8 reads the ones, as gg-eq-w does
    "kernel memo keyed on c alone": {"thm-3.5"},
    "2F1 term over m + 2": {"prop-3.1", "prop-3.2", "cor-3.3", "cor-3.4"},
    # every check that evaluates a series, the 2F1 and the coupled one alike
    "series term over (b + k + 1)": {"prop-3.1", "prop-3.2", "cor-3.3", "cor-3.4", "thm-3.9",
                                     "cor-3.11", "thm-3.13"},
    # every check that sums the coupled series over coupled_sum, where
    # z = -beta and the coupling give negative weights and cross factors;
    # the shifted-exponent expansion (thm-3.5, cor-3.8) no longer calls it
    "kernel drops negative prefixes": {"thm-3.9", "cor-3.11", "thm-3.13"},
    # the tables at every beta = 1 too, which gg-eq-w reads
    "e_k window shifted": {"gg-eq-w", "thm-3.5", "cor-3.8"},
    # the count formula's ones have d = 1, so only thm-3.5's betas scale
    "beta scale exponent n - k": {"thm-3.5"},
    # every value at a z with a denominator comes out q^top too large.  The
    # two sides of prop-3.1 and prop-3.2 are polynomials of one degree (the
    # 2F1's n - 1 or n - k is the largest excess of a row or a column), so
    # both are off by the same power and still agree; prop-AA reads its
    # counts at z = -1.  Only thm-3.9 compares a series and a diagonal of
    # different degrees at a fractional beta
    "reader without the q^top scale": {"thm-3.9"},
    "pairwise factor one too large": {"hook-counts", "thm-3.9", "cor-3.11", "thm-3.13"},
}


def test_clear_memos_empties_every_memo_a_run_fills():
    # a memo clear_memos missed would hand a mutant values computed before
    # it was seeded, and the mutant would go uncaught
    memos = (grothendieck._tableau_sum, grothendieck._tableau_sum_diagonal,
             grothendieck._dominant_schur, grothendieck._strips, grothendieck._orbit_keys,
             grothendieck._beta_tables,
             grothendieck._exponent_set_sums,
             hypergeom._shape_series, hypergeom._ones_series, identities._gauss_series,
             identities._q_powers)
    clear_memos()
    run_all(Grid(3, 3), workers=1)
    assert all(memo.cache_info().currsize for memo in memos)
    clear_memos()
    assert not any(memo.cache_info().currsize for memo in memos)


# distinct betas with denominators, so that neither their order nor the
# scale prod_k d_k^(n-1-k) is lost
DISTINCT_BETAS = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]


def _first_row(shape, n, betas):
    """The bi-alternant's first row: x1^(l_j + n - 1 - j) times
    (1 + beta_1 x1) ... (1 + beta_j x1), 0-based j."""
    x = Poly.variable("x1")
    row, factor = [], Poly.constant(1)
    for j, part in enumerate(shape.padded(n)):
        if j:
            beta = betas[j - 1]
            factor = factor * (1 + x * (Poly.variable(beta) if isinstance(beta, str) else beta))
        row.append(x ** (part + n - 1 - j) * factor)
    return row


def _refined_mismatches(grid):
    """The pairs of the grid, and the empty shape, where refined_bialternant
    differs from the reference chain on its first row, at b1..b_(n-1) or
    at DISTINCT_BETAS."""
    bad = []
    for shape, n in [*grid.shapes(), (partitions.Partition(()), 1)]:
        names = [f"x{i}" for i in range(1, n + 1)]
        for betas in ([f"b{k}" for k in range(1, n)], DISTINCT_BETAS[:n - 1]):
            if grothendieck.refined_bialternant(shape, n, betas) != \
                    alternant_quotient(_first_row(shape, n, betas), names):
                bad.append((shape, n, betas))
    return bad


def test_the_refined_route_is_the_reference_chain():
    assert _refined_mismatches(Grid(4, 4)) == []


def test_the_chain_at_equal_betas_is_the_schur_route():
    # the refined route at b for every beta against _packed_bialternant
    for shape, n in [*Grid(4, 4).shapes(), (partitions.Partition(()), 1)]:
        assert grothendieck.refined_bialternant(shape, n, ["b"] * (n - 1)) == \
            grothendieck._packed_bialternant(shape, n).unpack(), (shape, n)


@pytest.mark.parametrize("mutant", sorted(REFINED_MUTANTS))
def test_the_reference_chain_catches_the_refined_mutant(mutant, monkeypatch):
    monkeypatch.setattr(*REFINED_MUTANTS[mutant]())
    assert _refined_mismatches(Grid(4, 4))


def test_verify_runs_no_chain(monkeypatch):
    # verify never builds the refined quotient, in any module that binds it
    def not_run(*args):
        raise AssertionError("the refined quotient ran")

    route = grothendieck.refined_bialternant
    for module in (grothendieck, identities, hypergeom):
        for name, value in list(vars(module).items()):
            if value is route:
                monkeypatch.setattr(module, name, not_run)
    clear_memos()
    try:
        report = run_all(Grid(4, 4), workers=1)
    finally:
        clear_memos()
    assert report.ok, [check.witnesses for check in report.checks if check.failed]
    assert next(check for check in report.checks if check.id == "gg-eq-w").passed


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_catches_the_mutant(mutant, monkeypatch):
    patches = MUTANTS[mutant]()
    for module, name, replacement in patches if isinstance(patches, list) else [patches]:
        monkeypatch.setattr(module, name, replacement)
    clear_memos()
    try:
        report = run_all(Grid(4, 4), workers=1)
    finally:
        clear_memos()
    failing = {check.id for check in report.checks if check.failed}
    assert failing == CAUGHT_BY[mutant]
    for check in report.checks:
        if check.failed:
            assert check.witnesses, check.id


def test_a_bug_in_the_series_side_shows_in_verify_and_in_the_cli(monkeypatch, capsys):
    # count-svt --method holman, thm-3.9 and cor-3.11 all call
    # ones_value_by_series; with z = beta for z = -beta, the series at
    # beta = 1 is 1/|SST|, so the count reads 1
    wrong = _edited(hypergeom.ones_value_by_series, "-exact_rational(beta)",
                    "exact_rational(beta)")
    for module in (cli, identities):
        monkeypatch.setattr(module, "ones_value_by_series", wrong)
    assert cli.main(["count-svt", "--shape", "2,1", "--vars", "3", "--method", "all"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "enum: 27", "formula: 27", "holman: 1", "DISAGREE"]
    report = run_all(Grid(3, 3), workers=1)
    assert {check.id for check in report.checks if check.failed} == {"thm-3.9", "cor-3.11"}


def test_a_bug_in_the_series_read_shows_in_verify_and_in_the_cli(monkeypatch, capsys):
    # thm-3.9, cor-3.11, thm-3.13, eval-holman --from-shape and eval-2f1
    # all read a polynomial in z through arith.polynomial_at, and so do the
    # row and column checks, on both sides; with q^s for q^(top - s) (in
    # Horner's rule, each step times p q with c unscaled) only a z with a
    # denominator reads wrong.  The two sides of prop-3.1 and
    # prop-3.2 have one degree and go wrong alike, so of the checks only
    # thm-3.9 fails
    for module, name, wrong in _reader("total * p + c * scale", "total * p * q + c"):
        monkeypatch.setattr(module, name, wrong)
    clear_memos()
    try:
        assert cli.main(["eval-holman", "--from-shape", "2,1", "--vars", "3", "--z", "1/2"]) == 0
        assert capsys.readouterr().out != "27/64\n"
        assert cli.main(["eval-2f1", "3", "-2", "4", "1/2"]) == 0
        assert capsys.readouterr().out != "2/5\n"
        report = run_all(Grid(4, 4), workers=1)
    finally:
        clear_memos()
    assert {check.id for check in report.checks if check.failed} == {"thm-3.9"}


def test_a_gg_eq_w_witness_names_the_terms_that_differ(monkeypatch):
    # K((2,1), (1,1,1)) = 2 read as 1: for (2) in 3 variables both sides
    # have 16 terms, and the witness's difference holds the one that differs
    monkeypatch.setattr(grothendieck, "_dominant_schur", _edited(
        grothendieck._dominant_schur.__wrapped__, "kostka[mu] = kostka.get(mu, 0) + count",
        "kostka[mu] = count"))
    clear_memos()
    try:
        report = identities.run_check("gg-eq-w", Grid(2, 3))
    finally:
        clear_memos()
    assert report.failed == 1
    assert report.witnesses[0].params == {"shape": "(2)", "n": "3", "difference": "b*x1*x2*x3"}
    assert report.witnesses[0].left.count("+") == report.witnesses[0].right.count("+") == 15
