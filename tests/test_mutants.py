"""Seeded bugs in the packed bi-alternant kernel that verify must catch.

Each mutant is put in place in this process with monkeypatch, so nothing
on disk changes, and run_all(Grid(4, 4), workers=1) runs in this process
too.  CAUGHT_BY maps each mutant to the checks that must then report
failing instances, each with a witness; every other check reads no
determinant and must still pass.
"""

import inspect

import pytest

from grothtab import polynomials
from grothtab.identities import Grid, run_all


def _edited(function, old: str, new: str):
    """`function` recompiled from its source with `old` replaced by `new`,
    over a copy of its module's globals."""
    source = inspect.getsource(function)
    assert source.count(old) == 1, f"{old!r} not found once in {function.__name__}"
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


MUTANTS = {
    "minor sign flipped": lambda: ("_expand_packed", _edited(
        polynomials._expand_packed, "sign = -1 if t % 2 else 1", "sign = 1 if t % 2 else -1")),
    "field width forced to 2 bits": lambda: ("_field_width", lambda degree: 2),
}

CAUGHT_BY = {
    "minor sign flipped": {"gg-eq-w", "thm-3.5"},
    "field width forced to 2 bits": {"gg-eq-w", "thm-3.5"},
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_catches_the_mutant(mutant, monkeypatch):
    name, replacement = MUTANTS[mutant]()
    monkeypatch.setattr(polynomials, name, replacement)
    report = run_all(Grid(4, 4), workers=1)
    failing = {check.id for check in report.checks if check.failed}
    assert failing == CAUGHT_BY[mutant]
    for check in report.checks:
        if check.failed:
            assert check.witnesses, check.id
