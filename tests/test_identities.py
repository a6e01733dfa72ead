import json
import multiprocessing
import sys
from collections import Counter
from pathlib import Path

import pytest

from grothtab import grothendieck, identities, tableaux
from grothtab.grothendieck import grothendieck_tableau_sum
from grothtab.identities import (
    CHECKS,
    MAX_WITNESSES,
    Check,
    Grid,
    UnknownCheckError,
    Witness,
    check_ids,
    resolve_workers,
    run_all,
    run_check,
)

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "grothtab" / "schemas" / "report.schema.json").read_text())

EXPECTED_IDS = {
    "hook-counts", "gg-eq-w",
    "prop-3.1", "prop-3.2", "cor-3.3", "cor-3.4",
    "thm-3.5", "cor-3.8", "thm-3.9", "cor-3.11",
    "prop-AA", "thm-3.13", "oddness",
}


def test_registry_covers_every_named_result():
    assert set(check_ids()) == EXPECTED_IDS


def test_run_check_passes_on_small_grid():
    report = run_check("cor-3.8", Grid(max_size=4, max_vars=3))
    assert report.ok
    assert report.instances > 0
    assert report.failed == 0 and report.witnesses == []
    assert report.seconds >= 0


def test_count_formula_check_up_to_size_seven():
    # the wider grid reaches the (4,3) shapes with their reference counts
    grid = Grid(max_size=7, max_vars=4)
    assert any(tuple(s) == (4, 3) and n == 4 for s, n in grid.shapes())
    report = run_check("cor-3.8", grid)
    assert report.ok and report.instances > 0


def test_run_check_unknown_id():
    with pytest.raises(UnknownCheckError):
        run_check("nonexistent", Grid(1, 1))


@pytest.mark.parametrize("max_size, max_vars", [(0, 1), (1, 0), (-1, 3)])
def test_empty_grid_is_rejected(max_size, max_vars):
    with pytest.raises(ValueError, match="at least 1"):
        Grid(max_size=max_size, max_vars=max_vars)


def test_grid_order_is_size_then_shape_then_vars():
    pairs = list(Grid(max_size=3, max_vars=3).shapes())
    keys = [(s.size, tuple(s), n) for s, n in pairs]
    assert keys == sorted(keys)
    assert all(len(s) <= n for s, n in pairs)


def test_random_betas_are_deterministic():
    grid = Grid(max_size=3, max_vars=3)
    shape = next(iter(grid.shapes()))[0]
    assert grid.random_betas(shape, 3) == grid.random_betas(shape, 3)
    assert len(grid.random_betas(shape, 4)) == 3


def test_failing_check_reports_minimal_witness_without_raising():
    def broken(grid, shape, n):
        yield {"shape": shape, "n": n}, 0, 1

    CHECKS["broken-demo"] = Check("broken-demo", "always fails", "0", "1", broken)
    try:
        report = run_check("broken-demo", Grid(max_size=2, max_vars=2))
        assert not report.ok
        assert report.failed == report.instances > 0
        # first witness is the smallest shape in grid order
        assert report.witnesses[0].params["shape"] == "(1)"
        assert len(report.witnesses) <= 5
    finally:
        del CHECKS["broken-demo"]


def test_crashing_check_is_reported_not_raised():
    def crashing(grid, shape, n):
        yield {"shape": "(1)"}, 1, 1
        raise RuntimeError("boom")

    CHECKS["crash-demo"] = Check("crash-demo", "raises", "-", "-", crashing)
    try:
        report = run_check("crash-demo", Grid(1, 1))
        assert report.failed == 1 and report.passed == 1
        line = crashing.__code__.co_firstlineno + 2
        assert report.witnesses[0].params == {"shape": "(1)", "n": "1", "error": "RuntimeError",
                                              "at": f"crashing (test_identities.py:{line})"}
    finally:
        del CHECKS["crash-demo"]


def test_crashing_instance_does_not_hide_later_instances():
    def crash_on_2_1(grid, shape, n):
        if shape == (2, 1) and n == 2:
            raise RuntimeError("boom")
        yield {"shape": shape, "n": n}, 1, 1

    def always_crashing(grid, shape, n):
        raise KeyError(n)
        yield

    grid = Grid(max_size=3, max_vars=3)
    pairs = len(list(grid.shapes()))
    CHECKS["crash-one"] = Check("crash-one", "raises once", "1", "1", crash_on_2_1)
    CHECKS["crash-all"] = Check("crash-all", "always raises", "-", "-", always_crashing)
    try:
        report = run_check("crash-one", grid)
        assert report.instances == pairs
        assert report.passed == pairs - 1 and report.failed == 1
        line = crash_on_2_1.__code__.co_firstlineno + 2
        assert report.witnesses == [
            Witness({"shape": "(2,1)", "n": "2", "error": "RuntimeError",
                     "at": f"crash_on_2_1 (test_identities.py:{line})"}, "boom", "")]
        report = run_check("crash-all", grid)
        assert report.instances == report.failed == pairs > MAX_WITNESSES
        assert len(report.witnesses) == MAX_WITNESSES
        line = always_crashing.__code__.co_firstlineno + 1
        assert report.witnesses[0].params == {"shape": "(1)", "n": "1", "error": "KeyError",
                                              "at": f"always_crashing (test_identities.py:{line})"}
    finally:
        del CHECKS["crash-one"], CHECKS["crash-all"]


def test_serial_run_enumerates_each_pair_once(monkeypatch):
    original = tableaux.enumerate_svt
    seen = Counter()

    def counting(shape, n, *units):
        seen[tuple(shape), n] += 1
        return original(shape, n, *units)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "grothtab" or name.startswith("grothtab."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    grid = Grid(max_size=4, max_vars=3)
    grothendieck._tableau_sum.cache_clear()
    try:
        assert run_all(grid, workers=1).ok
    finally:
        grothendieck._tableau_sum.cache_clear()
    assert seen == Counter((tuple(shape), n) for shape, n in grid.shapes())


def test_svt_count_is_the_coefficient_sum_of_the_tableau_sum():
    # the count read off the memoized diagonal against the full sum's terms
    for shape, n in Grid(5, 5).shapes():
        full = sum(grothendieck_tableau_sum(shape, n).terms.values())
        assert identities._svt_count(shape, n) == full, (shape, n)


def _strip_seconds(payload):
    for check in payload["checks"]:
        check.pop("seconds", None)
    return payload


def test_parallel_and_serial_runs_agree():
    grid = Grid(max_size=3, max_vars=3)
    serial = _strip_seconds(run_all(grid, workers=1).to_json())
    parallel = _strip_seconds(run_all(grid, workers=2).to_json())
    assert serial == parallel
    assert serial["ok"] is True


@pytest.mark.parametrize("workers", [2, 3, 4, 5])
def test_chunks_cover_every_pair_once_in_grid_order(workers):
    for max_size in range(1, 5):
        for max_vars in range(1, 7):
            pairs = list(Grid(max_size, max_vars).shapes())
            chunks = identities._chunks(pairs, workers)
            assert all(chunks), (max_size, max_vars)
            assert [pair for chunk in chunks for pair in chunk] == pairs
            assert len(chunks) == min(len(pairs), 4 * workers)
            # within one pair of each other in length
            assert max(map(len, chunks)) - min(map(len, chunks)) <= 1


def test_merged_chunk_reports_equal_one_sweep():
    grid = Grid(max_size=4, max_vars=4)

    def odd_n_fails(grid, shape, n):
        if shape == (1,) and n == 2:
            raise RuntimeError("boom")
        yield {"shape": shape, "n": n}, n % 2, 0

    CHECKS["odd-n-fails"] = Check("odd-n-fails", "fails at odd n", "n mod 2", "0", odd_n_fails)
    try:
        pairs = list(grid.shapes())
        ids = ["cor-3.3", "odd-n-fails"]
        whole = identities._sweep(grid, pairs, ids)
        parts = [identities._sweep(grid, chunk, ids) for chunk in identities._chunks(pairs, 3)]
        merged = [identities._merge(column) for column in zip(*parts)]
    finally:
        del CHECKS["odd-n-fails"]
    # the failures fall in many chunks, and the first witnesses in more than one
    assert sum(chunk[1].failed > 0 for chunk in parts) > 2
    assert 0 < len(parts[0][1].witnesses) < MAX_WITNESSES < whole[1].failed
    assert any(w.params.get("error") == "RuntimeError" for w in whole[1].witnesses)
    def stripped(reports):
        return [{k: v for k, v in r.to_json().items() if k != "seconds"} for r in reports]

    assert stripped(merged) == stripped(whole)
    assert all(m.seconds == sum(p[i].seconds for p in parts) for i, m in enumerate(merged))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="a monkeypatched bug reaches the workers only when they are forked")
def test_parallel_run_reports_a_bug_as_the_serial_run_does(monkeypatch):
    original = identities.count_sst_product
    monkeypatch.setattr(identities, "count_sst_product",
                        lambda shape, n: original(shape, n) + (n >= 3))
    grid = Grid(max_size=4, max_vars=4)
    serial = _strip_seconds(run_all(grid, workers=1).to_json())
    parallel = _strip_seconds(run_all(grid, workers=2).to_json())
    assert serial == parallel
    failing = {check["id"] for check in serial["checks"] if check["failed"]}
    assert failing == {"hook-counts", "thm-3.13"}
    assert all(len(check["witnesses"]) == MAX_WITNESSES
               for check in serial["checks"] if check["failed"])


def test_suite_report_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    suite = run_all(Grid(max_size=2, max_vars=2), workers=1)
    jsonschema.validate(suite.to_json(), SCHEMA)


def test_resolve_workers_cap(monkeypatch, capsys):
    monkeypatch.setenv("GROTH_THREADS", "1")
    assert resolve_workers(8) == 1
    monkeypatch.setenv("GROTH_THREADS", "4")
    assert resolve_workers(2) == 2
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("GROTH_THREADS", "junk")
    assert resolve_workers(3) == 3
    assert "GROTH_THREADS='junk'" in capsys.readouterr().err
    monkeypatch.delenv("GROTH_THREADS")
    assert resolve_workers(3) == 3
    assert resolve_workers() >= 1
