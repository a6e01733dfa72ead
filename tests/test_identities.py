import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from grothtab import hypergeom, identities, tableaux
from grothtab.grothendieck import grothendieck_tableau_sum
from grothtab.identities import (
    CHECKS,
    DEFAULT_BETAS,
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
from grothtab.partitions import count_sst_product
from grothtab.polynomials import Poly
from memos import clear_memos

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


def test_grid_is_an_immutable_value():
    grid = Grid(max_size=3, max_vars=2)
    assert grid == Grid(3, 2, 2718) and hash(grid) == hash(Grid(3, 2, 2718))
    assert grid != Grid(3, 2, seed=1)
    assert Grid() == Grid(6, 4, 2718)
    with pytest.raises(AttributeError):
        grid.max_size = 4
    assert repr(grid) == "Grid(max_size=3, max_vars=2, seed=2718)"


def test_witnesses_and_reports_compare_by_value():
    witness = identities.Witness({"shape": "(1)"}, "1", "2")
    assert witness == identities.Witness({"shape": "(1)"}, "1", "2")
    assert witness != identities.Witness({"shape": "(1)"}, "1", "3")
    report = identities.CheckReport("x", "s", 1, 1, [witness], 0.5)
    assert report == identities.CheckReport("x", "s", 1, 1, [witness], 0.5)
    assert report != identities.CheckReport("x", "s", 2, 1, [witness], 0.5)
    assert identities.CheckReport("x", "s", 0, 0).witnesses == []


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
    clear_memos()
    try:
        assert run_all(grid, workers=1).ok
    finally:
        clear_memos()
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


GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden"


@pytest.mark.parametrize("grid, name", [(Grid(6, 5), "verify-serial"),
                                        (Grid(4, 6), "verify-parallel")])
def test_the_benchmark_grids_report_their_golden_copies(grid, name):
    # the benchmark's pinned reports, read only: the counts, instances and
    # witnesses of every check, with the seconds stripped
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _strip_seconds(run_all(grid, workers=1).to_json()) == golden


def test_the_diagonal_rows_are_the_substituted_tableau_sum():
    # the rows at x = 1 and at the tilted point read the counts by excess;
    # against the full tableau sum, substituted term by term
    for shape, n in Grid(5, 4).shapes():
        full = grothendieck_tableau_sum(shape, n)
        ones = full.substitute({f"x{i}": 1 for i in range(1, n + 1)})
        rows = list(identities._all_ones_rows(shape, n, lambda beta: 0))
        assert [right for _, _, right in rows] == [
            ones.substitute({"b": beta}).as_fraction() for beta in DEFAULT_BETAS]
        tilted = list(CHECKS["prop-AA"].rows(Grid(), shape, n))
        assert [left for _, left, _ in tilted] == [
            full.substitute({"b": -1 / beta, **{f"x{i}": beta for i in range(1, n + 1)}})
            .as_fraction() for beta in DEFAULT_BETAS]


def test_a_run_substitutes_nothing_and_builds_each_series_once(monkeypatch):
    # the scalar rows read polynomials in one variable kept per (shape, n):
    # no Poly is substituted into, and each pair builds its Gauss parts and
    # its coupled series once, whatever the number of betas
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(Poly, "substitute", counting("substitute", Poly.substitute))
    monkeypatch.setattr(identities, "_gauss_parts", counting("gauss", identities._gauss_parts))
    monkeypatch.setattr(hypergeom, "_series_parts", counting("series", hypergeom._series_parts))
    grid = Grid(5, 5)
    pairs = list(grid.shapes())
    gauss_pairs = [(shape, n) for shape, n in pairs if len(shape) == 1 or shape[0] == 1]
    clear_memos()
    try:
        assert run_all(grid, workers=1).ok
        assert run_all(grid, workers=1).ok
    finally:
        clear_memos()
    assert calls == {"gauss": len(gauss_pairs), "series": len(pairs) + len(gauss_pairs)}


def test_parallel_and_serial_runs_agree():
    grid = Grid(max_size=3, max_vars=3)
    serial = _strip_seconds(run_all(grid, workers=1).to_json())
    parallel = _strip_seconds(run_all(grid, workers=2).to_json())
    assert serial == parallel
    assert serial["ok"] is True


def _estimated_loads(pairs, held):
    return [sum(count_sst_product(*pairs[i]) for i in mine) for mine in held]


@pytest.mark.parametrize("workers", [2, 3, 4, 5])
def test_assignment_holds_each_pair_once_within_the_lpt_bound(workers):
    for max_size in range(1, 5):
        for max_vars in range(1, 7):
            pairs = list(Grid(max_size, max_vars).shapes())
            count = min(workers, len(pairs))
            held = identities._assign(pairs, count)
            assert len(held) == count and all(held), (max_size, max_vars)
            assert sorted(i for mine in held for i in mine) == list(range(len(pairs)))
            assert all(mine == sorted(mine) for mine in held)
            # Graham's bound: the last pair given to the busiest worker went
            # to the least loaded one, so the loads differ by at most one pair
            loads = _estimated_loads(pairs, held)
            assert max(loads) - min(loads) <= max(count_sst_product(*pair) for pair in pairs)


def test_assignment_splits_the_benchmark_grids_evenly():
    for grid, loads in ((Grid(4, 6), [707, 707]), (Grid(6, 5), [2205, 2204])):
        pairs = list(grid.shapes())
        assert _estimated_loads(pairs, identities._assign(pairs, 2)) == loads


@pytest.fixture
def odd_n_fails():
    """A registered check that fails at every odd n and raises at (1), n = 2."""
    def rows(grid, shape, n):
        if shape == (1,) and n == 2:
            raise RuntimeError("boom")
        yield {"shape": shape, "n": n}, n % 2, 0

    CHECKS["odd-n-fails"] = Check("odd-n-fails", "fails at odd n", "n mod 2", "0", rows)
    yield "odd-n-fails"
    del CHECKS["odd-n-fails"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_forked_results_placed_in_grid_order_fold_to_the_serial_report(odd_n_fails):
    # each worker's pairs, non-contiguous, swept in its own fork and placed
    # at their grid indices
    grid = Grid(max_size=4, max_vars=4)
    pairs = list(grid.shapes())
    ids = ["cor-3.3", odd_n_fails]
    held = identities._assign(pairs, 3)
    whole = identities._sweep(grid, pairs, ids)
    placed = identities._fork_sweeps(grid, pairs, held, ids)
    reports = [identities._report(check_id, mine) for check_id, mine in zip(ids, placed)]
    serial = [run_check(check_id, grid) for check_id in ids]
    assert all(mine[-1] - mine[0] >= len(mine) for mine in held)

    def timeless(results):
        return [[result[:3] for result in mine] for mine in results]

    assert timeless(placed) == timeless(whole)
    # the failures fall in every worker, and the first witnesses in more than
    # one, interleaved: taken worker by worker they would be out of order
    odd = placed[1]
    assert all(sum(odd[i][1] for i in mine) > 0 for mine in held)
    assert MAX_WITNESSES < reports[1].failed
    firsts = [i for i, result in enumerate(odd) for _ in result[2]][:MAX_WITNESSES]
    assert len({w for w, mine in enumerate(held) if set(firsts) & set(mine)}) > 1
    by_worker = [Witness(*w) for mine in held for i in mine for w in odd[i][2]]
    assert by_worker[:MAX_WITNESSES] != reports[1].witnesses
    assert any(w.params.get("error") == "RuntimeError" for w in reports[1].witnesses)
    assert [r._replace(seconds=0) for r in reports] == [r._replace(seconds=0) for r in serial]
    assert all(r.seconds == sum(result[3] for result in mine)
               for r, mine in zip(reports, placed))


def test_run_check_reports_each_check_as_run_all_does(odd_n_fails):
    grid = Grid(max_size=4, max_vars=4)
    alone = [run_check(check_id, grid)._replace(seconds=0) for check_id in check_ids()]
    assert alone[-1].id == odd_n_fails and len(alone[-1].witnesses) == MAX_WITNESSES
    for workers in (1, 2):
        assert [c._replace(seconds=0) for c in run_all(grid, workers).checks] == alone


@pytest.mark.skipif(not hasattr(os, "fork"),
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


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_a_failing_worker_raises_naming_its_chunks(monkeypatch):
    grid = Grid(max_size=3, max_vars=3)
    pairs = list(grid.shapes())
    doomed = [pairs[i] for i in identities._assign(pairs, 2)[1]]
    (first, m), (last, n) = doomed[0], doomed[-1]
    assert 1 < len(doomed) < len(pairs)
    parent, original = os.getpid(), identities._sweep
    for end, how in [(lambda: os._exit(3), "exited with code 3"),
                     (lambda: os.kill(os.getpid(), signal.SIGKILL),
                      f"was killed by signal {int(signal.SIGKILL)}")]:
        def sweep(grid, pairs, ids):
            if os.getpid() != parent and pairs == doomed:
                end()
            return original(grid, pairs, ids)

        monkeypatch.setattr(identities, "_sweep", sweep)
        with pytest.raises(RuntimeError) as caught:
            run_all(grid, workers=2)
        assert str(caught.value) == (f"a verify worker {how} holding {len(doomed)} pair(s), "
                                     f"{first} n={m} to {last} n={n}")
        _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="a monkeypatched count reaches the workers only when they are forked")
def test_an_estimate_that_raises_does_not_abort_the_run(monkeypatch):
    original = identities.count_sst_product

    def count(shape, n):
        if shape == (2, 1) and n == 3:
            raise ArithmeticError("broken count")
        return original(shape, n)

    monkeypatch.setattr(identities, "count_sst_product", count)
    grid = Grid(max_size=4, max_vars=4)
    assert identities._estimate(identities.Partition((2, 1)), 3) == 1
    serial = _strip_seconds(run_all(grid, workers=1).to_json())
    assert _strip_seconds(run_all(grid, workers=2).to_json()) == serial
    failing = {check["id"]: check for check in serial["checks"] if check["failed"]}
    assert set(failing) == {"hook-counts", "thm-3.13"}
    assert failing["hook-counts"]["failed"] == 1
    assert failing["hook-counts"]["witnesses"][0]["params"] | {"at": ""} == {
        "shape": "(2,1)", "n": "3", "error": "ArithmeticError", "at": ""}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    parent, original = os.getpid(), identities._sweep

    def sweep(grid, pairs, ids):
        if os.getpid() != parent:
            time.sleep(60)
        return original(grid, pairs, ids)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(identities, "_sweep", sweep)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            run_all(Grid(max_size=3, max_vars=3), workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _no_child_left()


def test_without_fork_the_run_is_serial(monkeypatch):
    grid = Grid(max_size=3, max_vars=3)
    serial = run_all(grid, workers=1).to_json()
    sweeps, original = [], identities._sweep

    def sweep(grid, pairs, ids):
        sweeps.append(len(pairs))  # a forked worker's append would not reach this list
        return original(grid, pairs, ids)

    monkeypatch.setattr(identities, "_sweep", sweep)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _strip_seconds(run_all(grid, workers=2).to_json()) == _strip_seconds(serial)
    assert sweeps == [len(list(grid.shapes()))]


def _fresh_python(code: str) -> str:
    """The stdout of code run in a new interpreter on this checkout's src."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("GROTH_THREADS", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_and_parallel_run_load_no_dataclasses_or_pool():
    # nor traceback (with linecache and tokenize) or csv, which only a
    # crashing instance and --format csv need
    code = ("import sys, grothtab.cli\n"
            "from grothtab.identities import Grid, run_all\n"
            "assert run_all(Grid(3, 3), workers=2).ok\n"
            "print(sorted({'dataclasses', 'inspect', 'concurrent.futures', 'multiprocessing',"
            " 'traceback', 'csv'} & set(sys.modules)))\n")
    assert _fresh_python(code) == "[]\n"


def test_a_crash_names_its_frame_in_a_fresh_interpreter():
    # pytest has imported traceback already, so only a new interpreter shows
    # that the sweep imports what its crash branch uses, serially and in a
    # forked worker
    code = ("import sys\n"
            "from grothtab.identities import CHECKS, Check, Grid, run_all, run_check\n"
            "def crashing(grid, shape, n):\n"
            "    raise RuntimeError('boom')\n"
            "    yield\n"
            "CHECKS['crash-demo'] = Check('crash-demo', 'raises', '-', '-', crashing)\n"
            "assert 'traceback' not in sys.modules\n"
            "print(run_check('crash-demo', Grid(1, 1)).witnesses[0].params['at'])\n"
            "report = run_all(Grid(2, 2), workers=2).checks[-1]\n"
            "print(report.failed, report.witnesses[-1].params['at'])\n")
    assert _fresh_python(code) == "crashing (<string>:4)\n5 crashing (<string>:4)\n"


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


@pytest.mark.parametrize("source, expected", [
    ("process_cpu_count", 3), ("sched_getaffinity", 5), ("cpu_count", 8)])
def test_resolve_workers_defaults_to_the_usable_cpus(monkeypatch, source, expected):
    # the sources before `source` do not exist, so `source` is the one read
    monkeypatch.delenv("GROTH_THREADS", raising=False)
    counts = {"process_cpu_count": lambda: 3,
              "sched_getaffinity": lambda pid: {0, 2, 4, 6, 7},
              "cpu_count": lambda: 8}
    names = list(counts)
    for name in names[:names.index(source)]:
        monkeypatch.delattr(os, name, raising=False)
    for name in names[names.index(source):]:
        monkeypatch.setattr(os, name, counts[name], raising=False)
    assert resolve_workers() == expected
    assert resolve_workers(4) == 4
    monkeypatch.setenv("GROTH_THREADS", "2")
    assert resolve_workers() == 2


def test_resolve_workers_without_a_cpu_count_is_one(monkeypatch):
    monkeypatch.delenv("GROTH_THREADS", raising=False)
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers() == 1
