"""grothtab benchmark: `grothtab verify` wall time and one-shot CLI latency.

    python3 perfbench/run.py --workload verify-serial --seed 2718 --seconds 30 --trace 0

Run from the root of a source checkout; grothtab is imported from `src/`,
nothing is installed and nothing is built.  Workloads:

  verify-serial    run_all(Grid(max_size=6, max_vars=5), workers=1)
  verify-parallel  run_all(Grid(max_size=4, max_vars=6), workers=2)
  cli-oneshot      a closed loop of one client sending seeded CLI queries

Every command (one verify run, or one query) runs in a fresh interpreter
with no warm-up, because grothendieck_tableau_sum memoizes per process and
a `grothtab` user pays that fill on every run.  A run repeats its unit (a
verify run, or one pass over the query list) while the next one is
expected to end within --seconds, and always runs at least one.

--trace 0 prints the end-to-end metrics, with every time scaled to a
reference speed of the machine by meter.py.  --trace 1 runs the workload
once untraced and once with every layer wrapped (see spans.py; the verify
grids are traced serially) and prints the per-layer metrics.  The last
line of stdout is the result; the lines before it give the provenance and
figures kept out of the result, and the whole result, with the spans of a
traced run or the meter's samples of an untraced one, is also written
under perfbench/out/.  Every answer is checked; a wrong one counts in
`failed` and makes `correct` false.  See README.md.
"""

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import spans
from child import RESULT_PREFIX
from meter import Meter, work_cpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"
CHILD = HERE / "child.py"
DEFAULT_SEED = 2718                   # Grid.seed
SETUP_PROBES = 12  # before and again after the measured units
COMMAND_TIMEOUT_S = 170
# A query takes tenths of a second, within which the machine's speed flips;
# the meter samples it that often, at the cost of a slower pass.  Repeated
# queries scaled this way varied by 0.03 to 0.05 (coefficient of variation),
# against 0.10 at the verify runs' 0.5 s period and 2.5 s window.
QUERY_METER = {"period": 0.1, "window": 0.3}

VERIFY = {
    "verify-serial": {"max_size": 6, "max_vars": 5, "workers": 1, "instances": 2210},
    "verify-parallel": {"max_size": 4, "max_vars": 6, "workers": 2, "instances": 1352},
}
WORKLOADS = (*VERIFY, "cli-oneshot")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GROTH_THREADS", None)   # the worker count is passed explicitly
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def kill_group(proc):
    """Kill the command with its pool workers, stopped or not."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, spec: dict, meter=None) -> dict:
    """Run one child command; returns its start and end, latency, exit code,
    stdout and result.  With a meter, the meter's samples pause it."""
    def popen():
        return subprocess.Popen([sys.executable, str(CHILD), mode, json.dumps(spec)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
                                env=child_env(), start_new_session=True)

    start = time.monotonic()
    proc = meter.start_command(popen) if meter else popen()
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        out, err = proc.communicate()
    except BaseException:   # interrupted or terminated: leave nothing running
        kill_group(proc)
        proc.wait()
        raise
    finally:
        if meter:
            meter.end_command()
    end = time.monotonic()
    result = None
    lines = err.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(RESULT_PREFIX):
        result = json.loads(lines[-1][len(RESULT_PREFIX):])
    return {"start": start, "end": end, "latency": end - start, "code": proc.returncode,
            "stdout": out.decode(errors="replace"), "result": result}


def probe_setups(meter) -> list[dict]:
    return [c for c in (spawn("probe", {}, meter) for _ in range(SETUP_PROBES)) if c["result"]]


def repeat(unit, seconds: float) -> list:
    """Run unit(0), unit(1), ... at least once, and again while another is
    expected to fit in `seconds`."""
    start = time.monotonic()
    done, durations = [], []
    while not done or time.monotonic() - start + statistics.median(durations) <= seconds:
        t = time.monotonic()
        done.append(unit(len(done)))
        durations.append(time.monotonic() - t)
    return done


# ----------------------------------------------------------------------
# verify workloads
# ----------------------------------------------------------------------

def strip_seconds(report: dict) -> dict:
    return {**report, "checks": [{k: v for k, v in c.items() if k != "seconds"}
                                 for c in report["checks"]]}


def load_golden(workload: str) -> dict:
    return json.loads((GOLDEN / f"{workload}.json").read_text())


def verify_failures(cmd: dict, instances: int, golden: dict) -> int:
    """Failed instances of one verify command; a crash fails all of them, and
    a report that differs from the golden copy counts at least once."""
    result = cmd["result"]
    if cmd["code"] != 0 or not result or "report" not in result:
        return instances
    report = result["report"]
    failed = report["failed"]
    if report["passed"] + failed != instances or strip_seconds(report) != golden:
        failed = max(failed, 1)
    return failed


def run_verify(workload: str, seed: int, seconds: float, trace: bool, golden=None) -> dict:
    cfg = VERIFY[workload]
    golden = load_golden(workload) if golden is None else golden

    def command(workers, traced=False, meter=None):
        return spawn("verify", {"max_size": cfg["max_size"], "max_vars": cfg["max_vars"],
                                "workers": workers, "seed": seed, "trace": int(traced)}, meter)

    if not trace:
        with Meter(work_cpus(cfg["workers"])) as meter:
            probes = probe_setups(meter)
            cmds = repeat(lambda _: command(cfg["workers"], meter=meter), seconds)
            probes += probe_setups(meter)
    else:
        # The untraced and the traced serial run go side by side, one on each
        # core: the traced run then takes half the time, and the overhead
        # compares two runs made at the same time, not one after the other.
        base = command(cfg["workers"]) if cfg["workers"] > 1 else None
        with ThreadPoolExecutor(2) as pool:
            serial, traced = pool.map(lambda t: command(1, t), (False, True))
        cmds = [c for c in (base, serial, traced) if c]
        base = base or serial

    failed = sum(verify_failures(c, cfg["instances"], golden) for c in cmds)
    out = {"attempted": cfg["instances"] * len(cmds), "failed": failed, "commands": len(cmds),
           "grids": {workload: [cfg["max_size"], cfg["max_vars"]]}, "workers": cfg["workers"]}
    if failed:
        return out
    results = [c["result"] for c in cmds]
    if not trace:
        out["metrics"], out["meter"] = end_to_end(cmds, probes, meter)
        return out
    base_r, serial_r, traced_r = base["result"], serial["result"], traced["result"]
    check_s = base_r["check_s"]
    out["spans"] = [traced_r["spans"]]
    out["metrics"] = per_layer(
        out["spans"], check_s,
        busy_base=cfg["workers"] * base_r["call_s"],
        import_s=statistics.median(r["import_s"] for r in results),
        overhead=(traced_r["call_s"] - serial_r["call_s"]) / serial_r["call_s"])
    return out


# ----------------------------------------------------------------------
# cli-oneshot
# ----------------------------------------------------------------------

def run_cli(seed: int, seconds: float, trace: bool, stream=None) -> dict:
    import queries
    stream = queries.build(seed) if stream is None else stream

    def one_pass(index, traced=False, meter=None):
        order = list(stream)
        random.Random(f"{seed}/{index}").shuffle(order)
        return [(q, spawn("query", {"argv": q["argv"], "trace": int(traced)}, meter))
                for q in order]

    if not trace:
        with Meter(work_cpus(1), **QUERY_METER) as meter:
            probes = probe_setups(meter)
            plain = done = [pair for p in repeat(lambda i: one_pass(i, meter=meter), seconds)
                            for pair in p]
            probes += probe_setups(meter)
    else:
        plain = one_pass(0)
        traced = one_pass(0, traced=True)
        done = plain + traced

    failed = sum(queries.wrong(q, c["code"], c["stdout"]) or not c["result"] for q, c in done)
    out = {"attempted": len(done), "failed": failed, "commands": len(done),
           "grids": {q["argv"][2]: [int(q["argv"][4]), int(q["argv"][6])]
                     for q in stream if q["sub"] == "verify"},
           "workers": 1}
    if failed:
        return out
    by_sub = {}
    for q, c in plain:
        latency = c["latency"] if trace else meter.scaled(c["start"], c["end"])
        by_sub.setdefault(q["sub"], []).append(latency)
    out["sub_p50_s"] = {sub: statistics.median(v) for sub, v in sorted(by_sub.items())}
    if not trace:
        out["metrics"], out["meter"] = end_to_end([c for _, c in done], probes, meter)
        return out
    # The CLI's report rounds check seconds to milliseconds, so the check
    # times come from the run_check spans of the traced pass.
    check_s, verify_call_s = {}, 0.0
    for q, c in traced:
        if q["sub"] == "verify":
            run_check = next(s for s in c["result"]["spans"] if s[0] == "identities.run_check")
            check_s[q["argv"][2]] = run_check[4]
            verify_call_s += c["result"]["call_s"]
    plain_s = sum(c["result"]["call_s"] for _, c in plain)
    traced_s = sum(c["result"]["call_s"] for _, c in traced)
    out["spans"] = [c["result"]["spans"] for _, c in traced]
    out["metrics"] = per_layer(
        out["spans"], check_s, busy_base=verify_call_s,
        import_s=statistics.median(c["result"]["import_s"] for _, c in plain),
        overhead=(traced_s - plain_s) / plain_s)
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(cmds, probes, meter) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference speed, and the meter's record:
    the same figures as measured, the range of speeds the meter saw, and
    the samples and command times they were scaled from."""
    def figures(span):
        latencies = [span(c["start"], c["end"]) for c in cmds]
        setups = [span(c["start"], c["result"]["ready"]) for c in probes + cmds]
        calls = [span(*c["result"]["call"]) for c in cmds]
        return {"query_p50_s": statistics.median(latencies), "query_p90_s": p90(latencies),
                "call_s": statistics.mean(calls), "setup_s": statistics.median(setups)}

    scaled = figures(meter.scaled)
    raw = figures(lambda start, end: end - start)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {name: (value, "s") for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")
    speeds = [speed for _, _, speed in meter.samples]
    timeline = {"samples": meter.samples,
                "probes": [[c["start"], c["result"]["ready"]] for c in probes],
                "commands": [[c["start"], c["end"], c["result"]["ready"], *c["result"]["call"]]
                             for c in cmds]}
    return metrics, {"measured": raw,
                     "speed": {"samples": len(speeds), "min": min(speeds),
                               "median": statistics.median(speeds), "max": max(speeds)},
                     "timeline": timeline}


def per_layer(span_lists, check_s, busy_base, import_s, overhead) -> dict:
    stats = spans.aggregate(span_lists)
    empty = {"calls": 0, "items": 0, "busy": 0.0, "self": 0.0, "keys": set(), "fills": 0}
    m = {}

    def put(name, field, unit, metric=None):
        s = stats.get(name, empty)
        m[f"{name}.{metric or field}"] = (s[field], unit)

    svt = stats.get("tableaux.enumerate_svt", empty)
    for field in ("calls", "items"):
        put("tableaux.enumerate_svt", field, "count")
    put("tableaux.enumerate_svt", "self", "s", "self_s")
    m["tableaux.enumerate_svt.items_per_s"] = (
        svt["items"] / svt["self"] if svt["self"] else 0.0, "1/s")
    m["tableaux.enumerate_svt.distinct_ratio"] = (
        len(svt["keys"]) / svt["calls"] if svt["calls"] else 0.0, "ratio")
    put("tableaux.enumerate_sst", "items", "count")
    put("tableaux.enumerate_sst", "self", "s", "self_s")
    for name in ("polynomials.determinant", "polynomials.Poly.divide_by_difference",
                 "polynomials.Poly.substitute", "grothendieck.grothendieck_tableau_sum",
                 "grothendieck.principal_specialization_q", "grothendieck.count_svt_formula",
                 "hypergeom.holman_series"):
        put(name, "calls", "count")
        put(name, "self", "s", "self_s")
    put("grothendieck.grothendieck_tableau_sum", "fills", "count")
    for name in ("grothendieck.grothendieck_bialternant", "grothendieck.refined_bialternant",
                 "hypergeom.gauss_2f1_terminating", "partitions.count_sst_product",
                 "partitions.count_sst_hook"):
        put(name, "self", "s", "self_s")
    from grothtab.identities import check_ids
    for check_id in check_ids():
        m[f"identities.check.{check_id}.s"] = (check_s[check_id], "s")
    m["identities.critical_check_s"] = (max(check_s.values()), "s")
    m["identities.pool_busy_frac"] = (sum(check_s.values()) / busy_base, "ratio")
    m["cli.import_s"] = (import_s, "s")
    m["trace_overhead_frac"] = (overhead, "ratio")
    return m


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------

def git_revision():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if rev.returncode != 0:
            return None, None
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30)
        return rev.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def provenance(workload, seed, seconds, trace, out) -> dict:
    rev, dirty = git_revision()
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_revision": rev, "git_dirty": dirty, "grids": out["grids"],
            "workers": out["workers"], "groth_threads_in_env": "GROTH_THREADS" in os.environ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "grothtab" / "__init__.py").is_file():
        print(f"error: no grothtab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload in VERIFY:
        out = run_verify(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        out = run_cli(args.seed, args.seconds, bool(args.trace))
    info = provenance(args.workload, args.seed, args.seconds, args.trace, out)
    info["error_rate"] = out["failed"] / out["attempted"]
    info["commands"] = out["commands"]
    if "meter" in out:
        info["measured"] = out["meter"]["measured"]
        info["speed"] = out["meter"]["speed"]
    if "sub_p50_s" in out:
        info["cli.query.p50_s"] = out["sub_p50_s"]
    result = {"correct": out["failed"] == 0,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in out.get("metrics", {}).items()}}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"provenance": info, "result": result,
                                        "spans": out.get("spans", []),
                                        "meter": out.get("meter", {}).get("timeline")}))
    print("provenance " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
