"""Benchmark harness for ppx: whole-process timings and a traced layer run.

    python3 perfbench/run.py --workload qseries [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all --out result.json
    python3 perfbench/run.py --compare old.json new.json
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --freeze

Run from anywhere; the program is the ``src/ppx`` tree next to this
directory.  Every command of a workload is a fresh ``python -m ppx ...``
child, run one at a time (a closed loop with one client), with
``PPX_MAX_N=64`` in its environment so the scaled sizes are accepted.  The
seed only permutes the order of the commands within each pass.

A run compiles bytecode with one discarded warm-up pass, then repeats passes
until ``--seconds`` have elapsed (at least ``MIN_PASSES``).  Per pass it
sums wall time and user+sys CPU over the children (``os.wait4`` rusage),
takes the largest max-RSS, and samples the interpreter start plus
``import ppx.cli`` (``setup_s``) a few times.  Each metric is the median
over passes (over samples for ``setup_s``).

The times are calibrated.  The machine is shared with other tenants and its
speed drifts by tens of percent within minutes, which no run length
averages out.  So about once per second of command time the harness also
runs a calibration child: a fixed pure-Python loop that does not import ppx.  ``wall_s`` and
``setup_s`` are the measured times scaled by ``CALIBRATION_REF_S / mean
calibration wall time`` of the run, and ``cpu_s`` by the same ratio of CPU
times; that is, seconds on a machine where the calibration child takes
``CALIBRATION_REF_S``.  The
measured times are printed beside them as ``*_raw``.

Every command's stdout is checked against its sha256 and exit code frozen in
``digests.json``; a ``verify`` report must also read ``status: pass``.  A
mismatch counts as a failed operation and the run goes on.

With ``--trace 1`` each pass is run twice: untraced, then through
``trace_child.py``, which wraps the layer entry points.  The per-layer
metrics are summed over the commands of a pass; counts come from the first
traced pass and must repeat exactly in every other one, times are medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SCHEMA = "ppx-perfbench/1"
PPX_MAX_N = "64"
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
SETUP_SAMPLES_PER_PASS = 3
CHILD_TIMEOUT_S = 60.0
CALIBRATION_EVERY_S = 1.0
CALIBRATION_REF_S = 0.15
# Schoolbook products of two integer lists, the inner loop of IntPoly.__mul__;
# run with -I so that nothing of the program under test is imported.
CALIBRATION = """
a = [(i * 2654435761) % (1 << 61) for i in range(1, 49)]
b = [(i * 40503) % (1 << 31) for i in range(1, 49)]
for _ in range(200):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
"""

WORKLOADS = {
    # The RatFunc/gcd path at large degree.
    "qseries": [
        "verify roundtrip --max-n 18",
        "verify eq21 --max-n 16",
        "seq cq 36",
        "seq rq 36",
        "verify thm45 --max-n 40",
    ],
    # SquareMatrix products over Z, with no IntPoly at all.
    "intmatrix": [
        "pascal 80 --action factor",
        "verify pascal --max-n 24",
        "verify pascal-m --max-n 24",
        "pascal 48 --variant m --m 2 --action factor",
        "seq c 64",
        "seq r 64",
        "verify closed-forms --max-n 200",
    ],
    # Matrices over Z[q] and Z[q]/Phi_m: IntPoly mul, divexact, reduce.
    "qmatrix": [
        "verify qpascal --max-n 16",
        "verify eq26 --m 8",
        "verify eq28 --m 10",
        "pascal 20 --variant q --action factor",
    ],
    # Every default size: what users run most.
    "defaults": [
        "verify all",
        "verify all --format json",
        *(f"seq {name} 64" for name in ("e", "c", "a", "u", "r")),
        *(f"seq {name} 20" for name in ("eq", "Eq", "uq", "rq", "cq")),
        "pascal 12 --action factor",
        "pascal 12 --variant q --action factor",
    ],
}

# (name, unit) of the metrics of an untraced run; lower is better for each.
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]

# Per-layer metrics of a traced run: (name, unit, layer, field).
PER_LAYER = [
    ("rings.poly_gcd.calls", "count", "rings.poly_gcd", "calls"),
    ("rings.poly_gcd.self_s", "s", "rings.poly_gcd", "self_s"),
    ("rings.poly_gcd.unit_ratio", "ratio", "rings.poly_gcd", "unit_ratio"),
    ("rings.ratfunc.calls", "count", "rings.ratfunc", "calls"),
    ("rings.ratfunc.self_s", "s", "rings.ratfunc", "self_s"),
    ("rings.intpoly_mul.calls", "count", "rings.intpoly_mul", "calls"),
    ("rings.intpoly_mul.self_s", "s", "rings.intpoly_mul", "self_s"),
    ("rings.intpoly_mul.coef_ops", "computed_ops", "rings.intpoly_mul", "ops"),
    ("rings.intpoly_divexact.calls", "count", "rings.intpoly_divexact", "calls"),
    ("rings.intpoly_divexact.self_s", "s", "rings.intpoly_divexact", "self_s"),
    ("qsequences.qbinom.calls", "count", "qsequences.qbinom", "calls"),
    ("qsequences.qbinom.incl_s", "s", "qsequences.qbinom", "incl_s"),
    ("rings.quotient_reduce.calls", "count", "rings.quotient_reduce", "calls"),
    ("rings.quotient_reduce.self_s", "s", "rings.quotient_reduce", "self_s"),
    ("series.mul.calls", "count", "series.mul", "calls"),
    ("series.mul.incl_s", "s", "series.mul", "incl_s"),
    ("series.log.incl_s", "s", "series.log", "incl_s"),
    ("products.expand.incl_s", "s", "products.expand", "incl_s"),
    ("products.contract.incl_s", "s", "products.contract", "incl_s"),
    ("pascal.matmul.calls", "count", "pascal.matmul", "calls"),
    ("pascal.matmul.self_s", "s", "pascal.matmul", "self_s"),
    ("pascal.matmul.entry_ops", "computed_ops", "pascal.matmul", "ops"),
    ("pascal.factor.incl_s", "s", "pascal.factor", "incl_s"),
    ("sequences.cache_hit_ratio", "ratio", "ppx.sequences", "hit_ratio"),
    ("qsequences.cache_hit_ratio", "ratio", "ppx.qsequences", "hit_ratio"),
    ("report.checks", "count", "report.render", "ops"),
    ("report.render.self_s", "s", "report.render", "self_s"),
    ("cli.main.incl_s", "s", "cli.main", "incl_s"),
    ("trace.overhead_ratio", "ratio", None, None),
]
# The fields trace_child.py writes per layer, and which of them are counts.
LAYER_FIELDS = ("calls", "incl_s", "self_s", "ops", "units")
COUNT_FIELDS = ("calls", "ops", "units")


# ---------------------------------------------------------------------------
# children


def _child_env() -> dict:
    """The caller's environment without its PYTHON* settings (such as
    PYTHONDONTWRITEBYTECODE, which would keep the warm-up pass from caching
    bytecode), plus the source path and the size cap."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PPX_MAX_N"] = PPX_MAX_N
    return env


def run_child(argv: list, trace_fd: bool = False) -> dict:
    """Run one child to completion; return its output, exit code, wall time,
    CPU time and max RSS, and what it wrote to its trace descriptor.

    ``argv`` may name ``{fd}`` once; with ``trace_fd`` it is replaced by the
    write end of a pipe that the child inherits."""
    read_fd = write_fd = None
    if trace_fd:
        read_fd, write_fd = os.pipe()
        argv = [str(write_fd) if a == "{fd}" else a for a in argv]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=(write_fd,) if trace_fd else ())
    if write_fd is not None:
        os.close(write_fd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    if read_fd is not None:
        chunks[read_fd] = []
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    timed_out = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    trace = None
    if read_fd is not None:
        os.close(read_fd)
        raw = b"".join(chunks[read_fd])
        trace = json.loads(raw) if raw and not timed_out else None
    return {
        "stdout": b"".join(chunks[out_fd]),
        "stderr": b"".join(chunks[err_fd]),
        "code": proc.returncode,
        "timed_out": timed_out,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "trace": trace,
    }


def calibration_sample() -> tuple:
    """Wall and CPU time of the calibration child (see the module docstring)."""
    child = run_child([sys.executable, "-I", "-c", CALIBRATION])
    if child["code"] != 0:
        raise RuntimeError(f"calibration child failed: {child['stderr'].decode()}")
    return child["wall_s"], child["cpu_s"]


def setup_sample() -> tuple:
    """Wall time of a fresh interpreter importing ``ppx.cli``."""
    child = run_child([sys.executable, "-c", "import ppx.cli"])
    return child["wall_s"], child["code"] == 0


def ppx_argv(command: str, traced: bool, command_id: int) -> list:
    if traced:
        return [sys.executable, str(HERE / "trace_child.py"), "{fd}", str(command_id),
                *command.split()]
    return [sys.executable, "-m", "ppx", *command.split()]


# ---------------------------------------------------------------------------
# output gate


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _verify_passed(command: str, stdout: bytes) -> bool:
    if "--format json" in command:
        try:
            return json.loads(stdout).get("status") == "pass"
        except ValueError:
            return False
    statuses = [line for line in stdout.splitlines() if line.startswith(b"status: ")]
    return bool(statuses) and all(line == b"status: pass" for line in statuses)


def gate(command: str, child: dict, digests: dict):
    """The reason ``child`` counts as a failed operation, or None."""
    frozen = digests.get(command)
    if child["timed_out"]:
        return f"killed after {CHILD_TIMEOUT_S:.0f} s"
    if frozen is None:
        return "no frozen digest for this command"
    if child["code"] != frozen["exit"]:
        return f"exit {child['code']}, frozen exit {frozen['exit']}"
    if hashlib.sha256(child["stdout"]).hexdigest() != frozen["sha256"]:
        return "stdout differs from its frozen digest"
    if command.startswith("verify ") and not _verify_passed(command, child["stdout"]):
        return "verify report is not status: pass"
    return None


# ---------------------------------------------------------------------------
# passes


def run_pass(commands: list, digests: dict, traced: bool = False,
             calibrate: bool = False) -> dict:
    """Run every command once, in the given order, as its own child; with
    ``calibrate``, run a calibration child before the first command and then
    before each command that starts ``CALIBRATION_EVERY_S`` of command time
    after the last calibration."""
    result = {"order": commands, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mib": 0.0,
              "attempted": 0, "failures": [], "traces": {}, "calibration_s": []}
    since_calibration = CALIBRATION_EVERY_S
    for command_id, command in enumerate(commands):
        if calibrate and since_calibration >= CALIBRATION_EVERY_S:
            result["calibration_s"].append(calibration_sample())
            since_calibration = 0.0
        child = run_child(ppx_argv(command, traced, command_id), trace_fd=traced)
        result["wall_s"] += child["wall_s"]
        since_calibration += child["wall_s"]
        result["cpu_s"] += child["cpu_s"]
        result["peak_rss_mib"] = max(result["peak_rss_mib"], child["maxrss_mib"])
        result["attempted"] += 1
        reason = gate(command, child, digests)
        if reason is None and traced and child["trace"] is None:
            reason = "traced child wrote no trace"
        if reason is not None:
            stderr = child["stderr"].decode(errors="replace").strip().splitlines()
            result["failures"].append({"command": command, "reason": reason,
                                       "stderr": stderr[-1] if stderr else ""})
        if traced and child["trace"] is not None:
            result["traces"][command] = child["trace"]
    return result


def summarize(values: list, unit: str) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit,
            "values": values}


def _tally(passes: list) -> tuple:
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return attempted, failures


def measure(name: str, seed: int, seconds: float, digests: dict) -> dict:
    """Untraced run: the end-to-end metrics of one workload."""
    commands = WORKLOADS[name]
    rng = random.Random(seed)
    run_pass(commands, digests)  # warm-up: compiles bytecode, fills the page cache
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup += [setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(run_pass(rng.sample(commands, len(commands)), digests, calibrate=True))
    attempted, failures = _tally(passes)
    setup_failures = sum(not ok for _, ok in setup)
    if setup_failures:
        failures.append({"command": "import ppx.cli", "reason":
                         f"{setup_failures} of {len(setup)} set-up samples failed",
                         "stderr": ""})
    calibration_wall = [wall for p in passes for wall, _ in p["calibration_s"]]
    calibration_cpu = [cpu for p in passes for _, cpu in p["calibration_s"]]
    # Wall times are scaled by the calibration's wall time and CPU times by its
    # CPU time: when the host preempts the VM, wall time grows but CPU time not.
    wall_factor = CALIBRATION_REF_S / statistics.fmean(calibration_wall)
    cpu_factor = CALIBRATION_REF_S / statistics.fmean(calibration_cpu)
    setup_raw = [wall for wall, _ in setup]
    metrics = {
        "wall_s": summarize([p["wall_s"] * wall_factor for p in passes], "s"),
        "cpu_s": summarize([p["cpu_s"] * cpu_factor for p in passes], "s"),
        "peak_rss_mib": summarize([p["peak_rss_mib"] for p in passes], "MiB"),
        "setup_s": summarize([wall * wall_factor for wall in setup_raw], "s"),
        "ops_failed_ratio": {"median": len(failures) / attempted, "unit": "ratio"},
        "wall_s_raw": summarize([p["wall_s"] for p in passes], "s"),
        "cpu_s_raw": summarize([p["cpu_s"] for p in passes], "s"),
        "setup_s_raw": summarize(setup_raw, "s"),
        "calibration_wall_s": summarize(calibration_wall, "s"),
        "calibration_cpu_s": summarize(calibration_cpu, "s"),
    }
    return {"workload": name, "passes": len(passes), "attempted": attempted,
            "failed": len(failures), "failures": failures, "metrics": metrics}


def layer_totals(traced_pass: dict) -> dict:
    """Sum the per-command traces of one pass: layer name -> field -> value."""
    totals = {}
    for trace in traced_pass["traces"].values():
        for layer, values in trace["layers"].items():
            t = totals.setdefault(layer, dict.fromkeys(LAYER_FIELDS, 0))
            for field, value in zip(LAYER_FIELDS, values):
                t[field] += value
        for module, counts in trace["caches"].items():
            t = totals.setdefault(module, {"hits": 0, "misses": 0})
            t["hits"] += counts["hits"]
            t["misses"] += counts["misses"]
    for t in totals.values():
        if "units" in t:
            t["unit_ratio"] = t["units"] / t["calls"] if t["calls"] else 0.0
        else:
            lookups = t["hits"] + t["misses"]
            t["hit_ratio"] = t["hits"] / lookups if lookups else 0.0
    return totals


def _counts(trace: dict) -> dict:
    counts = {(layer, field): value for layer, values in trace["layers"].items()
              for field, value in zip(LAYER_FIELDS, values) if field in COUNT_FIELDS}
    counts.update({(module, field): v[field] for module, v in trace["caches"].items()
                   for field in ("hits", "misses")})
    return counts


def count_differences(first: dict, other: dict) -> list:
    """Per-command counts (calls, ops, units, cache hits and misses) that
    differ between two traced passes."""
    diffs = []
    for command, trace in first["traces"].items():
        if command not in other["traces"]:
            diffs.append(f"{command}: no trace in the other pass")
            continue
        mine, theirs = _counts(trace), _counts(other["traces"][command])
        for key in sorted(set(mine) | set(theirs)):
            if mine.get(key) != theirs.get(key):
                diffs.append(f"{command}: {key[0]}.{key[1]} {mine.get(key)} != {theirs.get(key)}")
    return diffs


def measure_traced(name: str, seed: int, seconds: float, digests: dict) -> dict:
    """Traced run: the per-layer metrics of one workload, the tracing
    overhead against untraced passes of the same order, and a check that
    every count repeats exactly."""
    commands = WORKLOADS[name]
    rng = random.Random(seed)
    run_pass(commands, digests)  # warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        order = rng.sample(commands, len(commands))
        plain.append(run_pass(order, digests))
        traced.append(run_pass(order, digests, traced=True))
    attempted, failures = _tally(plain + traced)
    diffs = [d for p in traced[1:] for d in count_differences(traced[0], p)]
    if diffs:
        failures.append({"command": "(traced passes)", "reason":
                         f"{len(diffs)} counts differ between traced passes", "stderr": ""})
    totals = [layer_totals(p) for p in traced]
    # Each traced pass is paired with the untraced pass just before it, in the
    # same order, so a drift in machine speed cancels out of the ratio.
    overhead = statistics.median(t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
    metrics = {}
    for metric, unit, layer, field in PER_LAYER:
        if layer is None:
            value = overhead
        elif field in COUNT_FIELDS or field.endswith("_ratio"):
            value = totals[0].get(layer, {}).get(field, 0)
        else:
            value = statistics.median(t.get(layer, {}).get(field, 0.0) for t in totals)
        metrics[metric] = {"median": value, "unit": unit}
    metrics["wall_s_untraced"] = summarize([p["wall_s"] for p in plain], "s")
    metrics["wall_s_traced"] = summarize([p["wall_s"] for p in traced], "s")
    spans = [span for t in traced[0]["traces"].values() for span in t["spans"]]
    return {"workload": name, "passes": len(traced), "attempted": attempted,
            "failed": len(failures), "failures": failures, "metrics": metrics,
            "count_differences": diffs, "span_commands": traced[0]["order"], "spans": spans}


# ---------------------------------------------------------------------------
# results


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(seed: int, seconds: float, trace: int) -> dict:
    source = (ROOT / "src" / "ppx" / "__init__.py").read_text()
    version = re.search(r'__version__ = "([^"]+)"', source)
    uname = os.uname()
    return {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}",
        "nproc": os.cpu_count(),
        "ppx_version": version.group(1) if version else "unknown",
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ppx_max_n": PPX_MAX_N,
        "date_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def print_header(h: dict) -> None:
    print(f"# ppx perfbench {h['schema']}: python {h['python']} ({h['implementation']}), "
          f"{h['platform']}, nproc {h['nproc']}, ppx {h['ppx_version']}, git {h['git_sha']}, "
          f"seed {h['seed']}, seconds {h['seconds']}, PPX_MAX_N={h['ppx_max_n']}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(result: dict, traced: bool) -> None:
    name = result["workload"]
    if traced:
        m = result["metrics"]
        print(f"{name} (traced): {result['passes']} traced passes, {result['attempted']} "
              f"commands attempted, {result['failed']} failed; tracing overhead "
              f"{m['trace.overhead_ratio']['median']:.3f}x (median per pass: "
              f"{m['wall_s_traced']['median']:.3f} s traced, "
              f"{m['wall_s_untraced']['median']:.3f} s untraced); counts "
              f"{'identical' if not result['count_differences'] else 'DIFFER'}")
        for diff in result["count_differences"]:
            print(f"  count difference: {diff}")
    else:
        print(f"{name}: {result['passes']} passes, {result['attempted']} commands attempted, "
              f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure['command']}: {failure['reason']}"
              + (f" ({failure['stderr']})" if failure["stderr"] else ""))
    for metric, s in result["metrics"].items():
        line = f"  {metric:<32} {_fmt(s['median']):>12} {s['unit']}"
        if "q1" in s:
            line += f"  [q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n={s['n']}]"
        if s["unit"] == "computed_ops":
            line += "  (computed from operand sizes)"
        print(line)


def result_line(results: list, traced: bool, prefix: bool) -> str:
    """The last line: one JSON object with correct, attempted, failed and
    the metrics (end-to-end, or per-layer when traced)."""
    names = [m for m, *_ in PER_LAYER] if traced else [m for m, _ in END_TO_END]
    metrics = {}
    for result in results:
        for metric in names:
            s = result["metrics"][metric]
            key = f"{result['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# compare


def verdict(old: dict, new: dict, bound: float) -> str:
    """Lower is better.  Unresolved when either side's quartile spread
    exceeds the bound, unless every new value beats every old one."""
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (old, new))
    if spread > bound:
        return "better" if max(new["values"]) < min(old["values"]) else "unresolved"
    if new["median"] > old["median"] * (1 + bound):
        return "worse"
    if old["median"] - new["median"] > old["q3"] - old["q1"]:
        return "better"
    return "within bound"


def compare(old_path: str, new_path: str) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    for label, doc in (("old", old), ("new", new)):
        print(f"{label}: ", end="")
        print_header(doc["header"])
    print(f"{'workload':<10} {'metric':<16} {'old median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'new/old':>8}  verdict")
    for workload, old_result in old["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            print(f"{workload:<10} (not in {new_path})")
            continue
        for metric, _unit in END_TO_END:
            if metric not in old_result["metrics"] or metric not in new_result["metrics"]:
                continue
            o, n = old_result["metrics"][metric], new_result["metrics"][metric]
            cells = [f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}]" for s in (o, n)]
            print(f"{workload:<10} {metric:<16} {cells[0]:<30} {cells[1]:<30} "
                  f"{n['median'] / o['median']:>8.3f}  {verdict(o, n, bounds[metric])}")
        o_fail = old_result["failed"] / old_result["attempted"]
        n_fail = new_result["failed"] / new_result["attempted"]
        print(f"{workload:<10} {'ops_failed_ratio':<16} {_fmt(o_fail):<30} {_fmt(n_fail):<30} "
              f"{'':>8}  {'worse' if n_fail > o_fail else 'better' if n_fail < o_fail else 'same'}")
    return 0


# ---------------------------------------------------------------------------
# self-test and freezing


def self_test(digests: dict) -> int:
    """Show that the output gate can fail: one corrupted digest in a pass is
    one failed operation, and the pass still runs every command.  Also check
    that the metric names and units here match ``BENCHMARK.json``."""
    commands = ["seq c 64", "seq r 64"]
    corrupted = {**digests, commands[1]: {**digests[commands[1]], "sha256": "0" * 64}}
    intact = run_pass(commands, digests)
    broken = run_pass(commands, corrupted)
    exited = {"timed_out": False, "code": 2, "stdout": b"", "stderr": b""}
    checks = [
        ("intact digests: 2 attempted, 0 failed",
         intact["attempted"] == 2 and not intact["failures"]),
        ("one corrupted digest: 2 attempted, 1 failed",
         broken["attempted"] == 2
         and [f["command"] for f in broken["failures"]] == [commands[1]]),
        ("exit code 2 is a failure", gate(commands[0], exited, digests) is not None),
        ("text report with status: fail is a failure",
         not _verify_passed("verify x", b"report: x\n  FAIL a | expected 1 | actual 2\n"
                                        b"status: fail\n")),
        ("json report with status fail is a failure",
         not _verify_passed("verify x --format json", b'{"status": "fail"}')),
    ]
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for section, ours in (("end_to_end", END_TO_END),
                          ("per_layer", [(m, u) for m, u, *_ in PER_LAYER])):
        theirs = [(m["name"], m["unit"]) for m in declared[section]]
        checks.append((f"BENCHMARK.json {section} matches run.py", theirs == ours))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


def freeze() -> int:
    """Record the stdout sha256 and exit code of every workload command.
    Only for an output change that is intended and reviewed."""
    digests = {}
    for command in sorted({c for commands in WORKLOADS.values() for c in commands}):
        child = run_child(ppx_argv(command, False, 0))
        digests[command] = {"exit": child["code"],
                            "sha256": hashlib.sha256(child["stdout"]).hexdigest()}
        print(f"{child['code']} {digests[command]['sha256'][:16]} {command}")
        if child["code"] != 0 or (command.startswith("verify ")
                                  and not _verify_passed(command, child["stdout"])):
            print(f"error: {command!r} does not pass; nothing written", file=sys.stderr)
            return 1
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result (header, passes) as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "ppx" / "__init__.py").is_file():
        print(f"error: no ppx sources at {ROOT / 'src' / 'ppx'}", file=sys.stderr)
        return 2
    if args.freeze:
        return freeze()
    digests = load_digests()
    if args.self_test:
        return self_test(digests)
    if args.workload is None:
        parser.error("--workload is required")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    head = header(args.seed, args.seconds, args.trace)
    print_header(head)
    results = []
    for name in names:
        run = measure_traced if traced else measure
        results.append(run(name, args.seed, args.seconds, digests))
        print_result(results[-1], traced)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"header": head, "workloads": {r["workload"]: r for r in results}}, fh,
                      indent=1)
            fh.write("\n")
    print(result_line(results, traced, prefix=len(names) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
