"""Benchmark of the semiq CLI: end-to-end metrics, output checks, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The load is a closed loop from one client:
one CLI invocation at a time, each in a fresh child process that times
``import semiq.cli`` (set-up) and one ``semiq.cli.main(argv)`` call.  Children
run back to back for about ``--seconds`` (at least ``MIN_CHILDREN``); every
child's output files are checked against an independent reference (or, once
one run has passed, against that run's bytes) and then deleted.

``--trace 0`` prints the end-to-end metrics (medians over the children).
Times are in reference seconds: each child also times a fixed calibration
loop, and its measured seconds are scaled by ``CAL_REF_S`` over that loop's
time, which removes the drift of a shared machine's speed.
``--trace 1`` alternates untraced and traced children, prints the per-layer
table, writes the spans to ``bench/out/spans-<workload>-seed<N>.jsonl`` and
reports the per-layer metrics, plus ``<module>.import_s`` read from
``python -X importtime``.  The last line of standard output is the result
as one JSON object; the line before it is the environment.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from spans import MODULES
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")
CPUS = sorted(os.sched_getaffinity(0))

MIN_CHILDREN = 4
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150
#: calibration-loop time that defines a reference second (see child.py)
CAL_REF_S = 0.25


def _digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_child(workload, inp, trace: bool, run_dir: str, k: int,
              known: dict | None = None, cpu: int | None = None) -> dict:
    """One CLI invocation in a fresh process, with its output checked.

    ``known`` holds the file digests and deviation of an earlier run with
    the same inputs that passed the check.  Identical flags give
    byte-identical files, so matching digests pass without re-reading;
    differing files are checked again and count as a failure.
    """
    out_dir = os.path.join(run_dir, f"out{k}")
    spec_path = os.path.join(run_dir, f"spec{k}.json")
    result_path = os.path.join(run_dir, f"result{k}.json")
    with open(spec_path, "w") as fh:
        json.dump({"src": SRC, "argv": inp.argv, "out_dir": out_dir,
                   "trace": trace, "result": result_path, "cpu": cpu}, fh)
    rec = {"trace": trace, "cpu": cpu, "failures": [], "max_rel_err": 0.0}
    try:
        proc = subprocess.run([sys.executable, CHILD, spec_path], cwd=BENCH,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not os.path.exists(result_path):
            rec["failures"].append(f"child exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-500:]}")
            return rec
        with open(result_path) as fh:
            rec.update(json.load(fh))
        scale = CAL_REF_S / rec["calib_s"]
        rec["wall_ref_s"] = rec["wall_s"] * scale
        rec["setup_ref_s"] = rec["setup_s"] * scale
        if rec["exit_code"] != 0:
            rec["failures"].append(f"semiq exited {rec['exit_code']}: "
                                   f"{proc.stderr.strip()[-500:]}")
            return rec
        rec["digests"] = _digests(out_dir)
        if known is not None and rec["digests"] == known["digests"]:
            rec["max_rel_err"] = known["max_rel_err"]
            return rec
        if known is not None:
            rec["failures"].append("files differ from an earlier run with "
                                   "the same inputs")
        check = workload.check(out_dir, inp)
        rec["failures"] += check.failures
        rec["max_rel_err"] = check.max_rel_err
        return rec
    except subprocess.TimeoutExpired:
        rec["failures"].append(f"child exceeded {CHILD_TIMEOUT_S} s")
        return rec
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        for p in (spec_path, result_path):
            if os.path.exists(p):
                os.remove(p)


def run_children(workload, inp, seconds: float, traced_too: bool,
                 run_dir: str) -> list[dict]:
    """Children back to back for about ``seconds``; alternate if traced.

    A single-threaded workload's children are pinned to the usable CPUs in
    turn: the CPUs of a shared machine can differ in speed by a third, and
    an unbalanced draw of CPUs would move the median.  Another child (or
    untraced-traced pair) starts only if it is expected to end in time, but
    at least ``MIN_CHILDREN`` children run.
    """
    recs = []
    known = None
    modes = (False, True) if traced_too else (False,)
    cpus = CPUS if workload.pinned else [None]
    min_units = MIN_CHILDREN // len(modes)
    start = time.perf_counter()
    units = 0
    while True:
        elapsed = time.perf_counter() - start
        if units >= min_units and elapsed * (units + 1) / units > seconds:
            break
        cpu = cpus[units % len(cpus)]
        for trace in modes:
            rec = run_child(workload, inp, trace, run_dir, len(recs), known,
                            cpu)
            if known is None and not rec["failures"]:
                known = rec
            recs.append(rec)
        units += 1
    return recs


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> float:
    """Highest order statistic with at least 10 samples beyond it (the
    largest sample when there are fewer than 11)."""
    s = sorted(values)
    if not s:
        return 0.0
    return float(s[-11] if len(s) > 10 else s[-1])


def balanced(recs, key: str) -> float:
    """Mean over CPUs of the per-CPU median of ``key``."""
    groups = {}
    for r in recs:
        groups.setdefault(r["cpu"], []).append(r[key])
    return statistics.fmean(median(g) for g in groups.values()) if groups else 0.0


def end_to_end(recs, items: int) -> dict:
    """Times in reference seconds: measured seconds scaled by CAL_REF_S over
    the calibration loop's time in the same child."""
    timed = [r for r in recs if "wall_s" in r]
    wall = balanced(timed, "wall_ref_s")
    failed = sum(1 for r in recs if r["failures"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (balanced(timed, "setup_ref_s"), "s"),
        "items_per_s": (items / wall if wall > 0 else 0.0, "items/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in timed]), "MB"),
        "ok_frac": ((len(recs) - failed) / len(recs), "fraction"),
        "correct_digits": (correct_digits(recs), "digits"),
    }


def raw_times(recs, items: int) -> dict:
    """The measured seconds, before scaling to reference seconds."""
    timed = [r for r in recs if "wall_s" in r]
    wall = balanced(timed, "wall_s")
    return {"raw_wall_s": wall,
            "raw_items_per_s": items / wall if wall else 0.0,
            "raw_setup_s": balanced(timed, "setup_s"),
            "calib_s": balanced(timed, "calib_s")}


def max_rel_err(recs) -> float:
    return max(r["max_rel_err"] for r in recs)


def correct_digits(recs) -> float:
    """-log10 of the largest relative deviation from the references.

    Roundoff-level deviations change by factors of 2-3 from seed to seed;
    their logarithm is steady.  Deviations below float64's unit roundoff
    count as 2**-53 (15.95 digits).
    """
    return -math.log10(max(max_rel_err(recs), 2.0**-53))


# --------------------------------------------------------------------------
# per-layer metrics from spans

#: modules whose cumulative import time is reported; cli's is the whole
#: ``import semiq.cli``, semiq's the package __init__ with what it imports
IMPORTED = ("semiq", "cli", "clock", "network", "minisuperspace", "wkb",
            "oracle", "tableio", "svgplot")

#: every per-layer metric, with its unit
PER_LAYER = {
    **{f"{m}.self_s": "s" for m in MODULES},
    "oracle.calls": "count",
    "oracle.cells": "count",
    "oracle.ns_per_cell": "ns",
    "oracle.point_s_p50": "s",
    "oracle.point_s_tail": "s",
    "wkb.calls.current_ratio": "count",
    "wkb.calls.wkb_wavefunction": "count",
    "wkb.calls.barrier_exponent": "count",
    "wkb.point_s_p50": "s",
    "wkb.point_s_tail": "s",
    "cli.rows": "count",
    "tableio.bytes": "bytes",
    "tableio.ns_per_cell": "ns",
    "network.s_per_draw": "s",
    "network.operator_dim": "count",
    "minisuperspace.evolve_matter_s": "s",
    "minisuperspace.wdw_residual_s": "s",
    "minisuperspace.clock_map_s": "s",
    "minisuperspace.us_per_matter_step": "us",
    **{f"{m}.import_s": "s" for m in IMPORTED},
    "process.raw_wall_s": "s",
    "process.raw_setup_s": "s",
    "process.calib_s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.dominant_share": "ratio",
    "trace.dominant_ok": "count",
}


def self_times(spans) -> dict[str, float]:
    child = {}
    for sid, _name, _layer, t0, t1, parent, _attrs in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out = {m: 0.0 for m in MODULES}
    for sid, _name, layer, t0, t1, _parent, _attrs in spans:
        out[layer] += (t1 - t0) - child.get(sid, 0.0)
    return out


def layer_metrics(rec) -> dict[str, float]:
    spans = rec["spans"]
    own = self_times(spans)
    m = {f"{layer}.self_s": s for layer, s in own.items()}

    def durs(name):
        return [t1 - t0 for _, n, _, t0, t1, _, _ in spans if n == name]

    def attr(name, key):
        return sum(a[key] for _, n, _, _, _, _, a in spans if n == name and a)

    tm = durs("oracle.transfer_matrix_transmission")
    cells = attr("oracle.transfer_matrix_transmission", "cells")
    m["oracle.calls"] = len(tm)
    m["oracle.cells"] = cells
    m["oracle.ns_per_cell"] = own["oracle"] / cells * 1e9 if cells else 0.0
    m["oracle.point_s_p50"], m["oracle.point_s_tail"] = median(tm), tail(tm)

    cr = durs("wkb.current_ratio")
    for fn in ("current_ratio", "wkb_wavefunction", "barrier_exponent"):
        m[f"wkb.calls.{fn}"] = len(durs(f"wkb.{fn}"))
    m["wkb.point_s_p50"], m["wkb.point_s_tail"] = median(cr), tail(cr)

    m["cli.rows"] = attr("cli.run", "rows")
    csv_cells = attr("tableio.write_csv", "cells")
    m["tableio.bytes"] = attr("tableio.write_csv", "bytes")
    m["tableio.ns_per_cell"] = (own["tableio"] / csv_cells * 1e9
                                if csv_cells else 0.0)

    ek = durs("network.ek_comparison")
    draws = attr("network.ek_comparison", "draws")
    m["network.s_per_draw"] = sum(ek) / draws if draws else 0.0
    m["network.operator_dim"] = max(
        [a["operator_dim"] for _, n, _, _, _, _, a in spans
         if n == "network.ek_comparison"], default=0)

    em = sum(durs("minisuperspace.evolve_matter"))
    steps = attr("minisuperspace.evolve_matter", "steps")
    m["minisuperspace.evolve_matter_s"] = em
    m["minisuperspace.wdw_residual_s"] = sum(durs("minisuperspace.wdw_residual"))
    m["minisuperspace.clock_map_s"] = sum(durs("minisuperspace.clock_map"))
    m["minisuperspace.us_per_matter_step"] = em / steps * 1e6 if steps else 0.0
    return m


def import_times() -> dict[str, float]:
    """Cumulative import time per semiq module from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import semiq.cli"], cwd=BENCH, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        got = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue                  # the header line
            name = fields[2].strip()
            short = "semiq" if name == "semiq" else name.removeprefix("semiq.")
            if short in IMPORTED and name.startswith("semiq"):
                got[f"{short}.import_s"] = int(fields[1]) * 1e-6
        runs.append(got)
    return {f"{m}.import_s": median([r.get(f"{m}.import_s", 0.0) for r in runs])
            for m in IMPORTED}


def per_layer(workload, recs) -> tuple[dict, list]:
    plain = [r for r in recs if not r["trace"] and "wall_s" in r]
    traced = [r for r in recs if r["trace"] and r.get("spans") is not None]
    per_child = [layer_metrics(r) for r in traced]
    metrics = {k: median([c[k] for c in per_child])
               for k in (per_child[0] if per_child else ())}
    metrics.update(import_times())
    wall = balanced(plain, "wall_s")
    cpu = balanced(plain, "cpu_s")
    metrics["process.raw_wall_s"] = wall
    metrics["process.raw_setup_s"] = balanced(plain, "setup_s")
    metrics["process.calib_s"] = balanced(plain, "calib_s")
    metrics["process.cpu_s"] = cpu
    metrics["process.cpu_per_wall"] = cpu / wall if wall else 0.0
    # each traced child runs right after an untraced one on the same CPU
    pairs = [(a, b) for a, b in zip(recs[0::2], recs[1::2])
             if "wall_s" in a and "wall_s" in b]
    if pairs:
        metrics["trace.overhead_frac"] = median(
            [b["wall_ref_s"] / a["wall_ref_s"] for a, b in pairs]) - 1.0

    total = sum(metrics.get(f"{m}.self_s", 0.0) for m in MODULES) or 1.0
    shares = {m: metrics.get(f"{m}.self_s", 0.0) / total for m in MODULES}
    chosen = sum(shares[m] for m in workload.dominant)
    others = max(v for m, v in shares.items() if m not in workload.dominant)
    metrics["trace.dominant_share"] = chosen
    metrics["trace.dominant_ok"] = int(chosen > others)
    return {k: metrics.get(k, 0.0) for k in PER_LAYER}, traced


def print_layer_table(workload, metrics):
    total = sum(metrics[f"{m}.self_s"] for m in MODULES) or 1.0
    print(f"layer self time, {workload.name} (median over traced runs):")
    for m in sorted(MODULES, key=lambda m: -metrics[f"{m}.self_s"]):
        s = metrics[f"{m}.self_s"]
        print(f"  {m:<15} {s:10.4f} s  {100 * s / total:6.2f} %")
    verdict = "holds" if metrics["trace.dominant_ok"] else "DOES NOT HOLD"
    print(f"  largest share on {'+'.join(workload.dominant)}: {verdict} "
          f"({100 * metrics['trace.dominant_share']:.1f} %)")


def write_spans(path, traced):
    with open(path, "w") as fh:
        for run_id, rec in enumerate(traced):
            t0 = rec["t0"]
            for sid, name, _layer, s, e, parent, attrs in rec["spans"]:
                fh.write(json.dumps({"run": run_id, "id": sid, "name": name,
                                     "start": s - t0, "end": e - t0,
                                     "parent": parent, "attrs": attrs}) + "\n")


# --------------------------------------------------------------------------
# environment

def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout, or None when ROOT is not a git work tree's top."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "semiq", "cli.py")):
        print(f"bench: no semiq sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inp = workload.inputs(args.seed)
    # byte-compile first, so that no child's set-up time includes it
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        recs = run_children(workload, inp, args.seconds, bool(args.trace),
                            run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in recs if r["failures"]]
    for r in failed:
        print(f"bench: {workload.name} run failed: {'; '.join(r['failures'])}",
              file=sys.stderr)
    if args.trace:
        metrics, traced = per_layer(workload, recs)
        print_layer_table(workload, metrics)
        path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl")
        write_spans(path, traced)
        print(f"spans: {os.path.relpath(path, ROOT)}")
        metrics = {k: (v, PER_LAYER[k]) for k, v in metrics.items()}
    else:
        metrics = end_to_end(recs, inp.items)
    print(json.dumps({"environment": environment(),
                      "children": len(recs), "work_unit": workload.unit,
                      "items": inp.items, "max_rel_err": max_rel_err(recs),
                      **raw_times(recs, inp.items)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
