"""One benchmark invocation in a fresh process.

    python3 child.py SPEC.json

SPEC names the ``src`` directory, the CLI arguments, an output directory,
whether to trace, the CPU to run on (or none), and where to write the
result.  The child times ``import semiq.cli`` (set-up) and one
``semiq.cli.main(argv)`` call, and writes both with its CPU time, peak RSS
and, when tracing, its spans.
"""

import contextlib
import json
import os
import resource
import sys
import time

#: iterations of the calibration loop, about 0.25 s on a 2020s server core
CALIBRATION_ITERS = 3_000_000


def calibrate() -> float:
    """Mean time of a fixed pure-Python loop on each CPU this process may
    use: the machine's current speed where the work runs."""
    cpus = os.sched_getaffinity(0)
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    if spec["cpu"] is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import semiq.cli
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(semiq.cli.__file__).startswith(src + os.sep):
        print(f"semiq imported from {semiq.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    recorder = None
    if spec["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    argv = spec["argv"] + ["--output-dir", spec["out_dir"]]
    calib_before = calibrate()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        code = semiq.cli.main(argv)
    wall_s = time.perf_counter() - t1
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    calib_s = 0.5 * (calib_before + calibrate())

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calib_s": calib_s,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "t0": t1,
        "spans": recorder.spans if recorder else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
