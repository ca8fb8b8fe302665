"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py JOBS_JSON OUT_JSON [--trace SPANS_JSONL | --stop-at T]

The job list is run one job at a time, in this process, through
``wreathbench.cli.main(argv)``, so module-level caches persist from job to
job as in a library session.  With ``--stop-at T`` (a time.monotonic()
value) a job is skipped when its estimated time, the ``est`` field the job
list carries, would take it past T.  Each job's exit code and report are
checked outside its timed region.  Between jobs, before every job that may
be long and at least once per SPEED_EVERY_S of job time, a pass also times
``reference_unit``, a fixed piece of pure-Python work that shows
how fast the host runs at the moment; each job gets the mean of the two
reference times around it.  The pass result (per-job times and failures,
reference times, peak RSS, per-layer metrics when traced) is written to
OUT_JSON.  The monotonic time at which the imports finished is printed
first, for set-up timing.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import wreathbench  # noqa: E402
import wreathbench.cli  # noqa: E402

READY = time.monotonic()
SPEED_EVERY_S = 0.25
_REFERENCE_GENS = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4))


def reference_unit():
    """Seconds to close three generators of T_5 (3125 maps) under
    composition: tuples and a set, like the program's own closures, but no
    wreathbench code.  The collector is off meanwhile, so the heap the jobs
    left behind does not slow it."""
    import gc

    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen, frontier = set(_REFERENCE_GENS), list(_REFERENCE_GENS)
    while frontier:
        new = []
        for a in frontier:
            for g in _REFERENCE_GENS:
                c = tuple(g[i] for i in a)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    if len(seen) != 3125:
        raise RuntimeError(f"reference closure has {len(seen)} maps, not 3125")
    return elapsed


def run_pass(jobs, main, tracer=None, stop_at=None, speed=None):
    """Run the jobs; returns per-job records and the summed job time.
    Reference times are appended to ``speed`` when it is a list."""
    import contextlib
    import io
    import json

    from workloads import check

    records = []
    total = 0.0
    next_reference = 0.0
    for job in jobs:
        if stop_at is not None and time.monotonic() + job["est"] > stop_at:
            continue
        # a reference time right before every job that may be long (all of
        # them while no estimate exists) and at least every SPEED_EVERY_S
        if speed is not None and (total >= next_reference or job.get("est", SPEED_EVERY_S) >= SPEED_EVERY_S):
            speed.append(reference_unit())
            next_reference = total + SPEED_EVERY_S
        if tracer is not None:
            tracer.job = job["id"]
        buf = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                code = main(job["argv"])
            except SystemExit as exc:  # argparse refusing the command line
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - any escape is a failed job
                code, error = None, f"unexpected {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        total += elapsed
        if error is None:
            try:
                report = json.loads(buf.getvalue())
            except ValueError:
                report = None
            error = check(job["expect"], code, report)
        records.append({"id": job["id"], "s": elapsed, "code": code, "fail": error})
        if speed is not None:
            records[-1]["ref"] = len(speed) - 1
    if speed is not None and records:
        speed.append(reference_unit())
        # each job's reference time: the mean of the two that bracket it
        for r in records:
            r["ref_s"] = (speed[r["ref"]] + speed[r["ref"] + 1]) / 2
    return records, total


def main(argv):
    expected_dir = os.path.join(ROOT, "src", "wreathbench")
    if os.path.dirname(os.path.abspath(wreathbench.__file__)) != expected_dir:
        print(f"wreathbench was imported from {wreathbench.__file__}, not {expected_dir}", file=sys.stderr)
        return 3
    print(repr(READY), flush=True)
    if argv[1:] == ["--setup-only"]:
        return 0
    import json
    import resource

    jobs_path, out_path = argv[1], argv[2]
    spans_path = argv[4] if argv[3:4] == ["--trace"] else None
    stop_at = float(argv[4]) if argv[3:4] == ["--stop-at"] else None
    with open(jobs_path, encoding="utf-8") as f:
        jobs = json.load(f)
    tracer = None
    entry = wreathbench.cli.main
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        entry = tracer.instrument()
    speed = []
    records, total = run_pass(jobs, entry, tracer, stop_at, speed)
    out = {
        "jobs": records,
        "reference_s": speed,
        "complete": len(records) == len(jobs),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.summary(total)
        tracer.dump(spans_path)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
