"""The wreathbench benchmark: time to exact verdict, end to end and per layer.

    python3 bench/run.py --workload {certify,rank,idempotents,all} \\
        --seed N --seconds S --trace {0,1}

Each workload is a seeded list of CLI command lines (see workloads.py).  A
pass runs the list in one fresh interpreter (worker.py), one job at a time,
and checks every exit code and report.  With ``--trace 0`` the first pass
runs every job; later passes fill the rest of ``--seconds``, each skipping
the jobs that would no longer fit, and the run reports the end-to-end
metrics from each job's mean time, scaled to the host speed at which
worker.reference_unit takes REFERENCE_UNIT_S.  With ``--trace 1`` it alternates whole
untraced and traced passes and reports the per-layer metrics of the traced
ones.  Human-readable lines come first; the last line of standard output is
one JSON object.  A result file with the environment goes to
bench/out/results/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PER_PASS = 5  # interpreter start-ups timed before each untraced pass
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs beyond it
# End-to-end times are reported at the host speed where one reference unit
# takes this long: each job's time is multiplied by REFERENCE_UNIT_S over the
# reference time measured around it.  The shared reference host drifts by up
# to 1.3x between runs a few minutes apart, and the program's times with it.
REFERENCE_UNIT_S = 0.010

END_TO_END = {"suite_s": "s", "job_s.p50": "s", "job_s.tail": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {**spans.METRICS, "trace.suite_s": "s", "trace.untraced_suite_s": "s", "trace.overhead_s": "s"}


class WorkerError(RuntimeError):
    pass


def _spawn(args, deadline):
    """Run worker.py to the end; returns (monotonic start, the monotonic time
    the worker printed when its imports were done)."""
    start = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the run's time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return start, float(out.split()[0])


def _pass(work, k, deadline, traced=False, stop_at=None):
    out = work / f"pass{k}.json"
    args = [str(work / "jobs.json"), str(out)]
    if traced:
        args += ["--trace", str(work / "spans.jsonl")]
    elif stop_at is not None:
        args += ["--stop-at", repr(stop_at)]
    _spawn(args, deadline)
    return json.loads(out.read_text())


def _tail(times):
    """(percentile, value, jobs beyond): the highest whole percentile, by
    nearest rank, that leaves at least TAIL_BEYOND jobs above it."""
    n = len(times)
    q = max(0, 100 * (n - TAIL_BEYOND) // n)
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(times)[rank - 1], n - rank


def run_workload(name, seed, seconds, trace, deadline):
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = workloads.build(name, seed, work)
        (work / "jobs.json").write_text(json.dumps(jobs))
        _spawn(["--setup-only"], deadline)  # fills the bytecode cache
        setup, plain, traced = [], [], []
        begin = time.monotonic()
        if trace:
            while True:
                t0 = time.monotonic()
                plain.append(_pass(work, len(plain) + len(traced), deadline))
                traced.append(_pass(work, len(plain) + len(traced), deadline, traced=True))
                shutil.copy(work / "spans.jsonl", OUT / f"spans-{name}-seed{seed}.jsonl")
                if time.monotonic() - begin + (time.monotonic() - t0) > seconds:
                    break
        else:
            stop_at = None
            while stop_at is None or time.monotonic() < stop_at:
                # start-ups spread over the run, so one slow moment of the
                # machine does not decide setup_s
                for _ in range(SETUP_PER_PASS):
                    start, ready = _spawn(["--setup-only"], deadline)
                    setup.append(ready - start)
                plain.append(_pass(work, len(plain), deadline, stop_at=stop_at))
                if stop_at is None:
                    # later passes run a job only if its first-pass time
                    # still fits before the end of the run
                    for job, r in zip(jobs, plain[0]["jobs"]):
                        job["est"] = r["s"]
                    (work / "jobs.json").write_text(json.dumps(jobs))
                    stop_at = begin + seconds
                if not plain[-1]["jobs"]:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, seed, jobs, plain, traced, setup)


def _job_means(passes, key="s"):
    """Each job's mean time over the passes that ran it, in job order.

    The host alternates between faster and slower spells of a few seconds;
    a mean over samples spread across the run averages them, where a median
    of a few samples would land in one spell or the other."""
    per_job = {}
    for p in passes:
        for r in p["jobs"]:
            per_job.setdefault(r["id"], []).append(r[key])
    return [statistics.fmean(per_job[k]) for k in sorted(per_job)]


def summarize(name, seed, jobs, plain, traced, setup):
    records = [r for p in plain + traced for r in p["jobs"]]
    counts = {}
    for r in (r for p in plain for r in p["jobs"]):
        counts[r["id"]] = counts.get(r["id"], 0) + 1
    failures = [r for r in records if r["fail"]]
    # each job's time at the reference speed: its time, times REFERENCE_UNIT_S
    # over the reference time around it
    for r in records:
        r["at_ref_s"] = r["s"] * REFERENCE_UNIT_S / r["ref_s"]
    # suite_s is the expected time of one whole pass: each job's mean, summed
    times = _job_means(plain)
    scaled = _job_means(plain, "at_ref_s")
    q, tail, beyond = _tail(scaled)
    result = {
        "workload": name,
        "seed": seed,
        "jobs": len(jobs),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "runs_per_job": {"min": min(counts.values()), "max": max(counts.values())},
        "attempted": len(records),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(records),
        "tail": {"percentile": q, "jobs_beyond": beyond, "jobs": len(times)},
        "failures": [
            {"argv": jobs[r["id"]]["argv"], "code": r["code"], "reason": r["fail"]} for r in failures[:20]
        ],
        "job_s": [{"argv": j["argv"], "s": t, "at_ref_s": u} for j, t, u in zip(jobs, times, scaled)],
    }
    if traced:
        # counts repeat exactly from pass to pass; median_low keeps them whole
        layers = {k: statistics.median_low(p["layers"][k] for p in traced) for k in spans.METRICS}
        result["checks"] = {k: max(p["layers"][k] for p in traced) for k in spans.CHECKS}
        # both at the reference speed, so the overhead is not the host's drift
        layers["trace.suite_s"] = sum(_job_means(traced, "at_ref_s"))
        layers["trace.untraced_suite_s"] = sum(scaled)
        layers["trace.overhead_s"] = layers["trace.suite_s"] - layers["trace.untraced_suite_s"]
        result["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    else:
        reference = [t for p in plain for t in p["reference_s"]]
        # set-up runs between passes; it takes the run's time-weighted scale
        scale = sum(scaled) / sum(times)
        values = {
            "suite_s": sum(scaled),
            "job_s.p50": statistics.median(scaled),
            "job_s.tail": tail,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain if p["complete"]),
            "setup_s": statistics.median(setup) * scale,
        }
        result["speed"] = {
            "reference_unit_s": statistics.fmean(reference),
            "samples": len(reference),
            "scale": scale,
            "unscaled": {
                "suite_s": sum(times),
                "job_s.p50": statistics.median(times),
                "job_s.tail": _tail(times)[1],
                "setup_s": statistics.median(setup),
            },
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return result


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "src_sha256": _source_hash(),
    }


def _git_revision():
    """HEAD's commit, or None outside a git checkout; git is kept from
    looking above the checkout for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def _source_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report(result, env):
    """Human-readable lines for one workload."""
    m = result["metrics"]
    lines = [
        f"workload {result['workload']}: seed {result['seed']}, {result['jobs']} jobs, "
        f"passes {result['passes']['untraced']} untraced + {result['passes']['traced']} traced, "
        f"python {env['python']}, nproc {env['nproc']}, rev {env['git_revision'] or 'n/a'}",
        f"  failed_ratio {result['failed_ratio']:.4f} ({result['failed']} of {result['attempted']} jobs)",
    ]
    if "checks" in result:
        lines.append("  " + ", ".join(f"{k} {v}" for k, v in result["checks"].items()))
    if not result["passes"]["traced"]:
        runs = result["runs_per_job"]
        lines.append(f"  each job ran {runs['min']} to {runs['max']} times")
    tail = result["tail"]
    speed = result.get("speed")
    if speed:
        lines.append(f"  reference unit {1000 * speed['reference_unit_s']:.3f} ms (mean of {speed['samples']}): "
                     f"times below are scaled to a {1000 * REFERENCE_UNIT_S:g} ms unit, by {speed['scale']:.4f} overall")
    for key, v in m.items():
        note = ""
        if speed and key in speed["unscaled"]:
            note = f"  (unscaled {speed['unscaled'][key]:.6g} s)"
        if key == "job_s.tail":
            note += f"  (p{tail['percentile']}, {tail['jobs_beyond']} of {tail['jobs']} jobs beyond)"
        value = f"{v['value']:>14d}" if v["unit"] == "count" else f"{v['value']:>14.6g}"
        lines.append(f"  {key:40s} {value} {v['unit']}{note}")
    if "trace.suite_s" in m:
        lines.append("  layer            self_s    share of the traced job time")
        for layer in spans.LAYERS:
            v = m[f"{layer}.self_s"]["value"]
            lines.append(f"  {layer:15s} {v:9.4f} s {m[f'{layer}.share_pct']['value']:6.2f} %")
        outside = 100 - sum(m[f"{layer}.share_pct"]["value"] for layer in spans.LAYERS)
        lines.append(f"  {'(outside spans)':15s} {'':11s} {outside:6.2f} %")
    for f in result["failures"]:
        lines.append(f"  FAILED {' '.join(f['argv'])}: {f['reason']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wreathbench" / "cli.py").is_file():
        print(f"no wreathbench sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    env = environment()
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerError as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        print(report(result, env), flush=True)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"environment": env, **result}, indent=1) + "\n")
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
