"""Self-test of the benchmark's checks and metric list.

    python3 bench/selftest.py

Runs a few cheap certify jobs through the same pass loop the benchmark
uses, first as built, then with one expected class count off by one, then
with one expected exit code wrong.  The first must give failed_ratio 0, the
other two failed_ratio > 0.  It also checks that BENCHMARK.json names exactly
the metrics run.py reports, with the same units.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run
import worker
import workloads


def failed_ratio(jobs):
    records, _ = worker.run_pass(jobs, worker.wreathbench.cli.main)
    failed = [r for r in records if r["fail"]]
    return len(failed) / len(records), [r["fail"] for r in failed]


def main():
    problems = []
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        jobs = workloads.build("certify", 0, Path(tmp))
        cheap = [j for j in jobs if j["argv"][-1] == "2"]
        certified = [j for j in cheap if "certified" in j["expect"]][:4]
        refused = [j for j in cheap if j["expect"]["exit"] == 2][:2]
        sample = certified + refused

        ratio, reasons = failed_ratio(sample)
        print(f"as built: failed_ratio {ratio:.3f}")
        if ratio != 0:
            problems.append(f"correct expectations failed: {reasons}")

        wrong_value = copy.deepcopy(sample)
        wrong_value[0]["expect"]["certified"] += 1
        ratio, reasons = failed_ratio(wrong_value)
        print(f"one expected value off by one: failed_ratio {ratio:.3f} {reasons}")
        if ratio == 0:
            problems.append("a wrong expected value went unnoticed")

        wrong_exit = copy.deepcopy(sample)
        wrong_exit[-1]["expect"]["exit"] = 0
        ratio, reasons = failed_ratio(wrong_exit)
        print(f"one expected exit code wrong: failed_ratio {ratio:.3f} {reasons}")
        if ratio == 0:
            problems.append("a wrong exit code went unnoticed")

    spec_path = run.ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for section, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            theirs = {m["name"]: m["unit"] for m in spec[section]}
            if theirs != ours:
                problems.append(f"BENCHMARK.json {section} differs from run.py: "
                                f"{sorted(set(theirs.items()) ^ set(ours.items()))}")
        if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("SELFTEST", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
