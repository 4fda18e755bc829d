"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with its
unit, in both modes; that a failed output check is counted and not hidden;
and that without the library's sources the benchmark fails without printing
a result. Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# led-monitor is runnable but outside BENCHMARK.json; test it too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["led-monitor"]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def result(workload, trace, *extra):
    code, lines = run(workload, trace, *extra)
    assert code == 0, "%s trace %d: exit code %d" % (workload, trace, code)
    r = json.loads(lines[-1])
    assert sorted(r) == ["attempted", "correct", "failed", "metrics"], "keys %s" % sorted(r)
    assert isinstance(r["attempted"], int) and r["attempted"] >= 1
    assert isinstance(r["failed"], int) and 0 <= r["failed"] <= r["attempted"]
    return r


def check_metrics(workload, trace, r):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    assert sorted(r["metrics"]) == sorted(names), \
        "%s trace %d: metrics differ: missing %s, extra %s" % (
            workload, trace, sorted(set(names) - set(r["metrics"])), sorted(set(r["metrics"]) - set(names)))
    for m in wanted:
        got = r["metrics"][m["name"]]
        assert got["unit"] == m["unit"], "%s: unit %s, expected %s" % (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            "%s: value %r" % (m["name"], got["value"])


def main():
    for w in WORKLOADS:
        for trace in (0, 1):
            r = result(w, trace)
            check_metrics(w, trace, r)
            assert r["correct"] and r["failed"] == 0, "%s trace %d: %d of %d ops failed" % (
                w, trace, r["failed"], r["attempted"])
            print("ok   %-15s trace %d: %d metrics, %d ops, none failed" % (w, trace, len(r["metrics"]), r["attempted"]))

    w = WORKLOADS[0]
    r = result(w, 0, "--fault", "score")
    check_metrics(w, 0, r)
    assert not r["correct"] and r["failed"] >= 1, "injected fault not counted: %s" % r
    print("ok   %-15s --fault score: %d of %d ops counted as failed, correct=false" % (w, r["failed"], r["attempted"]))

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(w, 0, cwd=bare)
        assert code != 0, "without library sources the run exited 0"
        assert not any(l.startswith("{") for l in lines), "without library sources a result was printed"
        print("ok   without library sources: exit code %d, no result" % code)
    finally:
        shutil.rmtree(bare)
    print("self-test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("self-test FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
