#!/usr/bin/env python3
"""Per-suite test times and source size, for the record of each change.

Reads the JUnit XML reports sbt writes to target/test-reports/ (and, when
it exists, bench/target/test-reports/, so the bench suites print next to
tier-1's) and prints each suite's time, test count and failures, the slowest
tests, and the line counts of src/main and jobs/ (Scala files, as `wc -l`
counts them).

With --json FILE it also appends one entry to FILE (created if missing):
the git sha of HEAD (with "dirty": true when the working tree differs from
it, that is, the entry measures uncommitted changes on top of that commit),
nproc, the Spark master, each suite's time, test and failure counts, their
total, and the two line counts.

Usage: python3 tools/suite_times.py [--reports DIR] [--slowest N] [--json FILE]

A report lingers until target/ is cleaned, so a suite that was renamed or
not run shows its last time; the timestamp column tells them apart. Delete
target/test-reports/ before a run that --json records.
"""
import argparse
import glob
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def scala_lines(path):
    total = 0
    for f in glob.glob(os.path.join(ROOT, path, "**", "*.scala"), recursive=True):
        with open(f, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True).stdout.strip()


def append_entry(path, suites, lines):
    entry = {
        "sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "master": os.environ.get("SPARK_MASTER", "local[*]"),
        "suites": {name: {"time_s": round(t, 3), "tests": n, "failed": failed}
                   for t, name, n, failed, _ in sorted(suites, key=lambda s: s[1])},
        "total": {"time_s": round(sum(s[0] for s in suites), 3),
                  "tests": sum(s[2] for s in suites), "failed": sum(s[3] for s in suites)},
        "lines": lines,
    }
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    else:
        doc = {"description": "Tier-1 per-suite times (sbt's JUnit reports, seconds) and source line counts, "
                              "one entry per `python3 tools/suite_times.py --json` run, in run order.",
               "entries": []}
    doc["entries"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reports", default=os.path.join(ROOT, "target", "test-reports"))
    ap.add_argument("--slowest", type=int, default=5)
    ap.add_argument("--json", metavar="FILE", help="append this run as one entry to FILE")
    args = ap.parse_args()

    bench = os.path.join(ROOT, "bench", "target", "test-reports")
    dirs = [args.reports] + ([bench] if os.path.isdir(bench) else [])
    suites, cases = [], []
    for f in sorted(f for d in dirs for f in glob.glob(os.path.join(d, "TEST-*.xml"))):
        s = ET.parse(f).getroot()
        name = s.get("name")
        failed = int(s.get("failures", 0)) + int(s.get("errors", 0))
        suites.append((float(s.get("time", 0)), name, int(s.get("tests", 0)), failed, s.get("timestamp", "")))
        for c in s.iter("testcase"):
            cases.append((float(c.get("time", 0)), name.rsplit(".", 1)[-1], c.get("name")))
    if not suites:
        sys.exit(f"no TEST-*.xml under {args.reports}; run `sbt test` first")

    print(f"{'suite':<44}{'time s':>9}{'tests':>7}{'failed':>8}  timestamp")
    for t, name, n, failed, ts in sorted(suites, reverse=True):
        print(f"{name:<44}{t:>9.1f}{n:>7}{failed:>8}  {ts}")
    print(f"{'total':<44}{sum(s[0] for s in suites):>9.1f}{sum(s[2] for s in suites):>7}"
          f"{sum(s[3] for s in suites):>8}")

    print(f"\nslowest {args.slowest} tests:")
    for t, suite, name in sorted(cases, reverse=True)[:args.slowest]:
        print(f"{t:>8.1f} s  {suite}: {name}")

    lines = {"src/main": scala_lines("src/main"), "jobs": scala_lines("jobs")}
    print(f"\nlines: src/main {lines['src/main']}, jobs/ {lines['jobs']}")
    if args.json:
        append_entry(args.json, suites, lines)


if __name__ == "__main__":
    main()
