"""Benchmark of the DISYNTH pipeline (fit -> score -> explain).

    python3 perfbench/run.py --workload <wide-fit|airlines-score|led-monitor>
        --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--fault score]

Run from the root of a checkout. Builds the library and the benchmark if
needed (see build.py), then runs one JVM at local[N], N = min(2, nproc - 1). The
last line of standard output is the result JSON; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer ones. Results and spans are
also written under .bench_build/. See README.md in this directory.
"""

import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# Spark's own launcher passes these opens; a plain JVM must repeat them on
# JDK 17 (the same list as build.sbt's jdkOpens).
JDK_OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]

# Few GC threads: with one per core, GC bursts preempt the executor threads.
JVM_THREADS = ["-XX:ParallelGCThreads=2", "-XX:ConcGCThreads=1"]

RUN_TIMEOUT_S = 175


def git_sha():
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(build.ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main_lines():
    n = 0
    for f in build.main_scala_files():
        with open(f, "rb") as fh:
            n += sum(1 for _ in fh)
    return n


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--fault", choices=["score"])
    a = ap.parse_args()

    try:
        classpath = build.build()
    except (build.BuildError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    out = os.path.join(build.ROOT, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp] + JVM_THREADS + [
           "-Dlog4j2.configurationFile=" + os.path.join(build.ROOT, "perfbench", "log4j2.properties")] + JDK_OPENS + [
        "-cp", classpath, "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--size", a.size, "--out", out,
        "--git-sha", git_sha(), "--src-lines", str(main_lines())]
    if a.fault:
        cmd += ["--fault", a.fault]
    # Spark's scratch space stays inside the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env)
    # A terminated run.py stops the JVM too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
