"""Build file of the benchmark.

Compiles the library's main sources (`src/main/scala`) together with the
benchmark's own sources (`perfbench/src`) with the Scala compiler that ships in
the Spark distribution's `jars/` directory, the same directory the library's
sbt build puts on its classpath. No sbt, no dependency resolution: the output
goes to `.bench_build/perfbench/classes` in the checkout and is reused while
the sources are unchanged.

    python3 perfbench/build.py        # builds if needed, prints the classpath
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "perfbench", "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jar directory: $SPARK_HOME/jars, else the one
    next to the `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    return jars


def sources():
    found = []
    for d in SOURCE_DIRS:
        for dirpath, _, files in os.walk(d):
            found += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def main_scala_files():
    return [f for f in sources() if f.startswith(SOURCE_DIRS[0] + os.sep)]


def build():
    """Compile if the sources changed; return the runtime classpath."""
    jars = spark_jars()
    srcs = sources()
    if not main_scala_files():
        raise BuildError("no library sources under src/main/scala")
    digest = hashlib.sha256()
    for f in srcs:
        digest.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            digest.update(fh.read())
    digest.update("\0".join(sorted(os.listdir(jars))).encode())
    stamp = digest.hexdigest()

    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "stamp")
    classpath = classes + os.pathsep + os.path.join(jars, "*")
    if os.path.isfile(stamp_file) and open(stamp_file).read() == stamp:
        return classpath

    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(classes)
    argfile = os.path.join(OUT, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(srcs) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", classes, "@" + argfile]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=600)
    if proc.returncode != 0:
        raise BuildError("scalac failed with exit code %d" % proc.returncode)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print("build failed: %s" % e, file=sys.stderr)
        sys.exit(2)
