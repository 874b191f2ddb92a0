#!/usr/bin/env python3
"""Build the benchmark: compile the repository's main Scala sources together
with the benchmark's own sources into `.bench_build/perfbench/classes`.

Run from the root of a checkout:

    python3 perfbench/build.py

The Scala 2.13 compiler and every library come from the Spark distribution
(`$SPARK_HOME/jars`, else the distribution of `spark-submit` on the `PATH`),
so the build needs neither
sbt nor a network. A build is skipped when a stamp of the sources' contents
matches the last successful one.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

OUT = os.path.join(".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "classes.stamp")
REPO_SOURCES = os.path.join("src", "main", "scala")
REPO_RESOURCES = os.path.join("src", "main", "resources")
BENCH_SOURCES = os.path.join("perfbench", "src")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise SystemExit("perfbench: set SPARK_HOME or put spark-submit on the PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    return os.path.join(home, "jars")


def sources():
    found = []
    for root in (REPO_SOURCES, BENCH_SOURCES):
        found += glob.glob(os.path.join(root, "**", "*.scala"), recursive=True)
    return sorted(found)


# What Spark's launcher scripts add on Java 17.
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions",
              "-Djdk.reflect.useDirectMethodHandle=false",
              "-Dio.netty.tryReflectionSetAccessible=true"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")]


def java(heap, tmpdir):
    """Command prefix that runs a class of the built benchmark; the JVM's
    temporary files go to `tmpdir` (and none to the system's: no perf data)."""
    classpath = os.pathsep.join([CLASSES, REPO_RESOURCES, os.path.join(spark_jars(), "*")])
    return (["java", f"-Xmx{heap}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmpdir}"]
            + JAVA_OPENS + ["-cp", classpath])


def build():
    """Compile if the sources changed since the last build; raise on failure."""
    if not os.path.isdir(os.path.join(REPO_SOURCES, "repro")):
        raise SystemExit(f"perfbench: no {REPO_SOURCES}/repro here; run from the repository root")
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    stamp = digest.hexdigest()
    if os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return
    jars = spark_jars()
    compiler = [os.path.join(jars, f"scala-{n}-2.13.17.jar")
                for n in ("compiler", "library", "reflect")]
    missing = [j for j in compiler if not os.path.exists(j)]
    if missing:
        raise SystemExit(f"perfbench: Scala compiler jars not found: {missing}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", CLASSES,
           "-cp", os.path.join(jars, "*")] + srcs
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    with open(STAMP, "w") as f:
        f.write(stamp)


if __name__ == "__main__":
    build()
