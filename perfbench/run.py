#!/usr/bin/env python3
"""CERES pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload swde --seed 7 --seconds 10 --trace 0

Builds the program and the benchmark from source with sbt (offline), caching
the result in .bench_build/ keyed on a hash of the sources, then runs one
workload in one JVM.  The JVM prints notes (lines starting with '#') and, as
the last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exits non-zero, without a result, when
the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("longtail", "swde", "imdb-annotate")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "3g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    roots = [os.path.join(ROOT, d) for d in ("src/main", "jobs", "project")]
    roots += [os.path.join(BENCH, d) for d in ("src/main", "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "project"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".scala", ".sbt", ".properties", ".java"))]
    return files


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group and wait for it.  On timeout, or
    when this script is terminated, kill the whole group and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out, err


def classpath():
    """Build if the sources changed since the last build; return the classpath."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    want = stamp()
    if os.path.isfile(cp_file):
        with open(cp_file) as fh:
            have, cp = fh.read().split("\n", 1)
        if have == want:
            return cp.strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g", "-XX:-UsePerfData"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos):
            opts = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"] + opts
        env["SBT_OPTS"] = " ".join(opts)
    code, out, err = run_group(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "export perfbench/Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = [l for l in out.splitlines() if l and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (sbt exit {code})")
    os.makedirs(BUILD, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(want + "\n" + lines[-1] + "\n")
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or not os.path.isdir(os.path.join(ROOT, "src", "main")):
        fail("run from the root of a checkout of the program (no build.sbt or src/main here)")
    cp = classpath()

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    args = ["--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.seed is not None:
        args += ["--seed", str(a.seed)]
    java = shutil.which("java") or fail("java not found on PATH")
    code, out, _ = run_group(
        [java, f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.scratch={BUILD}",
         "-cp", cp, "repro.perfbench.Main"] + args,
        RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out[-4000:])
        fail(f"benchmark JVM failed (exit {code})")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
