#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig6 --seed 1 --seconds 10 --trace 0

Builds the simulator libraries from ../src and the perfbench program
(CMake, Release) into .bench_build/perfbench, then runs the program with
the same arguments from the repository root. Build output goes to
stderr; the program's stdout passes through unchanged, and its last line
is the result object. The exit code is the program's (2 = bad
arguments), or non-zero when the sources are missing or do not build.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return ""


def run(cmd, **kwargs):
    """Run cmd to completion; SIGTERM/SIGINT stop it before we exit."""
    child = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no simulator sources in %s\n"
                         % os.path.join(ROOT, "src"))
        return 1
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, PERFBENCH_GIT_SHA=git_sha())
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--parallel", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        code = run(cmd, stdout=sys.stderr.fileno(), env=env)
        if code != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return code if code > 0 else 1
    return run([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
               cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
