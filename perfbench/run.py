#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark and `cts` from the sources of the checkout it sits
in, then runs perfbench/main.exe from the checkout's root.  The serving
workloads and every traced run are pinned to one CPU first (the daemon
the benchmark spawns inherits the mask); `reproduce`'s untraced run is
left unpinned.  The last line of standard output is the result JSON.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = "_build/default/perfbench/main.exe"
CTS = "_build/default/bin/cts_cli.exe"
PINNED = {"decide_hot", "admit_churn"}
WORK = ".perfbench-work"


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    os.chdir(ROOT)
    for needed in ("dune-project", "bin/cts_cli.ml", "lib"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} is missing: not a cts checkout", file=sys.stderr)
            return 2
    switch = os.environ.get("OPAM_SWITCH_PREFIX")
    if shutil.which("dune") is None and switch:
        os.environ["PATH"] = os.path.join(switch, "bin") + os.pathsep + os.environ.get("PATH", "")
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./" + EXE, "./" + CTS],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if option(args, "--workload") in PINNED or option(args, "--trace") == "1":
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--cts", CTS, "--dir", WORK] + args)


if __name__ == "__main__":
    sys.exit(main())
