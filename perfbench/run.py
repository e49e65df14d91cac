#!/usr/bin/env python3
"""Build the benchmark from the sources of the checkout it sits in, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments go to bench.exe unchanged; its last line of standard output
is the result. The build uses the checkout's own _build directory, no
shared dune cache, and the "perfbench" build profile: perfbench/dune
enables the executable under that profile only, so the repository's own
`dune build` and `dune runtest` never compile it. A failed build exits
with dune's status and prints no result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "--cache=disabled", "--profile", "perfbench", TARGET],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
