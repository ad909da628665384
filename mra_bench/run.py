#!/usr/bin/env python3
"""Builds mra_bench from this checkout, then runs it with the given flags.

    python3 mra_bench/run.py --workload fig5-grid --seed 1 --seconds 10 --trace 0
    python3 mra_bench/run.py --smoke

The benchmark package (mra_bench/CMakeLists.txt) builds the library from the
repository's src/ into .bench_build/ at the repository root; a later run
reuses that tree and only rebuilds what changed. Build output goes to
standard error, so the last line of standard output is always mra_bench's
result line. A failed build exits 1 without printing a result.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "mra_bench"
BUILD = ROOT / ".bench_build"


def build() -> Path:
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "mra_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "mra_bench"


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"mra_bench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [str(binary)] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
