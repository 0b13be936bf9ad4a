#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload first-slice|warm-query|edit-slice \
        --seed N --seconds S --trace 0|1 [--record-dir DIR]

Run it from the repository root (it changes there itself). The first run
configures and builds perfbench/ and the library sources under src/ into
.bench_build/perfbench (RelWithDebInfo); later runs only rebuild what
changed. Build output goes to stderr; the benchmark's own output goes to
stdout, ending with one JSON line {correct, attempted, failed, metrics}.
Every run also writes a full record (environment, sample summaries,
deterministic counts) under .perfbench/runs/, or --record-dir; compare.py
reads those records.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def code_digest():
    """sha256 over the library and benchmark sources: the identity of
    the measured code when no commit id is available."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["first-slice", "warm-query", "edit-slice"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--record-dir", default=".perfbench/runs")
    a = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository")
    os.chdir(ROOT)
    exe = build()
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--code-digest", code_digest(), "--commit", commit(),
           "--record-dir", a.record_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
