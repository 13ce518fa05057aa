#!/usr/bin/env python3
"""Build the GRANII benchmark from source and run one workload.

    python3 perfbench/run.py --workload offline-large|serve-hot|serve-cold \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (release, simd) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the binary, relays its
stdout (a `provenance` line, then the result line, last), and leaves a
record of the run under `perfbench/out/` for `compare.py`.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def digest(paths):
    """sha256 over the relative path and bytes of every source file."""
    h = hashlib.sha256()
    for base in paths:
        p = ROOT / base
        files = [p] if p.is_file() else sorted(
            q for q in p.rglob("*")
            if q.is_file() and q.suffix in (".rs", ".toml", ".lock", ".py")
            and "out" not in q.relative_to(ROOT).parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:12]


def source_id():
    """git sha (when the checkout is a repository), a hash of the program
    sources, and a hash of the benchmark's own sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none"
    program = digest(["Cargo.toml", "Cargo.lock", "crates", "vendor"])
    return f"git.{sha} src.{program} bench.{digest(['perfbench'])}"


def main():
    for needed in ("crates/core/Cargo.toml", "vendor", "perfbench/Cargo.toml"):
        if not (ROOT / needed).exists():
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = target / "release" / "granii-perfbench"
    cmd = [str(exe), *sys.argv[1:], "--source", source_id(), "--out", str(HERE / "out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
