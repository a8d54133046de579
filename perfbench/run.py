#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-hot|engine-cold --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the release `dpioa-serve` binary and
the `perfbench` package (into $CARGO_TARGET_DIR, default `.bench_build`),
then runs one workload. The last line of standard output is the JSON
result; build output and progress go to standard error. Scratch files go
to `.bench_tmp/` and are removed at the end; traced runs leave their
spans in `.bench_out/`.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    flags = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(flags) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "server").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml or crates/server)")
    if shutil.which("cargo") is None:
        fail("cargo is not on PATH")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "dpioa-server", "--bin", "dpioa-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    work = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    out = ROOT / ".bench_out"
    cmd = [
        str(target / "release" / "perfbench"),
        *argv,
        "--serve-bin", str(target / "release" / "dpioa-serve"),
        "--work-dir", str(work),
        "--out-dir", str(out),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
