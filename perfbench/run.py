#!/usr/bin/env python3
"""Build the DataLens release binary and the benchmark harness, then run
one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1 [--short]

Run from the repository root. Both builds go to ``$CARGO_TARGET_DIR``
(default ``.bench_build``). The harness prints human-readable lines and,
last, one JSON result line; see ``perfbench/README.md``.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
# Files whose content defines the program under test and the harness.
SOURCE_DIRS = ["crates", "shims", "src", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def git_revision():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_hash():
    """SHA-256 over the sources, so a result names the code it measured
    even where there is no git metadata."""
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(os.path.join(ROOT, p))]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [os.path.relpath(os.path.join(dirpath, n), ROOT) for n in sorted(filenames)]
    for p in sorted(paths):
        h.update(p.encode())
        with open(os.path.join(ROOT, p), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "datalens", "--bin", "datalens"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")) or not os.path.isfile(
        os.path.join(BENCH, "Cargo.toml")
    ):
        print("perfbench: run from the repository root (crates/ and perfbench/ must exist)", file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        *sys.argv[1:],
        "--datalens-bin",
        os.path.join(target_dir, "release", "datalens"),
        "--out",
        out_dir,
        "--git-rev",
        git_revision(),
        "--source-hash",
        source_hash(),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
