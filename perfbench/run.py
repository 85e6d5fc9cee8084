#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one
benchmark pass.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); the arguments pass through to the tadfa-perfbench binary,
whose last line of output is the result JSON.
"""

import hashlib
import os
import subprocess
import sys


def source_digest():
    """A digest of the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "scenarios", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if "target" not in d.split(os.sep)
            for f in files
        )
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_NET_OFFLINE"] = "true"
    here = os.path.dirname(os.path.abspath(__file__))
    builds = [
        # The shipped service binaries the fleet workload spawns.
        ["cargo", "build", "--release", "--quiet", "-p", "tadfa-serve", "--bins"],
        # The benchmark itself, a package of its own.
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    def probe(cmd):
        try:
            out = subprocess.run(cmd, env=env, capture_output=True, text=True)
            return out.stdout.strip() if out.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    env["PERFBENCH_RUSTC"] = probe(["rustc", "--version"])
    commit = probe(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_COMMIT"] = commit if commit != "unknown" else source_digest()
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "tadfa-perfbench")
    bin_dir = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return subprocess.run([binary, "--bin-dir", bin_dir] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
