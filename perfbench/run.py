#!/usr/bin/env python3
"""Build the perfbench load generator from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload get-pipelined --seed 1 --seconds 10 --trace 0

Workloads: get-pipelined, set-durable, mixed-open. The Go package in
perfbench/ is its own module that uses the repository's packages through a
replace directive, so it only builds inside a full checkout. Build outputs
(the binary and the Go build cache) go under the directory named by
CARGO_TARGET_DIR, or .bench_build, inside the checkout. The last line of
standard output is the JSON result; see main.go for the metrics.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 178


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: run from the root of a full memorydb checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "gotmp", "gomodcache", "config"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOTMPDIR=os.path.join(out_dir, "gotmp"),
        GOMODCACHE=os.path.join(out_dir, "gomodcache"),
        # The go command keeps its telemetry counters under the user
        # config directory; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out_dir, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out_dir, "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=bench, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    commit = "unknown (not a git checkout)"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass

    proc = subprocess.Popen([binary, *sys.argv[1:], "--git-commit", commit], cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
