#!/usr/bin/env python3
"""Build sqlserved and the perfbench harness from source, then run one benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0

The harness prints its result as the last line of standard output; build
output goes to standard error. Everything the build and the run write
(Go build cache, binaries, span files, temporary files) stays under
.bench_build/ in the current directory.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    tmp = os.path.join(out, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    daemon = os.path.join(out, "sqlserved")
    harness = os.path.join(out, "perfbench")
    builds = [
        (root, ["go", "build", "-o", daemon, "./cmd/sqlserved"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", harness, "."]),
    ]
    for cwd, cmd in builds:
        if not os.path.isdir(cwd):
            print(f"run.py: {cwd} is missing", file=sys.stderr)
            return 1
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    sys.stdout.flush()
    os.execve(harness, [harness, "-daemon", daemon] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
