#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Run from the repository root:

    python3 _perfbench/run.py --workload whatif-cold --seed 1 --seconds 45 --trace 0

Arguments are passed to the benchmark unchanged. The Go build cache, the
binary and every file the run writes stay under .bench_build/ in the
repository root. The last line of standard output is the result JSON.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOFLAGS"] = ""
    env["GOWORK"] = "off"
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOTELEMETRY"] = "off"
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    args = [binary, "-expected", os.path.join(HERE, "expected.json"),
            "-workdir", os.path.join(BUILD, "work")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
