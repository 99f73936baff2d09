#!/usr/bin/env python3
"""Build and run the FlyMon-Go benchmark (the Go program in this directory).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay-9task --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the synthesized trace and span dumps all go
under .bench_build/ in the checkout. Build output goes to standard error;
the benchmark's standard output (ending in the one-line JSON result) is
passed through unchanged, and its exit code is returned.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)  # the program sets GOMAXPROCS = nproc
    exe = os.path.join(build, "flymon-perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
