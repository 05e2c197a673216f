#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go module in this directory builds against the checkout's own `fasp`
module (see go.mod). The build cache, temporary files and the binary go
under `.bench_build/` in the checkout, or under $CARGO_TARGET_DIR when it
is set; nothing is fetched from the network.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(ROOT, build))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOFLAGS": "-mod=readonly -buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    for d in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    exe = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
