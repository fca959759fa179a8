#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload gcc-bo --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is built from source into .bench_build
(or $CARGO_TARGET_DIR when set), with every Go cache kept there too, so the
benchmark reads and writes only inside the checkout. All arguments are passed
to the benchmark, whose last line of standard output is the JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 seconds; the build before it is bounded apart.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench.bin")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + ["--out", os.path.join(build, "perfbench")]
    # Terminating this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
