#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `ssp` binary (the cluster
workloads spawn it as `ssp serve --node` processes) and the benchmark
package beside this file, both into CARGO_TARGET_DIR (default `target`),
then runs the benchmark. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result. Any failure exits
non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A wall cap that turns a stall into an exit instead of a hang.
RUN_CAP_SECONDS = 170
# The in-process workload runs on one CPU: on a 2-vCPU VM, wakeups that
# cross CPUs made the runtime's per-instance thread hand-offs swing 2x
# between runs. The cluster workloads need both CPUs for three nodes and
# two clients.
ONE_CPU_WORKLOADS = ("engine",)


def workload_of(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload":
            return value
    return None


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ssp"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    build(root, target)
    if workload_of(sys.argv[1:]) in ONE_CPU_WORKLOADS:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--ssp-bin", os.path.join(target, "release", "ssp"),
        "--work-dir", os.path.join(root, ".perfbench-work"),
    ]
    # Its own process group, so that nothing it started outlives a cap.
    bench = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.exit("perfbench: stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = bench.communicate(timeout=RUN_CAP_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.exit(f"perfbench: no result within {RUN_CAP_SECONDS} s")
    if bench.returncode != 0:
        sys.exit(f"perfbench: exited with {bench.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
