"""Set-up time in a fresh interpreter: import focksim, then run a workload's first op.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from just before `import focksim` to the end of op 0.
The op is drawn before the clock starts; `oplists` imports neither numpy
nor focksim, so their import cost falls inside the measurement.
"""

import sys
import time

import oplists


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    op = oplists.OpStream(workload, seed)[0]
    start = time.perf_counter()
    import workloads

    runner = workloads.WORKLOADS[workload]
    output = runner.run(runner.prepare(op, workdir, "setup"))
    elapsed = time.perf_counter() - start
    runner.collect(output)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
