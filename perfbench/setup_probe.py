"""Time one benchmark set-up in a fresh process: import pomest, make the inputs.

Usage (from the checkout root): python3 perfbench/setup_probe.py WORKLOAD SEED COUNT
Prints the elapsed seconds.
"""

import os
import sys
import time


def main() -> int:
    workload, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    start = time.perf_counter()
    import pomest  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.make_inputs(workload, seed, count)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
