"""Set-up probe: time, in a fresh process, importing radialmult and building one workload's inputs.

Started by run.py once per set-up sample; prints the seconds as its last line.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    workloads.WORKLOADS[args.workload].setup(args.seed, args.size, args.workdir)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
