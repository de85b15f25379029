"""One fresh benchmark worker process; ``run.py`` starts it (see workloads.py).

The reference kernel is timed before numpy and shiftcode are imported, so
that the set-up time can be corrected for host speed; the time it takes is
reported and left out of the set-up time.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import hostspeed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    pre_ref_s = hostspeed.reference_s(hostspeed.SETUP_REPEATS)
    excluded_s = time.monotonic() - t0

    import shiftcode
    import workloads
    src = workloads.ROOT / "src"
    if not Path(shiftcode.__file__).resolve().is_relative_to(src):
        print(f"shiftcode imported from {shiftcode.__file__}, not {src}",
              file=sys.stderr)
        return 2

    def emit(obj):
        print(json.dumps({**obj, "excluded_s": excluded_s}), flush=True)

    workloads.worker(args.workload, args.seed, args.seconds, args.mode, emit,
                     pre_ref_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
