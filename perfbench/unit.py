"""Entry point of one unit process.

    python3 perfbench/unit.py --workload queries --seed 1 --size full --mode plain

It starts the host-speed sampler (hostspeed.py) before cwkit is imported, so
that set-up, too, is timed beside the reference, then runs workloads.main.
"""

import sys

from hostspeed import Sampler

if __name__ == "__main__":
    with Sampler() as host:
        import workloads

        status = workloads.main(host)
    sys.exit(status)
