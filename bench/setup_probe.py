"""One benchmark set-up in a fresh process, for the setup_s metric.

Imports creatorgame from the checkout, writes the seed's first block of
scenario files, runs the workload's warm-up request and prints
time.monotonic_ns() at that moment, then the median time of the speed
reference kernel (bench/speed.py) right after. The parent subtracts the
time it started this process.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

import client

client.pin_threads()
cli = client.load_cli()

import speed  # noqa: E402  (after pinning threads: these import numpy)
import workloads  # noqa: E402

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
runner = client.Client(cli, workdir)
runner.write(workloads.block(workload, seed, 0))
warmup = workloads.warmup_request(workload)
runner.write([warmup])
outcome = runner.call(warmup, 0)
done = time.monotonic_ns()
if outcome.code != 0:
    sys.exit(f"warm-up request failed with exit {outcome.code}: {outcome.stderr.strip()}")
print(done, speed.median_kernel_s())
