"""Set-up probe: import flatcover and build one workload's task list.

    python3 bench/probe.py <workload> <seed>

Prints "ready <speed>" once the first task could start, where <speed> is the
mean core speed sampled meanwhile (see speed.py).  run.py times fresh
interpreters running this file to measure setup_s.
"""
import sys

import speed

probe = speed.SpeedProbe()
probe.start()
import workloads  # noqa: E402

workloads.make_tasks(sys.argv[1], int(sys.argv[2]))
probe.stop()
print(f"ready {probe.speed_since(0)!r}", flush=True)
