"""Reference-kernel sampler: how fast the benchmark's CPU runs, over time.

    python3 perfbench/calibrate.py --out SAMPLES.json

run.py starts it on the CPU it pins the workload processes to.  Every
PERIOD_S it times one run of a small fixed kernel and keeps the
CLOCK_MONOTONIC start and the duration.  The kernel mixes what the CLI
spends its time in: an integer loop, numpy calls on small arrays, Python
calls with dict look-ups, and vectorised numpy on arrays too large for the
L1 cache.  Sharing the CPU with the workload costs it about 1 ms in every
PERIOD_S.  It prints ``ready`` once warmed up, and on SIGTERM writes
the samples as a JSON list of ``[start, seconds]`` pairs to --out.

On a shared host the speed of one CPU drifts by tens of percent within
seconds, with the load of other tenants; a workload and this kernel, run in
the same interval on the same CPU, slow down together.  run.py rescales each
timed interval by the mean kernel speed inside it.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.04

_VEC = np.arange(64.0)
_TABLE = {i: i for i in range(50)}
_BIG = np.linspace(0.0, 1.0, 20000)
_OUT = np.empty_like(_BIG)


def _add(a, b):
    return a + b


def kernel() -> int:
    s = 0
    for i in range(3000):
        s += i * i
    for _ in range(100):
        s += int((_VEC * 2.0 + 1.0).sum())
    for i in range(1500):
        s = _add(s, _TABLE[i % 50])
    for _ in range(2):
        np.multiply(_BIG, 1.5, out=_OUT)
        np.exp(_OUT, out=_OUT)
        s += int(np.gradient(_OUT)[-1])
    return s


def main(args: list[str]) -> int:
    out = args[args.index("--out") + 1]
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(1))
    for _ in range(5):
        kernel()
    print("ready", flush=True)
    clock = time.monotonic
    samples = []
    while not stopping:
        time.sleep(PERIOD_S)
        t0 = clock()
        kernel()
        samples.append((t0, clock() - t0))
    with open(out, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
