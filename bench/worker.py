"""One worker process of a benchmark run.

Imports pfest from ``src/`` of the current directory, builds the
workload's inputs (set-up), runs whole rounds until its share of the run
time is spent, checks the outputs and prints one JSON line for run.py.
With --trace 1 every second round runs with the tracer installed, so
the traced and untraced timings come from the same process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def import_pfest(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    pfest = importlib.import_module("pfest")
    for name in ("cli", "harness"):
        importlib.import_module(f"pfest.{name}")
    if not os.path.abspath(pfest.__file__).startswith(src + os.sep):
        raise ImportError(f"pfest was imported from {pfest.__file__}, not {src}")
    return pfest


# The machine is shared: other tenants slow every process on it by up to
# a half for seconds at a time. A fixed probe is timed next to the calls
# (at most every CALIBRATE_EVERY_S), so run.py can express their times at
# a fixed machine speed. It mixes what pfest's hot loops are made of:
# interpreter work, small numpy calls, and a strided pass over 8 MB, which
# tracks memory-bandwidth contention like the sampler's 2^20-element blocks.
CALIBRATE_EVERY_S = 0.05
# Probes taken around set-up (set-up is one 0.2 s stretch, not many calls).
SETUP_PROBES = 8
_PROBE_CDF = np.cumsum(np.full(64, 1.0 / 64))
_PROBE_U = np.linspace(0.0, 1.0, 4096, endpoint=False)
_PROBE_BLOCK = np.linspace(0.0, 1.0, 1 << 20)


def probe() -> float:
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        for i in range(150):
            total += int(np.searchsorted(_PROBE_CDF, _PROBE_U[i:i + 16]).sum())
        total += float(_PROBE_BLOCK[::8].sum())
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=0)
    parser.add_argument("--spans", help="JSON-lines path for the spans")
    args = parser.parse_args()

    pfest = import_pfest(os.getcwd())
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](pfest, args.seed, args.worker)
    tracer = tracing.Tracer(pfest) if args.trace else None
    timings = {False: defaultdict(list), True: defaultdict(list)}
    ops = {False: 0, True: 0}
    rounds = 0

    ready_at = time.monotonic()
    ready_probe = statistics.median(probe() for _ in range(SETUP_PROBES))
    deadline = time.monotonic() + args.seconds
    probed_at, unit = time.perf_counter(), ready_probe
    while True:
        traced = tracer is not None and rounds % 2 == 1
        calls = workload.round(rounds)
        if traced:
            tracer.install()
        try:
            for call in calls:
                if time.perf_counter() - probed_at >= CALIBRATE_EVERY_S:
                    unit = probe()
                    probed_at = time.perf_counter()
                start = time.perf_counter()
                out = call.run()
                timings[traced][call.key].append((time.perf_counter() - start, unit))
                call.record(out)
        finally:
            if traced:
                tracer.uninstall()
        ops[traced] += sum(call.ops for call in calls)
        rounds += 1
        if time.monotonic() >= deadline and (tracer is None or rounds % 2 == 0):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    workload.check()
    result = {
        "ready_at": ready_at,
        "ready_probe": ready_probe,
        "rounds": rounds,
        "ops_per_round": sum(call.ops for call in calls),
        "attempted": ops[False] + ops[True],
        "failed": workload.failed,
        "rss_mb": rss_mb,
        "timings": timings[False],
        "problems": workload.problems,
        "tallies": workload.tallies.rows,
        "tv_pools": {
            key: {**pool, "counts": pool["counts"].tolist(), "nu": list(map(float, pool["nu"]))}
            for key, pool in workload.tv_pools.items()
        },
    }
    if tracer is not None:
        result["traced_timings"] = timings[True]
        result["traced_ops"] = ops[True]
        result["layers"] = tracer.layer_totals()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
