"""Steadiness mode: repeat each workload over seeds and report median and quartiles.

    python3 bench/steady.py [--seeds 10] [--seconds 30] [--workload cli-pipeline]

Runs ``run.py --trace 0`` once per seed 0..N-1 and workload, one after another,
and prints for every end-to-end metric its median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median. The bounds in BENCHMARK.json
are set from these figures; the run fails when any spread, setup_s's too,
is not below a third of its bound. ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``. The full table goes to ``bench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import run


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=run.SPEC["run_seconds"])
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    table, ok = {}, True
    for workload in args.workload or run.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(args.seeds):
            started = time.monotonic()
            code, out, err = run.run_process(
                [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(f"{workload} seed {seed}: exit {code}\n{out}{err}")
                return 1
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {time.monotonic() - started:.1f} s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        table[workload] = {name: spread(v) for name, v in values.items()}
        for name, s in table[workload].items():
            bound = bounds[name]
            steady = s["spread"] < bound / 3
            ok &= steady
            mark = f"bound {bound}: {'ok' if steady else 'SPREAD ABOVE A THIRD OF THE BOUND'}"
            print(f"  {workload:15s} {name:18s} median {s['median']:.5g} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f} {mark}")
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "steady.json").write_text(json.dumps(table, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
