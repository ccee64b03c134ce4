"""realstab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload identity-suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every workload pass runs in its own fresh
process (``child.py``) with ``REALSTAB_THREADS=1`` and ``PYTHONHASHSEED=0``
pinned, importing realstab from this checkout's ``src``.

``--trace 0`` reports the end-to-end metrics: set-up is measured in
SETUP_REPEATS fresh processes and reported as their median, and the middle
one also runs the timed window of whole rounds lasting at least ``--seconds``.
Its times are scaled to the machine's nominal speed by reference bursts
timed in the same processes (``speed_factor``); the plain wall-clock
figures are printed too.
``--trace 1`` reports the per-layer metrics: the same fixed op list (a
number of rounds that depends only on ``--seconds``) runs once untraced and
twice traced, so the tracing overhead compares identical work and every
``*.calls`` count must repeat exactly between the two traced runs.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything else (sample counts, provenance,
per-command breakdown) is printed above it and written to
``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("identity-suite", "mc-cor7", "cli-pipeline")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0

# Median time of child.reference_burst on the 2-core Xeon the bounds were
# set on, in its slow state; reported times are scaled to that speed.
REFERENCE_NOMINAL_S = 0.009
# How much each workload's op time moves with the burst time when the
# machine changes speed: the slope of log(op time) on log(burst time) over
# 3-second windows of a 3-minute process on that Xeon (correlations 0.92-0.96).
ELASTICITY = {"identity-suite": 0.79, "mc-cor7": 0.58, "cli-pipeline": 0.73}

# Nominal untraced seconds per round at the parent commit on a 2-core Xeon;
# a traced run takes TRACE_SHARE of --seconds worth of rounds.
ROUND_SECONDS = {"identity-suite": 4.0, "mc-cor7": 0.1, "cli-pipeline": 1.4}
TRACE_SHARE = 0.2

# Metric names and units come from BENCHMARK.json. Per-layer names read
# "<span>.calls" (calls), "<span>.total_s" (outermost spans of that name,
# summed), "<layer>.self_s" (self time over the layer) or name a counter.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
_COUNTERS = {"poly.max_degree", "poly.max_coeff_bits", "matrix.inverse.pivots",
             "fileio.bytes_written"}


class BenchError(Exception):
    """A child process failed or the run went over its time limit."""


def run_process(cmd, timeout=None, env=None) -> tuple[int, str, str]:
    """Run cmd from the checkout root; the process never outlives this call."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out, err


def _child(workload, seed, role, extra, deadline) -> dict:
    workdir = BENCH_DIR / ".work" / f"run{os.getpid()}-{role}"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)] + extra
    env = dict(os.environ, REALSTAB_THREADS="1", PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before every pass ran")
    try:
        code, out, err = run_process(cmd, remaining, env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} pass did not finish within the time limit") from exc
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{role} pass exited {code}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def trace_rounds(workload: str, seconds: float) -> int:
    return max(1, round(TRACE_SHARE * seconds / ROUND_SECONDS[workload]))


def quantile(values, q: int) -> float:
    """q-th percentile (1..99) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_factor(bursts: list[float], workload: str) -> float:
    """Factor that scales a time measured next to ``bursts`` to nominal speed.

    A shared machine's speed swings by tens of percent over seconds to
    minutes, and a fixed burst timed in the same process swings with it.
    The workload's own time moves by the ELASTICITY power of that swing.
    """
    return (REFERENCE_NOMINAL_S / statistics.median(bursts)) ** ELASTICITY[workload]


def op_factors(result: dict, workload: str) -> list[float]:
    """Per op, the speed factor of the two bursts before it and the one after."""
    at, bursts = result["reference_at_s"], result["reference_s"]
    out = []
    for t in result["op_at_s"]:
        lo = max(0, min(bisect.bisect_right(at, t) - 2, len(bursts) - 3))
        out.append(speed_factor(bursts[lo:lo + 3], workload))
    return out


def end_to_end(setups: list[dict], main: dict, workload: str, scaled: bool = True) -> dict:
    """End-to-end metrics; ``scaled=False`` gives the plain wall-clock figures."""
    raw = main["latencies_s"]
    factors = op_factors(main, workload) if scaled else [1.0] * len(raw)
    lat = [t * f for t, f in zip(raw, factors)]
    return {
        "throughput_per_s": main["units"] / (main["elapsed_s"] * sum(lat) / sum(raw)),
        "latency_p50_ms": 1e3 * quantile(lat, 50),
        "latency_p90_ms": 1e3 * quantile(lat, 90),
        "setup_s": statistics.median(
            p["setup_s"] * (speed_factor(p["setup_reference_s"], workload) if scaled else 1.0)
            for p in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict, workload: str) -> dict:
    """Per-layer metrics; times are scaled by the traced pass's speed factor."""
    layers, counters = traced["layers"], traced["counters"]
    speed = speed_factor(traced["reference_s"], workload)
    out = {}
    for name, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if name in _COUNTERS:
            value = counters[name]
        elif name == "poly.gcd.nontrivial_ratio":
            calls = layers.get("poly.gcd", {}).get("calls", 0)
            value = counters["poly.gcd.nontrivial"] / calls if calls else 0.0
        elif name == "trace.overhead_ratio":
            # traced throughput against untraced throughput on the same ops
            value = (untraced["elapsed_s"] * speed_factor(untraced["reference_s"], workload)
                     / (traced["elapsed_s"] * speed))
        elif name == "trace.spans":
            value = traced["spans"]
        elif tail == "self_s" and "." not in head:
            value = sum(v["self_s"] for k, v in layers.items() if k.startswith(head + "."))
        else:
            value = layers.get(head, {}).get(tail, 0)
        out[name] = value * speed if name.endswith("_s") else value
    return out


def calls_mismatch(a: dict, b: dict) -> list[str]:
    """Span names whose call counts differ between two traced runs."""
    names = sorted(set(a["layers"]) | set(b["layers"]))
    return [n for n in names
            if a["layers"].get(n, {}).get("calls") != b["layers"].get(n, {}).get("calls")]


def _git_sha() -> str | None:
    try:
        code, out, _ = run_process(["git", "rev-parse", "HEAD"], timeout=10, env=dict(
            os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.strip() if code == 0 else None


def _tree_sha256(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed: int, result: dict) -> dict:
    return {
        "seed": seed,
        "input_sha256": result["input_sha256"],
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(ROOT / "src" / "realstab"),
        "bench_sha256": _tree_sha256(BENCH_DIR),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "REALSTAB_THREADS": "1",
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so running passes are killed
    if not (ROOT / "src" / "realstab" / "__init__.py").is_file():
        print(f"bench: no realstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    w, seed = args.workload, args.seed
    try:
        if args.trace:
            n = trace_rounds(w, args.seconds)
            fixed = ["--rounds", str(n)]
            untraced = _child(w, seed, "untraced", fixed, deadline)
            spans = OUT_DIR / f"spans-{w}.npz"
            main_pass = _child(w, seed, "traced", fixed + ["--trace", "--spans", str(spans)],
                               deadline)
            repeat = _child(w, seed, "traced-repeat", fixed + ["--trace"], deadline)
            passes = [untraced, main_pass, repeat]
            metrics = per_layer(main_pass, untraced, w)
            units = dict(PER_LAYER)
            mismatch = calls_mismatch(main_pass, repeat)
            wall_clock = None
            notes = [f"traced run: {n} round(s), {main_pass['attempted']} ops, "
                     f"{main_pass['spans']} spans -> {spans.relative_to(ROOT)}"]
            if mismatch:
                notes.append(f"call counts differ between the two traced runs: {mismatch}")
        else:
            # Set-up passes before and after the timed one, so that their
            # median covers the run's time instead of one moment.
            setups = []
            for i in range(SETUP_REPEATS):
                if i == SETUP_REPEATS // 2:
                    main_pass = _child(w, seed, "timed", ["--seconds", str(args.seconds)],
                                       deadline)
                    setups.append(main_pass)
                else:
                    setups.append(_child(w, seed, f"setup{i}", ["--setup-only"], deadline))
            passes = [main_pass]
            metrics = end_to_end(setups, main_pass, w)
            units = dict(END_TO_END)
            mismatch = []
            wall_clock = end_to_end(setups, main_pass, w, scaled=False)
            factors = op_factors(main_pass, w)
            notes = [
                f"times scaled to nominal speed by (burst {REFERENCE_NOMINAL_S} s / burst "
                f"time) ** {ELASTICITY[w]}, from {len(main_pass['reference_s'])} bursts in "
                f"the window; per-op factors {min(factors):.3f}-{max(factors):.3f}",
                f"throughput_per_s: {main_pass['units']} {main_pass['unit']} in "
                f"{main_pass['elapsed_s']:.3f} s ({main_pass['rounds']} rounds)",
                f"latency_p50_ms, latency_p90_ms: n = {len(factors)} ops",
                f"setup_s: median of {len(setups)} fresh processes, each scaled by "
                f"the median of its own {len(main_pass['setup_reference_s'])} bursts",
                "peak_rss_mb: ru_maxrss of the timed process, n = 1",
                "wall clock, unscaled: " + ", ".join(
                    f"{k} {_fmt(v)}" for k, v in wall_clock.items()),
            ]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = main_pass["attempted"]
    failed = max(p["failed"] for p in passes)
    correct = (failed == 0 and not mismatch
               and all(p["input_sha256"] == main_pass["input_sha256"] for p in passes)
               and all(math.isfinite(v) for v in metrics.values()))
    prov = provenance(seed, main_pass)
    print(f"{w} seed={seed} trace={args.trace} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g} (n = {attempted}) correct={correct}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:42s} {_fmt(value):>14s} {units[name]}")
    for p in passes:
        for failure in p["failures"]:
            print(f"  FAILED {failure}")
    print("  provenance " + json.dumps(prov, sort_keys=True))
    report = {
        "workload": w, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes, "provenance": prov, "wall_clock": wall_clock,
        "passes": [{k: v for k, v in p.items() if k not in ("layers",)} for p in passes],
        "layers": main_pass.get("layers"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{w}_seed{seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
