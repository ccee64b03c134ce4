"""One workload pass in a fresh process: set-up, timed window, checks.

Run by ``run.py``; prints one JSON object on its last stdout line. Set-up
time is measured from the start of this script, before realstab and numpy
are imported, up to the first timed op. The window runs whole rounds until
``--seconds`` have passed (or exactly ``--rounds`` rounds), then every op's
output is checked. With ``--trace`` the layer wrappers are installed after
set-up and the span summary is reported. A fixed reference burst is timed
right after set-up and every CALIBRATE_EVERY_S of the window, outside the
measured times; ``run.py`` scales the measured times by the bursts timed
nearest to them.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
FAILURES_SHOWN = 10
CALIBRATE_EVERY_S = 0.25  # window time between two reference bursts
SETUP_BURSTS = 9  # reference bursts timed right after set-up
WARMUP_BURSTS = 3  # untimed bursts before them, while the interpreter specializes the code


def import_realstab():
    """Import realstab from this checkout's source tree and nowhere else."""
    if not (SRC_DIR / "realstab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no realstab sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import realstab
    if Path(realstab.__file__).resolve().parent != (SRC_DIR / "realstab").resolve():
        raise SystemExit(f"bench: imported realstab from {realstab.__file__}, not {SRC_DIR}")
    return realstab


def by_label(labels, latencies) -> dict:
    """Per op label: count and total milliseconds."""
    out: dict = {}
    for label, seconds in zip(labels, latencies):
        count, total = out.get(label, (0, 0.0))
        out[label] = (count + 1, total + 1e3 * seconds)
    return out


def reference_burst() -> Fraction:
    """Fixed exact-rational work, the kind realstab's exact core does.

    It does not depend on realstab, so its time measures only how fast the
    machine runs at that moment.
    """
    a = [Fraction(k + 1, 2 * k + 3) for k in range(40)]
    b = [Fraction(3 * k - 7, k + 5) for k in range(40)]
    prod = [Fraction(0)] * 79
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return sum(prod)


def time_reference(clock=time.perf_counter) -> float:
    """Seconds one reference burst takes, with the collector kept out of it."""
    gc.disable()
    try:
        t = clock()
        reference_burst()
        return clock() - t
    finally:
        gc.enable()


def run_window(workload, seconds, rounds, recorder):
    """Run whole rounds; time a reference burst every CALIBRATE_EVERY_S.

    The bursts run between ops, and their time is not part of ``elapsed``.
    ``op_at`` and ``reference_at`` are the start times of the ops and the
    bursts on the window's clock, which stops during bursts.
    """
    latencies, labels, outputs, errors = [], [], [], []
    op_at, reference, reference_at = [], [], []
    units = 0
    clock = time.perf_counter
    begin = clock()
    paused = 0.0
    next_burst = begin
    r = 0
    while True:
        for op in workload.round_ops(r):
            if clock() >= next_burst:
                t = clock()
                reference_at.append(t - begin - paused)
                reference.append(time_reference(clock))
                now = clock()
                paused += now - t
                next_burst = now + CALIBRATE_EVERY_S
            index = len(latencies)
            t = clock()
            op_at.append(t - begin - paused)
            try:
                done, out = recorder.run_op(index, op.run) if recorder else op.run()
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                latencies.append(clock() - t)
                labels.append(op.label)
                errors.append(f"op {index} {op.label}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(clock() - t)
            labels.append(op.label)
            units += done
            outputs.append((index, op, out))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif clock() - begin - paused >= seconds:
            break
    return (clock() - begin - paused, r, latencies, labels, units, outputs, errors,
            {"op_at_s": op_at, "reference_s": reference, "reference_at_s": reference_at})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds instead")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the recorded spans to this .npz file")
    parser.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    args = parser.parse_args(argv)

    if os.environ.get("REALSTAB_THREADS") != "1":
        raise SystemExit("bench: REALSTAB_THREADS must be pinned to 1")
    import_realstab()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed, Path(args.workdir))
        setup_s = time.perf_counter() - STARTED
        for _ in range(WARMUP_BURSTS):
            reference_burst()
        setup_reference = [time_reference() for _ in range(SETUP_BURSTS)]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_reference_s": setup_reference}))
            return 0

        recorder = None
        if args.trace:
            import tracer
            recorder = tracer.Recorder()
            tracer.install(recorder)
        elapsed, rounds, latencies, labels, units, outputs, errors, timeline = run_window(
            workload, args.seconds, args.rounds, recorder)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "workload": args.workload, "seed": args.seed, "setup_s": setup_s,
            "setup_reference_s": setup_reference, "latencies_s": latencies, **timeline,
            "elapsed_s": elapsed, "rounds": rounds, "units": units, "unit": workload.unit,
            "attempted": len(latencies), "peak_rss_mb": rss_mb,
            "input_sha256": workload.input_sha256,
            "numpy": sys.modules["numpy"].__version__,
            "by_label": by_label(labels, latencies),
        }
        if recorder is not None:
            result["spans"] = len(recorder)
            result["layers"] = recorder.summarize()
            result["counters"] = recorder.all_counters()
            if args.spans:
                Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
                recorder.write(args.spans)

        # Correctness gate, outside the window.
        for index, op, out in outputs:
            problem = op.check(out)
            if problem is not None:
                errors.append(f"op {index} {op.label}: {problem}")
        try:
            oracle_errors = workload.oracle()
        except Exception as exc:  # the oracle itself failing fails the run, with counts
            oracle_errors = [f"oracle: {type(exc).__name__}: {exc}"]
        failed = min(len(errors) + len(oracle_errors), len(latencies))
        result.update(failed=failed, oracle_checked=workload.oracle_checked,
                      failures=(errors + oracle_errors)[:FAILURES_SHOWN])
        print(json.dumps(result))
        return 0
    finally:
        workload.cleanup()


if __name__ == "__main__":
    sys.exit(main())
