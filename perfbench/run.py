"""Benchmark of the criss-cross attention library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process with one closed-loop client: step i+1
starts only after step i has returned and its outputs have been checked
(checks run outside the timed interval). Workloads are defined in
``workloads.py``; ``README.md`` explains every metric.

Each step runs the operation twice on the same input: once on the library
under test, untraced, and once more. With ``--trace 0`` the second run is on
the frozen baseline library in ``baseline/``, interleaved with the first on
one CPU, and the last line of standard output is a JSON object holding the
end-to-end metrics. With ``--trace 1`` the second run is on the library
under test, traced, after the first, and the JSON object holds the
per-layer metrics taken from the traced runs; the spans are written to
``perfbench/out/``.
``--inject-fault`` runs every operation with a known fault, so that every
check must fail (used by the smoke tests).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter, thread_time

SCHEMA = "perfbench-result/1"
WORKLOAD_NAMES = ("toy-train", "rcca2d-large", "rcca3d-volume", "verify")
SETUP_ROUNDS = 5
# The end-to-end metrics that BENCHMARK.json bounds. ops_per_s, op_p50_s,
# op_tail_s and failed_frac are printed and stored too, but carry no bound:
# on a shared host, whole runs can be up to ~2x slower than others, so a
# run's operation times depend on the host's load. op_p50_rel, the median
# over steps of the operation's CPU time over the baseline's on the same
# input, interleaved with it on one CPU, does not.
END_TO_END = ("op_p50_rel", "setup_s", "peak_rss_mb")
TAIL_MIN_BEYOND = 10
# Set before NumPy is imported. One thread keeps runs steady on a shared
# machine; the library's hot loops (einsum, np.add.at, Python loops) are
# single-threaded anyway.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="summed operation time of both arms to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def tail_percentile(samples) -> tuple:
    """(percentile, value, samples beyond it): the highest whole percentile
    above the median, by nearest rank, with at least TAIL_MIN_BEYOND samples
    beyond it. When there are too few samples for any, the upper median is
    returned as percentile 50 with the short count."""
    s = sorted(samples)
    n = len(s)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, s[rank - 1], n - rank
    rank = n // 2 + 1
    return 50, s[rank - 1], n - rank


# -- environment stamp ------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha is None:
        for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def last_level_cache() -> dict | None:
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(idx / "level"), _read(idx / "size")
        if level and size and (best is None or int(level) > best["level"]):
            best = {"level": int(level), "size": size}
    return best


def stamp(np, args, wl, checksum: str, op_indices: list) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "schema": SCHEMA,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "llc": last_level_cache(),
        "roofline": "not reported: arrays cannot reach 4x LLC in this RAM; "
                    "flops_per_byte is computed from array sizes",
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "op_indices": op_indices,
        "client": "one closed-loop client; with --trace 0 each step runs "
                  "both arms interleaved, in two threads bound to one CPU",
        "input_checksum": checksum,
    }


# -- the run ----------------------------------------------------------------

def run_in_turn(calls):
    """Runs the ``(arm, fn)`` calls one after the other. Returns the output
    of each arm (None if it raised) and its wall time."""
    outs, secs = {}, {}
    for arm, fn in calls:
        outs[arm] = None
        t0 = perf_counter()
        try:
            outs[arm] = fn()
        except Exception:
            traceback.print_exc()
        secs[arm] = perf_counter() - t0
    return outs, secs


def run_interleaved(calls):
    """Runs the ``(arm, fn)`` calls at once, one thread each, started in the
    order given. Returns the output of each arm (None if it raised) and the
    CPU time of its thread.

    The caller binds the process to one CPU, so the threads take turns on
    it: the interpreter switches between them every few milliseconds, and
    the scheduler shares the CPU while NumPy has released the interpreter
    lock. Both arms therefore see the same load of the host, down to a few
    milliseconds.
    """
    outs, secs = {}, {}
    start = threading.Barrier(len(calls))

    def go(arm, fn):
        outs[arm] = None
        start.wait()
        t0 = thread_time()
        try:
            outs[arm] = fn()
        except Exception:
            traceback.print_exc()
        secs[arm] = thread_time() - t0

    threads = [threading.Thread(target=go, args=call) for call in calls]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outs, secs


def measure(wl, args, tracer):
    """Set-up rounds, then the closed loop. Returns a dict of the set-up
    round times, the peak RSS after set-up, the paired operation times and
    the counts of operations attempted and failed.

    Each step of the loop runs one operation twice on the same input: arm
    "a" is the library under test, untraced; arm "b" is the same operation
    on the frozen baseline library (``--trace 0``) or on the library under
    test, traced (``--trace 1``). With ``--trace 0`` the two arms run
    interleaved on one CPU (``run_interleaved``), timed in thread CPU time:
    the load of a shared host slows both alike, so their ratio does not
    depend on it. The traced arm rebinds module attributes that the untraced
    one would see too, so with ``--trace 1`` the arms run one after the
    other, timed in wall time. The arm that starts first alternates from
    step to step. Outputs of the library under test are checked, after both
    arms; the baseline's are not.
    """
    import resource

    setup_round_s = []
    for j in range(SETUP_ROUNDS):
        t0 = perf_counter()
        state = wl.setup(args.seed)
        wl.run(state, wl.make_input(args.seed, j))
        setup_round_s.append(perf_counter() - t0)
    # read before the baseline library is loaded, so that only the library
    # under test sets it
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run = wl.fault_run if args.inject_fault else wl.run
    if tracer is None:
        import workloads
        ref = workloads.make_workloads(workloads.BASELINE)[wl.name]
        ref_state = ref.setup(args.seed)
        ref.run(ref_state, ref.make_input(args.seed, 0))
        run_pair = run_interleaved
    else:
        run_pair = run_in_turn

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    times = {"a": [], "b": []}
    attempted = failed = 0
    i = SETUP_ROUNDS
    try:
        while sum(times["a"]) + sum(times["b"]) < args.seconds or not times["a"]:
            inp = wl.make_input(args.seed, i)
            if tracer is None:
                # an input of its own, so that no array is shared by threads
                inp_b = ref.make_input(args.seed, i)
                b = functools.partial(ref.run, ref_state, inp_b)
            else:
                b = functools.partial(tracer.run_op, i, run, state, inp)
            calls = [("a", functools.partial(run, state, inp)), ("b", b)]
            outs, secs = run_pair(calls if i % 2 == 0 else calls[::-1])
            for arm in times:
                times[arm].append(secs[arm])
            for arm in ("a", "b") if tracer is not None else ("a",):
                out = outs[arm]
                if arm == "b" and out is not None:
                    for k, v in wl.op_counts(out).items():
                        tracer.counts[k] += v
                if out is None or not wl.check(state, inp, out, args.seed, i, attempted):
                    failed += 1
                attempted += 1
            i += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return {"setup_round_s": setup_round_s, "rss_mb": rss_mb, "a": times["a"],
            "b": times["b"], "attempted": attempted, "failed": failed,
            "next_i": i, "state": state}


def peak_over_model(wl, state, seed: int, i: int) -> dict:
    """tracemalloc peak of one untraced operation over the training-mode
    attention bytes, for the workloads whose operation is exactly one
    forward+backward."""
    import tracemalloc

    layer = getattr(wl, "layer", None)
    if layer is None:
        return {}
    inp = wl.make_input(seed, i)
    tracemalloc.start()
    try:
        wl.run(state, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {layer: peak / wl.cost_rows()[0]["attention_bytes_training"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "crisscross" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    sys.path.insert(0, str(src))
    # NumPy's import is the same for every commit, and a single noisy
    # sample, so it is not part of setup_s
    import numpy as np
    t0 = perf_counter()
    import tracing
    import workloads
    import_s = perf_counter() - t0
    import crisscross
    if Path(crisscross.__file__).resolve().parent != (src / "crisscross").resolve():
        print(f"perfbench: imported crisscross from {crisscross.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    wl = workloads.make_workloads()[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    m = measure(wl, args, tracer)
    plain, paired = m["a"], m["b"]
    attempted, failed = m["attempted"], m["failed"]
    checksum = workloads.checksum(
        wl.input_arrays(m["state"], wl.make_input(args.seed, SETUP_ROUNDS)))
    setup_s = import_s + statistics.median(m["setup_round_s"])
    failed_frac = failed / attempted

    pct, tail_s, beyond = tail_percentile(plain)
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (m["rss_mb"], "MiB"),
        "ops_per_s": (len(plain) / sum(plain), "1/s"),
        "op_p50_s": (statistics.median(plain), "s"),
        "op_tail_s": (tail_s, "s"),
        "failed_frac": (failed_frac, "frac"),
    }
    result = {
        "stamp": stamp(np, args, wl, checksum, [SETUP_ROUNDS, m["next_i"] - 1]),
        "samples": len(plain),
        "op_s": {"library": plain, "second_arm": paired},
        "tail": {"percentile": pct, "samples": len(plain), "beyond": beyond},
        "setup": {"import_s": import_s, "rounds_s": m["setup_round_s"]},
        "failed_frac": failed_frac,
        "cost_rows": wl.cost_rows() + [workloads.PAPER_ROW],
    }
    if tracer is None:
        e2e["op_p50_rel"] = (statistics.median(a / b for a, b in zip(plain, paired)), "x")
        e2e["baseline_op_p50_s"] = (statistics.median(paired), "s")
        reported = {k: e2e[k] for k in END_TO_END}
    else:
        overhead = statistics.median(b / a for a, b in zip(plain, paired))
        peaks = peak_over_model(wl, m["state"], args.seed, m["next_i"])
        reported = tracing.per_layer_metrics(tracer, peaks, overhead)
        result["self_time_shares"] = tracing.self_time_shares(tracer)
        result["traced_ops"] = tracer.ops
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl",
                     {"stamp": result["stamp"], "span": tracing.SPAN_FIELDS})
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
    for row in result["cost_rows"]:
        if row["runnable_at_this_commit"]:
            row["measured"] = {k: v for k, v in result["metrics"].items()
                               if k.startswith(row["layer"] + ".") or k in e2e}
    result["end_to_end_untraced_half" if tracer else "end_to_end"] = {
        k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} tail=p{pct} ({beyond} beyond)")
    for name, (value, unit) in reported.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for name, (value, unit) in e2e.items():
        if name not in reported:
            print(f"  {name:32s} {value:.6g} {unit}  (not bounded)")
    for row in result["cost_rows"]:
        print(f"  cost {row['row']}: {row['flops_total']:.4g} flop, attention "
              f"{row['attention_bytes_training']:.4g} B, gathered V "
              f"{row['gathered_v_bytes']:.4g} B, runnable={row['runnable_at_this_commit']}")
        for k, v in row.get("measured", {}).items():
            print(f"    measured {k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
