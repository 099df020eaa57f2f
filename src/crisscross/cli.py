"""Command-line entry point.

Subcommands: bench, gradcheck, reach, attn-dump, train-toy, selftest.
Exit codes: 0 success, 1 verification failure, 2 usage error. The CC_SEED
environment variable, an integer >= 0, overrides the default seed everywhere.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .cca2d import CCAttentionParams, attention_mass, rcca_forward
from .costmodel import WorkloadSpec, flops_cc2d, flops_cc3d, flops_nonlocal, render_report
from .gradcheck import DEFAULT_TOL, default_suite
from .losses import CCLConfig
from .oracles import crisscross_mask
from .selftest import influence, run_selftest
from .tensor_core import TensorFormatError, TensorLengthError, load_tensor
from .toytrain import EpochMetrics, gen_toy, train_toy

PAPER_GFLOPS = {1: 8.3, 2: 16.5, 3: 24.7}
PAPER_NL_GFLOPS = 108.0


def _at_least(minimum: int):
    """argparse type for an int flag that rejects values below ``minimum``."""
    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)
    return integer


_positive, _count = _at_least(1), _at_least(0)


def _tolerance(text: str) -> float:
    """argparse type for a finite positive float."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


def _out_path(text: str) -> str:
    """argparse type for an output path or prefix in an existing directory."""
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"directory of {text!r} does not exist")
    return text


def _default_seed() -> int:
    return _count(os.environ.get("CC_SEED", "0"))


def cmd_bench(args) -> int:
    if args.cred >= args.c:
        print(f"--cred {args.cred} must be < --c {args.c}", file=sys.stderr)
        return 2
    reports = []
    nl = flops_nonlocal(WorkloadSpec(h=args.h, w=args.w, c=args.c,
                                     c_reduced=args.cred))
    reports.append(nl)
    for r in range(1, args.loops + 1):
        rep = flops_cc2d(WorkloadSpec(h=args.h, w=args.w, c=args.c,
                                      c_reduced=args.cred, loops=r))
        rep.ratio_vs_nonlocal = rep.flops_total / nl.flops_total
        reports.append(rep)
    if args.t > 1:
        rep3 = flops_cc3d(WorkloadSpec(h=args.h, w=args.w, t=args.t, c=args.c,
                                       c_reduced=args.cred, loops=args.loops))
        rep3.ratio_vs_nonlocal = rep3.flops_total / nl.flops_total
        reports.append(rep3)
    print(render_report(reports, args.format), end="")
    if args.check_paper:
        misses = []
        if abs(nl.gflops - PAPER_NL_GFLOPS) / PAPER_NL_GFLOPS > 0.05:
            misses.append(f"NL {nl.gflops:.2f} vs {PAPER_NL_GFLOPS}")
        for r, target in PAPER_GFLOPS.items():
            got = flops_cc2d(WorkloadSpec(h=args.h, w=args.w, c=args.c,
                                          c_reduced=args.cred, loops=r)).gflops
            if abs(got - target) / target > 0.05:
                misses.append(f"RCCA(R={r}) {got:.2f} vs {target}")
        if misses:
            print("paper check FAILED: " + "; ".join(misses))
            return 1
        print("paper check passed: totals within 5% of reported values")
    return 0


def cmd_gradcheck(args) -> int:
    results = default_suite(seeds=args.seeds)
    failed = [r for r in results if not r.passed(args.tol)]
    for r in results:
        status = "ok " if r.passed(args.tol) else "FAIL"
        print(f"{status} {r.name}: max rel err {r.max_rel_err:.3e}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"(tolerance {args.tol:g})")
    if failed:
        worst = max(failed, key=lambda r: r.max_rel_err)
        print(f"worst offender: {worst.name} at {worst.worst_coordinate} "
              f"({worst.max_rel_err:.3e})")
        return 1
    return 0


def cmd_reach(args) -> int:
    if args.h > 8 or args.w > 8:
        print(f"grid {args.h}x{args.w} too large for complex-step "
              "influence scan (limit 8x8)", file=sys.stderr)
        return 2
    rng = np.random.default_rng(_default_seed())
    c = 3
    p = CCAttentionParams.random(c, 2, rng)
    x = rng.normal(0.0, 1.0, (c, args.h, args.w))
    pattern = influence(p, x, args.loops)
    print(f"grid {args.h}x{args.w}, loops {args.loops}: "
          f"influence density {pattern.density:.4f}")
    if args.loops == 1:
        expected = crisscross_mask(args.h, args.w)
        if not np.array_equal(pattern.mask, expected):
            print("FAIL: pattern differs from the criss-cross mask")
            return 1
        print(f"criss-cross-exact sparsity confirmed "
              f"({args.h + args.w - 1}/{args.h * args.w} per position)")
    else:
        if not pattern.mask.all():
            print("FAIL: pattern is not fully dense")
            return 1
        print("full-image reachability confirmed")
    return 0


def _write_pgm(path: str, values: np.ndarray) -> None:
    h, w = values.shape
    peak = float(values.max())
    scaled = np.zeros((h, w), dtype=np.uint8) if peak == 0 else \
        np.round(values / peak * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(scaled.tobytes())


def cmd_attn_dump(args) -> int:
    try:
        x = load_tensor(args.input)
    except (OSError, TensorFormatError, TensorLengthError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    if x.ndim != 3:
        print(f"attention dump needs a rank-3 tensor, got rank {x.ndim}",
              file=sys.stderr)
        return 2
    with np.errstate(over="ignore"):  # a value beyond float32 reads as inf below
        x = x.astype({"f32": np.float32, "f64": np.float64}[args.precision], copy=False)
    if not np.isfinite(x).all():
        print(f"{args.input} holds non-finite {args.precision} values", file=sys.stderr)
        return 2
    try:
        row, col = (int(v) for v in args.u.split(","))
    except ValueError:
        print(f"cannot parse position {args.u!r}, expected row,col",
              file=sys.stderr)
        return 2
    c, h, w = x.shape
    if not (0 <= row < h and 0 <= col < w):
        print(f"position ({row},{col}) outside {h}x{w} grid", file=sys.stderr)
        return 2
    if c < 2:
        print("need at least 2 channels to build attention parameters",
              file=sys.stderr)
        return 2
    rng = np.random.default_rng(_default_seed())
    p = CCAttentionParams.random(c, max(1, c // 2), rng)
    with np.errstate(over="ignore", invalid="ignore"):
        _out, cache = rcca_forward(x, p, args.loops)
    if not all(np.isfinite(rec.attn).all() for rec in cache.records):
        print(f"attention scores of {args.input} overflow {args.precision}", file=sys.stderr)
        return 2
    # the dump shows where attention mass comes from, not the identity path
    for loop, mass in enumerate(attention_mass(cache, (row, col)), start=1):
        _write_pgm(f"{args.out}_loop{loop}.pgm", mass)
        with open(f"{args.out}_loop{loop}.csv", "w") as f:
            f.writelines(",".join(f"{v:.12g}" for v in line) + "\r\n" for line in mass)
    print(f"wrote {args.loops} attention-mass maps for position "
          f"({row},{col}) to {args.out}_loop*.{{pgm,csv}}")
    return 0


def cmd_train_toy(args) -> int:
    cfg = CCLConfig(phi_variant=args.phi)
    use_ccl = args.ccl == "on"
    seeds = list(range(args.seed, args.seed + args.repeat))
    successes = 0
    rows = [EpochMetrics.CSV_HEADER]
    for s in seeds:
        task = gen_toy(s, n=2, h=12, w=12, k=3)
        result = train_toy(task, init_seed=s + 1000, epochs=args.epochs,
                           use_ccl=use_ccl, cfg=cfg)
        if not result.failed:
            successes += 1
        else:
            print(f"seed {s}: training failed at epoch {result.fail_epoch}",
                  file=sys.stderr)
        for m in result.metrics:
            rows.append(m.csv_row())
    text = "\r\n".join(rows) + "\r\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    if args.repeat > 1:
        print(f"success rate: {successes}/{len(seeds)}", file=sys.stderr)
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest()
    ok = True
    for r in results:
        status = "ok " if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        ok = ok and r.passed
    if not ok:
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"selftest FAILED: {failing}")
        return 1
    print("selftest passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisscross",
        description="Criss-cross attention verification and reporting tool")
    # global flags are accepted both before and after the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    for target, with_defaults in ((parser, True), (common, False)):
        target.add_argument(
            "--format", choices=("md", "csv"),
            default="md" if with_defaults else argparse.SUPPRESS,
            help="table output format")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", parents=[common],
                       help="analytic FLOP/memory cost tables")
    b.add_argument("--h", type=_positive, default=97)
    b.add_argument("--w", type=_positive, default=97)
    b.add_argument("--t", type=_positive, default=1)
    b.add_argument("--c", type=_positive, default=512)
    b.add_argument("--cred", type=_positive, default=64)
    b.add_argument("--loops", type=_positive, default=3)
    b.add_argument("--check-paper", action="store_true",
                   help="assert the reported 8.3/16.5/24.7/108 GFLOPs within 5%%")
    b.set_defaults(fn=cmd_bench)

    g = sub.add_parser("gradcheck", parents=[common], help="complex-step backward checks")
    g.add_argument("--seeds", type=_positive, default=3)
    g.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    g.set_defaults(fn=cmd_gradcheck)

    r = sub.add_parser("reach", parents=[common], help="information-propagation influence scan")
    r.add_argument("--h", type=_positive, default=4)
    r.add_argument("--w", type=_positive, default=5)
    r.add_argument("--loops", type=_positive, default=1)
    r.set_defaults(fn=cmd_reach)

    a = sub.add_parser("attn-dump", parents=[common], help="per-position attention mass maps")
    a.add_argument("--input", required=True, help="CCT1 tensor file (C,H,W)")
    a.add_argument("--u", required=True, help="target position row,col")
    a.add_argument("--loops", type=_positive, default=2)
    a.add_argument("--out", type=_out_path, required=True, help="output path prefix")
    a.add_argument("--precision", choices=("f32", "f64"), default="f64",
                   help="scalar width of the attention computation")
    a.set_defaults(fn=cmd_attn_dump)

    t = sub.add_parser("train-toy", parents=[common], help="toy synthetic segmentation training")
    t.add_argument("--seed", type=_count, default=_default_seed())
    t.add_argument("--epochs", type=_count, default=100)
    t.add_argument("--ccl", choices=("on", "off"), default="on")
    t.add_argument("--phi", choices=("piecewise", "quadratic"),
                   default="piecewise")
    t.add_argument("--out", type=_out_path, help="metrics CSV path (default stdout)")
    t.add_argument("--repeat", type=_positive, default=1,
                   help="run this many consecutive seeds and report the success rate")
    t.set_defaults(fn=cmd_train_toy)

    s = sub.add_parser("selftest", parents=[common], help="aggregate verification suites")
    s.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        _default_seed()
    except (ValueError, argparse.ArgumentTypeError):
        print(f"crisscross: error: CC_SEED must be an integer >= 0, "
              f"got {os.environ['CC_SEED']!r}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
