"""Command-line front end.

Subcommands:
  select    gated stepwise run; stops at the first gate failure
  rank      exhaustive run; ranks every covariate with its step P-value
  perturb   rank the original and a perturbed copy, show both + order diff
  simulate  Monte Carlo null-calibration / noise-law experiments

Datasets are either one of the packaged names (prostate, birthweight) or a
CSV path with a JSON manifest (defaults to <data>.manifest.json next to
it). Tables round to 4 decimals; --format json emits full precision and
round-trips into the library's record types. Exit codes: 0 success,
1 computational error, 2 usage error.
"""

import argparse
import json
import sys

from .dataio import BUILTIN_DATASETS, load_builtin, load_csv, load_manifest, perturb_response
from .errors import StepgateError
from .rho import RhoFunction
from .simlab import SimConfig, noise_reduction_distribution, null_calibration
from .stepper import GateConfig, run_stepwise

import numpy as np

__all__ = ["main"]


def _positive_int(text):
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return v


def _nonneg_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return v


def _perturb_spec(text):
    try:
        idx, val = text.split("=", 1)
        return int(idx), float(val)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INDEX=VALUE (e.g. 1=10), got {text!r}"
        ) from None


def _add_run_flags(p):
    p.add_argument("dataset", help=f"builtin name {BUILTIN_DATASETS} or a CSV path")
    p.add_argument("--manifest", help="manifest path (default: <dataset>.manifest.json)")
    p.add_argument("--method", choices=("l2", "m"), default="l2")
    p.add_argument("--alpha", type=float, default=0.05, help="gate level (default 0.05)")
    p.add_argument("--c", type=float, default=1.0, help="rho tuning constant (M method)")
    p.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--max-steps", type=_nonneg_int, default=None)
    p.add_argument("--sigma", type=float, default=None,
                   help="fixed scale override for the M method (debugging only)")
    p.add_argument("--format", choices=("table", "json"), default="table")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepgate",
        description="Noise-gated forward stepwise regression.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("select", help="stepwise selection, stop at first gate failure")
    _add_run_flags(p)
    p.set_defaults(func=cmd_run, exhaustive=False)

    p = sub.add_parser("rank", help="rank all covariates (continue past gate failures)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_run, exhaustive=True)

    p = sub.add_parser("perturb", help="compare runs on original vs perturbed response")
    _add_run_flags(p)
    p.add_argument("--perturb", type=_perturb_spec, required=True, metavar="INDEX=VALUE",
                   help="1-based response index and replacement value")
    p.set_defaults(func=cmd_perturb, exhaustive=True)

    p = sub.add_parser("simulate", help="Monte Carlo gate diagnostics")
    p.add_argument("--experiment", choices=("null", "noise"), required=True,
                   help="null: all-noise gate calibration; noise: one-column reduction law")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, default=None,
                   help="candidate count (null experiment only)")
    p.add_argument("--reps", type=_positive_int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--method", choices=("l2", "m"), default="l2")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_simulate)

    return parser


def _load(args, parser):
    if args.dataset in BUILTIN_DATASETS:
        if args.manifest is not None:
            parser.error("--manifest cannot be combined with a builtin dataset name")
        return load_builtin(args.dataset)[0]
    manifest_path = args.manifest
    if manifest_path is None:
        base = args.dataset[:-4] if args.dataset.endswith(".csv") else args.dataset
        manifest_path = base + ".manifest.json"
    try:
        manifest = load_manifest(manifest_path)
        return load_csv(args.dataset, manifest)
    except OSError as e:
        parser.error(str(e))  # missing files are usage errors (exit 2)


def _config(args):
    return GateConfig(
        alpha=args.alpha,
        method=args.method,
        rho=RhoFunction("logistic", args.c),
        intercept=args.intercept,
        standardize=args.standardize,
        max_steps=args.max_steps,
        exhaustive=args.exhaustive,
        sigma_override=args.sigma,
    )


def _fmt(v):
    return "-" if v is None else f"{v:.4f}"


def _trace_table(trace):
    lines = []
    show_sigma = trace.config.method == "m"
    header = ["step", "covariate", "k0", "statistic", "p-value"]
    if show_sigma:
        header.append("sigma")
    header.append("included")
    rows = []
    for ev in trace.evaluations:
        row = [str(ev.step_index), ev.chosen_covariate, str(ev.k0),
               _fmt(ev.statistic), _fmt(ev.p_value)]
        if show_sigma:
            row.append(_fmt(ev.sigma))
        row.append("yes" if ev.included else "no")
        rows.append(row)
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    lines.append("selected: " + (", ".join(trace.selected) if trace.selected else "(none)"))
    lines.append(f"termination: {trace.termination_reason}")
    return "\n".join(lines)


def _emit_trace(trace, fmt):
    if fmt == "json":
        print(json.dumps(trace.to_dict(), indent=2))
    else:
        print(_trace_table(trace))


def cmd_run(args, parser=None):
    dataset = _load(args, parser)
    trace = run_stepwise(dataset, _config(args))
    _emit_trace(trace, args.format)
    return 0


def _order_diff(before, after):
    diffs = []
    order_a = [e.chosen_covariate for e in before.evaluations]
    order_b = [e.chosen_covariate for e in after.evaluations]
    for i in range(max(len(order_a), len(order_b))):
        a = order_a[i] if i < len(order_a) else "-"
        b = order_b[i] if i < len(order_b) else "-"
        if a != b:
            diffs.append({"position": i + 1, "original": a, "perturbed": b})
    return diffs


def cmd_perturb(args, parser=None):
    dataset = _load(args, parser)
    index, value = args.perturb
    perturbed = perturb_response(dataset, index, value)
    config = _config(args)
    before = run_stepwise(dataset, config)
    after = run_stepwise(perturbed, config)
    diffs = _order_diff(before, after)
    if args.format == "json":
        print(json.dumps({
            "perturbation": {"index": index, "value": value},
            "original": before.to_dict(),
            "perturbed": after.to_dict(),
            "order_diff": diffs,
        }, indent=2))
    else:
        print("=== original ===")
        print(_trace_table(before))
        print(f"=== perturbed: y({index}) = {value:g} ===")
        print(_trace_table(after))
        if diffs:
            print("order diff:")
            for d in diffs:
                print(f"  position {d['position']}: {d['original']} -> {d['perturbed']}")
        else:
            print("order diff: none (inclusion orders identical)")
    return 0


def cmd_simulate(args, parser=None):
    if args.experiment == "null":
        if args.k is None:
            parser.error("the null experiment requires --k")
        config = SimConfig(n=args.n, k=args.k, replications=args.reps,
                           alpha=args.alpha, seed=args.seed, method=args.method)
        report = null_calibration(config)
    else:
        if args.k is not None:
            parser.error("the noise experiment appends exactly one column; drop --k")
        if args.method != "l2":
            parser.error("the noise experiment measures the l2 statistic; drop --method")
        config = SimConfig(n=args.n, k=1, replications=args.reps,
                           alpha=args.alpha, seed=args.seed, method=args.method)
        report = noise_reduction_distribution(config, np.ones((args.n, 1)))
    if args.format == "json":
        print(json.dumps({
            "experiment": args.experiment,
            "config": config.to_dict(),
            "report": report.to_dict(),
        }, indent=2))
    else:
        print(f"experiment: {args.experiment}")
        print(f"replications: {report.replication_count}")
        print(f"inclusion_rate: {report.inclusion_rate:.4f}")
        print(f"ks_distance_chisq: {report.ks_distance_chisq:.4f}")
        print("p_value_histogram (20 bins on [0,1]):")
        print("  " + " ".join(str(c) for c in report.p_value_histogram))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except StepgateError as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
