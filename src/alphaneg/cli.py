"""Command-line front end.

Exit codes: 0 success, 1 reproduction mismatch, 2 invalid input,
3 non-convergence (value still printed), 4 out-of-domain parameters.
Commands raise on bad input; ``main`` alone turns an error into its exit code
and one ``error: ...`` line on standard error.  Every sweep CSV gets a sibling
``<name>.manifest.json`` recording the command, inputs, config overrides, wall
clock and tool version, so a CSV can be regenerated bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .divergence import check_alpha, log_negativity
from .errors import AlphanegError, NotConvergedError, OutOfDomainError
from .channels import channel_e_alpha, load_channel, werner_holevo_channel, werner_holevo_value
from .linalg import BipartitionDims
from .pptgeom import project_ppt
from .solver import SolverConfig, alpha_sweep, audit_monotonicity, e_alpha
from .states import (
    load_state,
    max_entangled,
    no_convexity_fixture,
    no_monogamy_fixture,
    one_vs_rest,
    random_state,
    save_state,
    tripartite_marginal,
)
from .suites import run_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_UNCONVERGED = 3
EXIT_OUT_OF_DOMAIN = 4


def _fmt(value: float, precision: int) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.{precision}f}"


def _config_from_args(args) -> SolverConfig:
    overrides = {}
    if getattr(args, "tol", None) is not None:
        overrides["value_tol"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        overrides["max_iter"] = args.max_iter
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(SolverConfig(), **overrides)


def _overrides_dict(args) -> dict:
    out = {}
    for key in ("tol", "max_iter"):
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def non_negative_int(text: str) -> int:
    """``--precision``: a count of printed decimal places."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _parse_alpha(text: str) -> float:
    if text.lower() in ("inf", "infinity", "max"):
        return math.inf
    return float(text)


def _sweep_orders(args) -> list[float]:
    """Ascending orders from ``--alphas`` (sorted) or ``--grid lo:hi:n``;
    ValueError when the list is malformed, the grid descends or is empty."""
    if args.alphas:
        return sorted(_parse_alpha(a) for a in args.alphas.split(","))
    if not args.grid:
        raise ValueError("one of --alphas or --grid is required")
    try:
        lo, hi, n = args.grid.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"bad grid spec {args.grid!r}, expected lo:hi:n ({exc})") from exc
    if not (lo <= hi and n >= 1):
        raise ValueError(f"grid {args.grid!r} needs lo <= hi and n >= 1")
    return list(np.linspace(lo, hi, n))


def _write_manifest(out_path: Path, args, started: float, extra: dict | None = None) -> None:
    manifest = {
        "command": " ".join(sys.argv),
        "inputs": [str(getattr(args, "state", "")) or str(getattr(args, "channel", ""))],
        "config_overrides": _overrides_dict(args),
        "output": str(out_path),
        "wall_clock_seconds": round(time.time() - started, 3),
        "tool_version": __version__,
    }
    if extra:
        manifest.update(extra)
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=1), encoding="utf-8"
    )


def _print_result(result, precision: int) -> None:
    lo, hi = result.bracket
    print(f"value_bits: {_fmt(result.value_bits, precision)}")
    print(f"alpha: {result.alpha}")
    print(f"bracket: [{_fmt(lo, precision)}, {_fmt(hi, precision)}]")
    print(f"iterations: {result.iterations}")
    print(f"converged: {result.converged}")
    if result.diagnostic:
        print(f"diagnostic: {result.diagnostic}")


def cmd_compute(args) -> int:
    result = e_alpha(load_state(args.state), args.alpha, args.cfg)
    _print_result(result, args.precision)
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def cmd_sweep(args) -> int:
    started = time.time()
    state = load_state(args.state)
    alphas = [check_alpha(a) for a in _sweep_orders(args)]
    out_path = Path(args.out)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        results = alpha_sweep(state, alphas, args.cfg)
        writer = csv.writer(fh)
        writer.writerow(
            ["alpha", "value_bits", "e_n_lower", "e_kappa_upper", "iterations", "converged"]
        )
        for r in results:
            writer.writerow(
                [
                    r.alpha,
                    f"{r.value_bits:.12g}",
                    f"{r.bracket[0]:.12g}",
                    f"{r.bracket[1]:.12g}" if not math.isinf(r.bracket[1]) else "inf",
                    r.iterations,
                    int(r.converged),
                ]
            )
    _write_manifest(out_path, args, started, {"alphas": [str(a) for a in alphas]})
    violations = audit_monotonicity(results, args.cfg.value_tol)
    if violations:
        print(
            f"ordering audit: {len(violations)} violation(s) at row pairs {violations}",
            file=sys.stderr,
        )
    else:
        print(f"ordering audit: {len(results)} rows monotone within tolerance", file=sys.stderr)
    if any(not r.converged for r in results):
        return EXIT_UNCONVERGED
    return EXIT_OK


def cmd_project(args) -> int:
    loaded = load_state(args.state, raw=args.raw)
    if args.raw:
        dims, matrix = loaded
    else:
        dims, matrix = loaded.dims, loaded.matrix
    try:
        projected = project_ppt(matrix, dims)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED
    out = args.out or (str(args.state) + ".projected.json")
    save_state(out, projected)
    print(f"projected state written to {out}")
    return EXIT_OK


def cmd_channel(args) -> int:
    if args.family:
        name, _, rest = args.family.partition(":")
        if name != "wh":
            raise OutOfDomainError(f"unknown channel family {name!r}")
        params = [float(x) for x in rest.split(",")] if rest else []
        if len(params) != 2 or not params[1].is_integer():
            raise OutOfDomainError("family wh takes p,d with d a finite integer")
        value = werner_holevo_value(params[0], int(params[1]))
        print(f"value_bits: {_fmt(value, args.precision)}")
        return EXIT_OK
    if not args.channel:
        raise ValueError("a channel file or --family is required")
    channel = load_channel(args.channel)
    value, details = channel_e_alpha(channel, args.alpha, args.cfg, with_details=True)
    print(f"value_bits: {_fmt(value, args.precision)}")
    if details["dispersion_flag"]:
        print(
            f"warning: restart dispersion {details['dispersion']:.3g} exceeds tolerance",
            file=sys.stderr,
        )
    return EXIT_OK


def _repro_table(rows, precision: int) -> int:
    width = max(len(r[0]) for r in rows) + 2
    failures = 0
    for name, computed, expected, tolerance in rows:
        ok = abs(computed - expected) <= tolerance
        failures += 0 if ok else 1
        print(
            f"{name:<{width}} computed={_fmt(computed, precision)} "
            f"expected={_fmt(expected, precision)} "
            f"tol={tolerance:g} [{'PASS' if ok else 'FAIL'}]"
        )
    return failures


def cmd_repro(args) -> int:
    cfg = dataclasses.replace(args.cfg, with_bracket=False)
    precision = args.precision
    alphas = (1.0, 2.0, math.inf)
    failures = 0

    if args.name == "no-convexity":
        rho1, rho2, mixed = no_convexity_fixture()
        rows, margins = [], []
        for alpha in alphas:
            ent, sep, mix = (e_alpha(r, alpha, cfg).value_bits for r in (rho1, rho2, mixed))
            rows.append((f"entangled, order {alpha}", ent, 1.0, 1e-4))
            rows.append((f"separable, order {alpha}", sep, 0.0, 1e-4))
            rows.append((f"mixture, order {alpha}", mix, math.log2(1.5), 1e-4))
            margins.append(mix - (ent + sep) / 2)
        failures += _repro_table(rows, precision)
        margin = min(margins)
        print(f"convexity violation margin: {margin:.6f} bits (> 0.08 required)")
        if margin <= 0.08:
            failures += 1

    elif args.name == "no-monogamy":
        psi = no_monogamy_fixture()
        ab = tripartite_marginal(psi, (0, 1))
        ac = tripartite_marginal(psi, (0, 2))
        whole = one_vs_rest(psi, 0)
        for alpha in alphas:
            total = e_alpha(ab, alpha, cfg).value_bits + e_alpha(ac, alpha, cfg).value_bits
            big = e_alpha(whole, alpha, cfg).value_bits
            margin = total - big
            ok = margin > 0.01
            failures += 0 if ok else 1
            print(
                f"order {alpha}: split-sum={_fmt(total, precision)} "
                f"joint={_fmt(big, precision)} margin={_fmt(margin, precision)} "
                f"[{'PASS' if ok else 'FAIL'}]"
            )

    elif args.name == "normalization":
        rows = []
        for d in (2, 3):
            phi = max_entangled(d)
            for alpha in alphas:
                rows.append(
                    (f"d={d}, order {alpha}", e_alpha(phi, alpha, cfg).value_bits, math.log2(d), 1e-4)
                )
        failures += _repro_table(rows, precision)

    elif args.name == "two-qubit-collapse":
        worst = 0.0
        for i in range(10):
            rho = random_state(BipartitionDims(2, 2), rank=(i % 4) + 1, seed=cfg.seed + 17 * i)
            en = log_negativity(rho)
            gap = abs(e_alpha(rho, 2.0, cfg).value_bits - en)
            worst = max(worst, gap)
        ok = worst < 1e-4
        print(f"max |order-2 minus order-1| over 10 seeded two-qubit states: {worst:.2e} "
              f"[{'PASS' if ok else 'FAIL'}]")
        failures += 0 if ok else 1

    elif args.name == "werner-holevo":
        rows = []
        for d in (2, 3):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                channel = werner_holevo_channel(p, d)
                computed = channel_e_alpha(channel, 1.0, dataclasses.replace(cfg, restarts=4))
                rows.append((f"d={d}, p={p}, order 1", computed, werner_holevo_value(p, d), 5e-3))
        for p in (0.5, 0.75, 1.0):
            channel = werner_holevo_channel(p, 2)
            computed = channel_e_alpha(channel, 2.0, dataclasses.replace(cfg, restarts=4))
            rows.append((f"d=2, p={p}, order 2", computed, werner_holevo_value(p, 2), 5e-3))
        failures += _repro_table(rows, precision)

    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_check(args) -> int:
    reports = run_suite(args.suite, args.cfg.seed, args.cfg, smoke=args.smoke)
    failed = 0
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.name:<28} checks={rep.checked:<6} violations={rep.violations:<4} "
            f"worst_slack={rep.worst_slack:+.3e} [{status}]"
        )
        failed += 0 if rep.passed else 1
    print(f"{len(reports) - failed}/{len(reports)} batteries passed")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaneg",
        description="Entanglement measures interpolating between the "
        "logarithmic negativity and its semidefinite max endpoint.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_alpha=False, seed=True, max_iter=True):
        if seed:
            p.add_argument("--seed", type=int, default=None, help="solver seed")
        p.add_argument("--tol", type=float, default=None, help="value tolerance in bits")
        if max_iter:
            p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        if with_alpha:
            p.add_argument("--alpha", type=_parse_alpha, default=2.0, help="order in [1, inf]")

    p = sub.add_parser("compute", help="measure value of a state file")
    p.add_argument("state", type=Path)
    common(p, with_alpha=True, seed=False)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("kappa", help="semidefinite max endpoint of a state file")
    p.add_argument("state", type=Path)
    common(p, seed=False, max_iter=False)
    p.set_defaults(func=cmd_compute, alpha=math.inf)

    p = sub.add_parser("sweep", help="values over a grid of orders, to CSV")
    p.add_argument("state", type=Path)
    common(p, seed=False)
    p.add_argument("--alphas", default=None, help="comma list, e.g. 1,1.5,2,inf")
    p.add_argument("--grid", default=None, help="lo:hi:n linear grid")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("project", help="nearest PPT state to a (possibly raw) operator file")
    p.add_argument("state", type=Path)
    p.add_argument("--raw", action="store_true", help="accept any Hermitian operator")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("channel", help="channel measure (file or closed-form family)")
    p.add_argument("channel", nargs="?", type=Path)
    common(p, with_alpha=True)
    p.add_argument(
        "--family",
        default=None,
        help="wh:p,d",
    )
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("repro", help="reproduce a named headline computation")
    p.add_argument(
        "name",
        choices=[
            "no-convexity",
            "no-monogamy",
            "normalization",
            "two-qubit-collapse",
            "werner-holevo",
        ],
    )
    common(p)
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", required=True, help="lemmas | ordering | monotonicity | subadditivity | faithfulness | all")
    p.add_argument("--smoke", action="store_true", help="reduced instance counts")
    common(p)
    p.set_defaults(func=cmd_check)

    for name in ("compute", "kappa", "channel", "repro"):
        sub.choices[name].add_argument(
            "--precision", type=non_negative_int, default=6, help="printed decimal places"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.cfg = _config_from_args(args)
        return args.func(args)
    except OutOfDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_DOMAIN
    except (AlphanegError, OSError, ValueError) as exc:
        # ValueError: a file that is not UTF-8 JSON, or a rejected SolverConfig
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
