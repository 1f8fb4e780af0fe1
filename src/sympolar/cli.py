"""Command-line surface for reproduction runs and ad-hoc queries.

Every value is printed as an exact rational "p/q" with a float rendering in
parentheses; the effective configuration of each run is echoed to stderr as
one JSON line.  Exit codes: 0 success, 2 usage, 3 malformed input file,
4 search budget exhausted, 5 domain/precondition error, 1 unexpected.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction
from pathlib import Path

from sympolar import __version__
from sympolar.capacity import (
    CapacityCertificate,
    DEFAULT_MAX_CONFIGS,
    FACET_NORMALS,
    VERTICES,
    CapacityError,
    SearchBudgetError,
    effective_support_bound,
    ehz_brute_force,
    evaluate_certificate,
    generator_base,
)
from sympolar.experiments import (
    batch_generate,
    enumerate_pm1,
    monotonicity_check,
    sequence_compare,
    sequence_viterbo_ratio,
)
from sympolar.geometry import shadow_area, volume
from sympolar.io import (
    MalformedInputError,
    atomic_write_text,
    read_certificate_fields,
    read_polytope,
    write_certificate,
    write_polytope,
)
from sympolar.suspension import power_suspend, suspend_halfspaces
from sympolar.symplectic import c_j, is_self_polar, symplectic_polar

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_BUDGET = 4
EXIT_DOMAIN = 5
EXIT_UNEXPECTED = 1

OUT_DIR_ENV = "SYMPOLAR_OUT_DIR"


def _rational(value: Fraction) -> str:
    return f"{value} ({float(value)!r})"


def _out_path(args, name: str) -> Path:
    base = Path(args.out_dir)
    path = Path(name)
    return path if path.is_absolute() else base / path


def _echo_config(args):
    config = {k: str(v) for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)


def _write_polytope_out(args, poly, default_name: str) -> int:
    out = _out_path(args, args.out or default_name)
    write_polytope(out, poly)
    print(f"wrote {out} ({len(poly.rows)} vertices, dim {poly.dim})")
    return EXIT_OK


def _cmd_power_suspend(args) -> int:
    return _write_polytope_out(args, power_suspend(args.n), f"p_suspension_{args.n}.json")


# subcommand -> (help, the body built from the input, default output suffix)
BODY_COMMANDS = {
    "suspend": ("suspension of a symmetric polytope file", suspend_halfspaces, ".suspended.json"),
    "sympolar": ("symplectic polar of a polytope file", symplectic_polar, ".sympolar.json"),
}

# subcommand -> (help, the value read off the input: a Fraction or a bool)
VALUE_COMMANDS = {
    "selfpolar-check": ("is the polytope symplectically self-polar?", is_self_polar),
    "volume": ("exact volume", volume),
    "cj": ("reciprocal of the peak form value over the polar", c_j),
    "shadow": ("area of the projection to the first two coordinates", shadow_area),
}


def _cmd_body(args) -> int:
    _, build, suffix = BODY_COMMANDS[args.command]
    poly = build(read_polytope(args.input))
    return _write_polytope_out(args, poly, Path(args.input).stem + suffix)


def _cmd_value(args) -> int:
    value = VALUE_COMMANDS[args.command][1](read_polytope(args.input))
    print(("true" if value else "false") if isinstance(value, bool) else _rational(value))
    return EXIT_OK


def _cmd_ehz(args) -> int:
    poly = read_polytope(args.input)
    # the search clamps its bound to the pair count m, so any bound >= m is complete
    bound = sys.maxsize if args.full else args.support_bound
    capacity, cert = ehz_brute_force(
        poly,
        bound,
        mode=args.mode,
        max_configs=args.budget,
    )
    print(_rational(capacity))
    m = len(cert.generators)
    effective = effective_support_bound(m, poly.dim, bound)
    if effective < m:
        print(
            f"note: support-bounded search (<= {effective} of {m} generator pairs); "
            f"the value is a certified upper bound, pass --full for the complete search"
        )
    cert_path = _out_path(args, args.cert or Path(args.input).stem + ".cert.json")
    write_certificate(cert_path, cert)
    print(f"certificate: {cert_path}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    poly = read_polytope(args.polytope)
    kind, indices, coeffs, objective = read_certificate_fields(args.certificate)
    cert = CapacityCertificate(
        kind=kind,
        indices=indices,
        coeffs=coeffs,
        objective=objective,
        generators=generator_base(poly, kind),
    )
    value = evaluate_certificate(poly, cert)
    if value != objective:
        raise CapacityError(
            f"stored objective {objective} does not match re-evaluation {value}"
        )
    if value <= 0:
        raise CapacityError(f"objective {value} is not positive and bounds nothing")
    print(f"objective {_rational(value)}")
    print(f"certified upper bound: c_EHZ <= {_rational(1 / value)}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    csv_path = _out_path(args, args.csv or f"generate_d{args.dim}_k{args.k}_s{args.seed}.csv")
    svg_path = _out_path(args, args.svg) if args.svg else None
    result = batch_generate(
        args.dim,
        args.k,
        args.runs,
        args.seed,
        max_iter=args.max_iter,
        csv_path=csv_path,
        svg_path=svg_path,
    )
    done = [r for r in result.records if r.self_polar]
    print(
        f"{len(done)}/{args.runs} runs reached a self-polar polytope; "
        f"csv: {csv_path}" + (f"; svg: {svg_path}" if svg_path and args.runs > 1 else "")
    )
    if result.min_volume is not None:
        print(
            f"min volume {_rational(result.min_volume)}; "
            f"min vertex count {result.min_vertex_count}"
        )
    if result.failures:
        print(f"failed runs: {[seed for seed, _ in result.failures]}")
    return EXIT_OK


def _cmd_enumerate_pm1(args) -> int:
    result = enumerate_pm1(args.dim, args.budget)
    rep_dir = _out_path(args, args.rep_dir or f"pm1_dim{args.dim}_reps")
    out = _out_path(args, args.out or f"pm1_dim{args.dim}.json")
    report = []
    for i, cls in enumerate(result.classes):
        rep_file = rep_dir / f"class_{cls.vertex_count}v_{cls.volume.numerator}_{cls.volume.denominator}.json"
        write_polytope(rep_file, cls.representative)
        report.append(
            {
                "vertices": cls.vertex_count,
                "volume": str(cls.volume),
                "count": cls.count,
                "representative_file": os.path.relpath(rep_file, out.parent),
            }
        )
        print(
            f"class {i}: {cls.vertex_count} vertices, volume {_rational(cls.volume)}, "
            f"{cls.count} cliques"
        )
    atomic_write_text(out, json.dumps(report, indent=1) + "\n")
    status = "complete" if result.complete else "PARTIAL (budget hit)"
    print(
        f"{result.cliques_seen} maximal cliques, {result.rejected} rejected; "
        f"{status}; report: {out}"
    )
    return EXIT_OK


def _cmd_sequences(args) -> int:
    if args.check is not None:
        report = monotonicity_check(args.kind, args.check)
        print(
            f"{args.kind}: strict growth up to n={report.n_checked}: "
            f"{'ok' if report.ok else f'FAILED at {report.failures}'}"
        )
        if report.anchor_ok is not None:
            print(f"cross-parity anchor: {'ok' if report.anchor_ok else 'FAILED'}")
        print(f"minimum value: {report.minimum}")
        print(
            f"asymptote at n={report.asymptote_n}: observed "
            f"{report.asymptote_observed:.6f}, target {report.asymptote_target:.6f}, "
            f"relative error {report.asymptote_rel_err:.2e} "
            f"({'ok' if report.asymptote_ok else 'FAILED'})"
        )
        return EXIT_OK if report.ok and report.asymptote_ok else EXIT_DOMAIN
    if args.kind == "compare":
        value = sequence_compare(args.n)
        print(f"{value} ({float(value)!r})")
    else:
        print(_rational(sequence_viterbo_ratio(args.n)))
    return EXIT_OK


def _cmd_table1(args) -> int:
    result = enumerate_pm1(4, args.budget)
    vertex_row = " | ".join(f"{cls.vertex_count:>5}" for cls in result.classes)
    volume_row = " | ".join(f"{str(cls.volume):>5}" for cls in result.classes)
    print(f"|V(K)| : {vertex_row}")
    print(f"vol K  : {volume_row}")
    if not result.complete:
        print("(partial enumeration: budget hit)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympolar",
        description="Exact toolkit for symplectically self-polar polytopes.",
    )
    parser.add_argument("--version", action="version", version=f"sympolar {__version__}")
    parser.add_argument(
        "--out-dir",
        default=os.environ.get(OUT_DIR_ENV, "."),
        help=f"directory for output artifacts (default: ${OUT_DIR_ENV} or '.')",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log search diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power-suspend", help="build the n-fold suspension of the hexagon")
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_power_suspend)

    for table, handler in ((BODY_COMMANDS, _cmd_body), (VALUE_COMMANDS, _cmd_value)):
        for name, (help_text, *_) in table.items():
            p = sub.add_parser(name, help=help_text)
            p.add_argument("input")
            if table is BODY_COMMANDS:
                p.add_argument("--out")
            p.set_defaults(func=handler)

    p = sub.add_parser("ehz", help="exact EHZ capacity with certificate")
    p.add_argument("input")
    p.add_argument("--mode", choices=[FACET_NORMALS, VERTICES], default=FACET_NORMALS)
    bound = p.add_mutually_exclusive_group()
    bound.add_argument("--support-bound", type=int, default=None)
    bound.add_argument("--full", action="store_true", help="search all support sizes")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_MAX_CONFIGS,
        help="most configurations to solve; supports pruned by the clique bound "
        "do not count, so an over-budget search fails after spending its budget",
    )
    p.add_argument("--cert", help="certificate output file")
    p.set_defaults(func=_cmd_ehz)

    p = sub.add_parser("generate", help="seeded random self-polar generation batch")
    p.add_argument("--dim", type=int, required=True, choices=[2, 4, 6])
    p.add_argument("--k", type=int, required=True, help="initial point count")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--max-iter", type=int, default=64)
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("enumerate-pm1", help="classify self-polar -1/0/1 polytopes")
    p.add_argument("--dim", type=int, required=True, choices=[2, 4, 6])
    p.add_argument("--budget", type=int, default=None, help="maximal clique budget (required for dim 6)")
    p.add_argument("--out", help="class report JSON")
    p.add_argument("--rep-dir", help="directory for representative polytopes")
    p.set_defaults(func=_cmd_enumerate_pm1)

    p = sub.add_parser("sequences", help="exact sequence values and monotonicity checks")
    p.add_argument("--kind", choices=["compare", "viterbo"], required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--check", type=int, default=None, help="run the strict-growth check up to N")
    p.set_defaults(func=_cmd_sequences)

    p = sub.add_parser("table1", help="dim-4 class table of self-polar -1/0/1 polytopes")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("certify", help="validate a capacity certificate against a polytope")
    p.add_argument("polytope")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_certify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    _echo_config(args)
    try:
        return args.func(args)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except SearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:  # GeometryError and CapacityError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
