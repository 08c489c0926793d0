"""Command-line interface.

Subcommands: construct, verify, bound, optimize, atlas.  Code files go to
stdout (or --out); human-readable summaries go to stderr so stdout stays
pipeable.  Exit codes are a stable contract: 0 certified, 1 verification
failed, 2 bad input, 3 infeasible or unsupported parameters, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import io
from .atlas import best_exact, best_known, circle_code, find_ssc, o2_code, o2_solution
from .bounds import orthoplex_bound, orthoplex_cap, radon_hurwitz, simplex_bound, simplex_cap
from .core import Field, StiefelCode
from .designs import builtin_design, find_resolution, load_design_file
from .errors import (
    BudgetExceeded,
    InfeasibleParameters,
    InvalidParameter,
    NoKnownConstruction,
    NotAnSSC,
    NumericalFailure,
    ParameterMismatch,
    SchemaError,
    UnknownDesign,
    UnsupportedDimension,
    UnsupportedResidue,
    WrongField,
)
from .optimize import OptimizerConfig, optimize
from .orthoplex import soc_complex_orbit, soc_real_hadamard
from .simplex import (
    ssc_from_bibd,
    ssc_kronecker,
    ssc_pad_row,
    ssc_radon_hurwitz,
    ssc_realify,
    ssc_regular_representation,
    ssc_sphere,
    ssc_symplectic_lift,
)
from .verify import Classification, certify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# The exit code of each error a command can raise, looked up along the
# exception's MRO.  Anything else is a bug and keeps its traceback.
_EXIT_CODES = {
    InvalidParameter: EXIT_BAD_INPUT,
    ParameterMismatch: EXIT_BAD_INPUT,
    SchemaError: EXIT_BAD_INPUT,
    UnknownDesign: EXIT_BAD_INPUT,
    WrongField: EXIT_BAD_INPUT,
    NotAnSSC: EXIT_BAD_INPUT,
    OSError: EXIT_BAD_INPUT,
    json.JSONDecodeError: EXIT_BAD_INPUT,
    UnicodeDecodeError: EXIT_BAD_INPUT,
    InfeasibleParameters: EXIT_INFEASIBLE,
    UnsupportedResidue: EXIT_INFEASIBLE,
    UnsupportedDimension: EXIT_INFEASIBLE,
    NoKnownConstruction: EXIT_INFEASIBLE,
    BudgetExceeded: EXIT_INFEASIBLE,
    NumericalFailure: EXIT_NUMERICAL,
}

METHODS = (
    "sphere",
    "radon-hurwitz",
    "regular-rep",
    "symplectic",
    "bibd",
    "orbit",
    "hadamard",
    "pad",
    "kronecker",
    "realify",
    "auto",
)


def _err(msg: str) -> None:
    print(f"stiefelcodes: {msg}", file=sys.stderr)


def _emit_code(args, code: StiefelCode, metadata: dict) -> None:
    text = io.dumps_code(code, metadata)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _load_design(source: str):
    if source.startswith("builtin:"):
        return builtin_design(source[len("builtin:") :])
    design, res = load_design_file(source)
    if res is None:
        res = find_resolution(design)
        if res is None:
            raise InfeasibleParameters(f"design file {source} admits no resolution")
    return design, res


def _load_seed(args) -> StiefelCode:
    if not args.seed_code:
        raise InvalidParameter(f"--method {args.method} needs --seed-code FILE")
    code, _meta = io.read_code_file(args.seed_code)
    return code


def _load_hr_generators(args):
    if not args.hr_file:
        return None
    with open(args.hr_file, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    try:
        return [
            np.array([[complex(entry[0], entry[1]) for entry in row] for row in mat])
            for mat in data
        ]
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise SchemaError(
            f"{args.hr_file}: expected a list of matrices of [re, im] pairs ({exc})"
        ) from exc


def _build(args, field: Field):
    """Run the selected construction; returns (code, claimed classes, provenance)."""
    ssc = {Classification.SSC}
    soc = {Classification.SOC}
    method = args.method
    if method == "sphere":
        return ssc_sphere(field, args.d, args.n), ssc, "ssc_sphere"
    if method == "radon-hurwitz":
        gens = _load_hr_generators(args)
        return ssc_radon_hurwitz(field, args.d, args.n, generators=gens), ssc, "ssc_radon_hurwitz"
    if method == "regular-rep":
        if field is not Field.REAL:
            raise InvalidParameter("regular-rep builds real codes; use --field R")
        return ssc_regular_representation(args.d), ssc, "ssc_regular_representation"
    if method == "symplectic":
        return ssc_symplectic_lift(field, args.d, args.n), ssc, "ssc_symplectic_lift"
    if method == "bibd":
        if not args.design:
            raise InvalidParameter("--method bibd needs --design FILE|builtin:NAME")
        design, res = _load_design(args.design)
        if args.seed_code:
            seed = _load_seed(args)
            prov = f"ssc_from_bibd({args.design}, file)"
        else:
            sub_d, sub_r = args.d // design.b, args.r // design.rep
            if args.d % design.b or args.r % design.rep or not sub_d >= sub_r >= 1:
                raise InvalidParameter(
                    f"design {args.design} needs a seed key (d/{design.b}, r/{design.rep},"
                    f" {design.k}) of whole numbers with d/{design.b} >= r/{design.rep} >= 1,"
                    f" got ({args.d}/{design.b}, {args.r}/{design.rep}, {design.k})"
                )
            found = find_ssc(field, sub_d, sub_r, design.k)
            if found is None:
                raise InfeasibleParameters(f"no seed ({sub_d}, {sub_r}, {design.k})-SSC available")
            seed, sub = found
            prov = f"ssc_from_bibd({args.design}, {sub})"
        return ssc_from_bibd(seed, design, res), ssc, prov
    if method == "orbit":
        if field is not Field.COMPLEX:
            raise InvalidParameter("orbit builds complex codes; use --field C")
        return soc_complex_orbit(args.d, args.r, args.n), soc, "soc_complex_orbit"
    if method == "hadamard":
        if field is not Field.REAL:
            raise InvalidParameter("hadamard builds real codes; use --field R")
        return soc_real_hadamard(args.d, args.r), soc, "soc_real_hadamard"
    if method == "pad":
        return ssc_pad_row(_load_seed(args)), ssc, "ssc_pad_row"
    if method == "kronecker":
        if args.k is None:
            raise InvalidParameter("--method kronecker needs --k INT")
        return ssc_kronecker(_load_seed(args), args.k), ssc, f"ssc_kronecker(k={args.k})"
    if method == "realify":
        return ssc_realify(_load_seed(args)), ssc, "ssc_realify"
    # auto: best exact construction, no optimizer fallback
    found = best_exact(field, args.d, args.r, args.n)
    if found is None:
        raise InfeasibleParameters(
            f"no implemented construction for ({field}, {args.d}, {args.r}, {args.n})"
        )
    code, report, prov = found
    return code, {report.classification}, prov


def cmd_construct(args) -> int:
    field = Field(args.field)
    code, claimed, provenance = _build(args, field)
    if (code.field, code.d, code.r, code.n) != (field, args.d, args.r, args.n):
        _err(
            f"method {args.method} produced ({code.field}, {code.d}, {code.r}, n={code.n}), "
            f"not the requested ({field}, {args.d}, {args.r}, n={args.n})"
        )
        return EXIT_BAD_INPUT
    report = certify(code)
    metadata = {
        "construction": provenance,
        "method": args.method,
        "classification": report.classification.value,
    }
    _emit_code(args, code, metadata)
    _err(
        f"({field}, d={code.d}, r={code.r}, n={code.n}) via {provenance}: "
        f"min distance {report.min_distance:.12g}, {report.classification.value}"
    )
    if report.classification not in claimed:
        _err(f"certification {report.classification.value} does not match the method's claim")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    code, _meta = io.read_code_file(args.file)
    report = certify(code, tol=args.tol)
    sys.stdout.write(io.render_json(report.to_dict()) + "\n")
    if report.classification in (Classification.SSC, Classification.SOC):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def cmd_bound(args) -> int:
    field = Field(args.field)
    rho = radon_hurwitz(field, args.d)
    scap = simplex_cap(field, args.d, args.r)
    ocap = orthoplex_cap(field, args.d, args.r)
    obound = orthoplex_bound(args.r)
    if args.n is not None:
        ns = [args.n]
    elif args.n_range is not None:
        lo, hi = args.n_range
        ns = list(range(lo, hi + 1))
    else:
        ns = []
    rows = [
        {"n": n, "simplex_bound": simplex_bound(args.r, n), "orthoplex_bound": obound}
        for n in ns
    ]
    if args.json:
        payload = {
            "field": field.value,
            "d": args.d,
            "r": args.r,
            "rho": rho,
            "simplex_cap": scap,
            "orthoplex_cap": ocap,
            "rows": rows,
        }
        sys.stdout.write(io.render_json(payload) + "\n")
        return EXIT_OK
    print(f"field {field}  d={args.d}  r={args.r}")
    print(f"rho_F(d) = {rho}   simplex cap mdr+1 = {scap}   orthoplex cap 2mdr = {ocap}")
    if rows:
        print(f"{'n':>6}  {'simplex_bound':>16}  {'orthoplex_bound':>16}")
        for row in rows:
            print(f"{row['n']:>6}  {row['simplex_bound']:>16.12g}  {row['orthoplex_bound']:>16.12g}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    field = Field(args.field)
    config = OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    code, report = optimize(field, args.d, args.r, args.n, config=config)
    metadata = {"construction": "optimizer(putative)", "config": dataclasses.asdict(config)}
    _emit_code(args, code, metadata)
    _err(
        f"optimize ({field}, d={args.d}, r={args.r}, n={args.n}): "
        f"min distance {report.min_distance:.12g}, {report.classification.value}"
    )
    return EXIT_OK


def cmd_atlas(args) -> int:
    if args.atlas_cmd == "o2-table":
        rows = []
        for n in range(2, args.max_n + 1):
            sol = o2_solution(n)
            rows.append(
                {
                    "n": n,
                    "k": sol.k,
                    "a": sol.split[0],
                    "b": sol.split[1],
                    "min_distance": sol.min_distance,
                }
            )
        if args.json:
            sys.stdout.write(io.render_json(rows) + "\n")
        else:
            print(f"{'n':>5} {'k_n':>5} {'split':>9} {'min_distance':>15}")
            for row in rows:
                split = "({},{})".format(row["a"], row["b"])
                print(f"{row['n']:>5} {row['k']:>5} {split:>9} {row['min_distance']:>15.12g}")
        return EXIT_OK
    if args.atlas_cmd == "o2":
        code = o2_code(args.n)
        report = certify(code)
        sol = o2_solution(args.n)
        _emit_code(args, code, {"construction": "o2_code", "k": sol.k, "split": list(sol.split)})
        _err(f"o2 n={args.n}: k={sol.k}, min distance {report.min_distance:.12g}")
        return EXIT_OK
    if args.atlas_cmd == "circle":
        code = circle_code(args.n)
        report = certify(code)
        _emit_code(args, code, {"construction": "circle_code"})
        _err(f"circle n={args.n}: min distance {report.min_distance:.12g}")
        return EXIT_OK
    # best
    field = Field(args.field)
    code, report, provenance = best_known(field, args.d, args.r, args.n)
    _emit_code(args, code, {"construction": provenance, "classification": report.classification.value})
    _err(
        f"best ({field}, d={args.d}, r={args.r}, n={args.n}) via {provenance}: "
        f"min distance {report.min_distance:.12g}, {report.classification.value}"
    )
    return EXIT_OK


def _add_params(p, n_required=True):
    p.add_argument("--field", required=True, choices=["R", "C"])
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--r", required=True, type=int)
    if n_required:
        p.add_argument("--n", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefelcodes",
        description="Construct, certify, and search for optimal codes in Stiefel manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code by a named construction")
    _add_params(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--design", help="design file path or builtin:NAME")
    p.add_argument("--seed-code", help="code file used as construction input")
    p.add_argument("--k", type=int, help="Kronecker inflation factor")
    p.add_argument("--hr-file", help="JSON file with extra Hurwitz-Radon generators")
    p.add_argument("--out", help="write the code file here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="certify a code file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="print bound values and caps")
    p.add_argument("--field", required=True, choices=["R", "C"])
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", nargs=2, type=int, metavar=("LO", "HI"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("optimize", help="numerical max-min search")
    _add_params(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--out", help="write the code file here instead of stdout")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("atlas", help="closed-form optimal codes in low dimensions")
    asub = p.add_subparsers(dest="atlas_cmd", required=True)

    q = asub.add_parser("o2", help="optimal code in O(2)")
    q.add_argument("--n", required=True, type=int)
    q.add_argument("--out")
    q.set_defaults(func=cmd_atlas)

    q = asub.add_parser("o2-table", help="table of k_n values")
    q.add_argument("--max-n", required=True, type=int)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_atlas)

    q = asub.add_parser("circle", help="uniformly spaced points on the circle")
    q.add_argument("--n", required=True, type=int)
    q.add_argument("--out")
    q.set_defaults(func=cmd_atlas)

    q = asub.add_parser("best", help="best implemented construction")
    _add_params(q)
    q.add_argument("--out")
    q.set_defaults(func=cmd_atlas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        _err(str(exc))
        return next(_EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in _EXIT_CODES)


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
