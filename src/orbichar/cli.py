"""Command-line surface: load inputs, run computations, verify identities.

Exit codes: 0 on success/pass, 1 when a verified identity fails, 2 on
invalid input, 3 when a size cap is exceeded.  Reports are JSON with sorted
keys and exact fractions rendered as strings, so equal inputs always produce
byte-identical output.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from . import library, series
from .complexes import euler_characteristic
from .equivariant import (
    euler_satake,
    power_with_wreath_action,
    regularize,
    trivial_action,
)
from .errors import CapExceeded, InputError
from .hodge import hodge_product_check
from .homs import parse_presentation
from .sectors import gamma_sectors, iterate_sectors, product_sectors_check
from .wreath import (
    WreathProduct,
    all_types,
    centralizer_order_by_formula,
    classify_conjugacy_by_type,
)

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAP = 3

# Largest wreath group the centralizer table will cross-check element by
# element; the formula column has no such bound.
BRUTE_FORCE_ORDER_CAP = 20000


# ---------------------------------------------------------------------------
# commands


def cmd_euler(args) -> tuple[dict, int]:
    rec = library.load_equivariant(args.complex, args.group)
    pres = parse_presentation(args.gamma or "Z")
    decomp = gamma_sectors(rec, pres, cap=args.cap_homs)
    rep = decomp.report(rec.group)
    report = {
        "command": "euler",
        "complex": args.complex,
        "group_order": rec.group.order,
        "subdivision_rounds": rec.subdivision_rounds,
        "gamma": rep["gamma"],
        "sector_count": rep["sector_count"],
        "dropped_classes": rep["dropped_classes"],
        "chi_gamma_es": rep["chi_es"],
        "chi_gamma_top": rep["chi_top"],
        "sectors": rep["sectors"],
    }
    return report, EXIT_PASS


def cmd_wreath(args) -> tuple[dict, int]:
    base = library.builtin_group(args.group)
    n = args.n
    if n is None or n < 0:
        raise InputError("wreath commands need --n >= 0")
    wreath = WreathProduct(base, n)

    if args.what == "classes":
        rows = []
        for t in all_types(base, n):
            cent = centralizer_order_by_formula(base, n, t)
            rows.append(
                {
                    "type": t.to_json(base),
                    "centralizer_order": cent,
                    "class_size": wreath.order // cent,
                }
            )
        report = {
            "command": "wreath-classes",
            "group": args.group,
            "n": n,
            "wreath_order": wreath.order,
            "class_count": len(rows),
            "rows": rows,
        }
        return report, EXIT_PASS

    if args.what == "centralizers":
        if wreath.order > BRUTE_FORCE_ORDER_CAP:
            raise CapExceeded(
                f"wreath order {wreath.order} exceeds the brute-force"
                f" cross-check cap {BRUTE_FORCE_ORDER_CAP}"
            )
        by_type = classify_conjugacy_by_type(base, n)
        rows = []
        all_equal = True
        for t in all_types(base, n):
            formula = centralizer_order_by_formula(base, n, t)
            brute = wreath.order // len(by_type[t].members)
            equal = formula == brute
            all_equal = all_equal and equal
            rows.append(
                {
                    "type": t.to_json(base),
                    "centralizer_formula": formula,
                    "centralizer_bruteforce": brute,
                    "equal": equal,
                }
            )
        report = {
            "command": "wreath-centralizers",
            "group": args.group,
            "n": n,
            "wreath_order": wreath.order,
            "class_count": len(rows),
            "rows": rows,
            "pass": all_equal,
        }
        return report, EXIT_PASS if all_equal else EXIT_MISMATCH

    # euler: chi_ES of the n-th wreath power of the trivial action
    cx = library.builtin_complex(args.complex or "point")
    rec = regularize(trivial_action(cx, base))
    if n == 0:
        computed = Fraction(1)
    else:
        power, _ew = power_with_wreath_action(
            rec, n, simplex_cap=args.cap_simplices
        )
        computed = euler_satake(regularize(power))
    chi = euler_characteristic(cx)
    predicted = Fraction(chi**n, base.order**n * factorial(n))
    report = {
        "command": "wreath-euler",
        "group": args.group,
        "complex": args.complex or "point",
        "n": n,
        "chi_es": str(computed),
        "cover_formula": str(predicted),
        "pass": computed == predicted,
    }
    return report, EXIT_PASS if report["pass"] else EXIT_MISMATCH


def _series_kwargs(args):
    return {
        "simplex_cap": args.cap_simplices,
        "hom_cap": args.cap_homs,
    }


def _verify_exp(args):
    rec = library.load_equivariant(args.complex or "point-Z2", args.group)
    return series.verify_exp_formula(
        rec, args.order if args.order is not None else 5, **_series_kwargs(args)
    )


def _verify_main(args):
    rec = library.load_equivariant(args.complex or "point-Z2", args.group)
    return series.verify_main_formula(
        rec,
        args.m if args.m is not None else 0,
        args.order if args.order is not None else 5,
        **_series_kwargs(args),
    )


def _verify_macdonald(args):
    rec = library.load_equivariant(args.complex or "point-Z2", args.group)
    return series.macdonald_dimension_check(
        rec, args.order if args.order is not None else 4, **_series_kwargs(args)
    )


def _verify_jcount(args):
    r_max = args.n if args.n is not None else 12
    m_max = args.m if args.m is not None else 3
    rows = []
    all_equal = True
    for m in range(1, m_max + 1):
        for r in range(1, r_max + 1):
            formula = series.subgroup_count(r, m).value
            brute = series.sublattice_count_bruteforce(r, m)
            equal = formula == brute
            all_equal = all_equal and equal
            rows.append(
                {"r": r, "m": m, "formula": formula, "bruteforce": brute, "equal": equal}
            )
    return {
        "identity": "index-r-subgroup-counts",
        "r_max": r_max,
        "m_max": m_max,
        "rows": rows,
        "equal": all_equal,
    }


def _verify_hodge(args):
    order = args.order if args.order is not None else 5
    if args.complex and args.complex.endswith(".json"):
        with open(args.complex) as fh:
            data, d = library.hodge_dataset_from_json(json.load(fh))
        datasets = {args.complex: (data, d)}
    elif args.complex:
        bundled = library.hodge_datasets()
        if args.complex not in bundled:
            raise InputError(
                f"unknown hodge dataset {args.complex!r};"
                f" use one of {', '.join(sorted(bundled))} or a JSON file"
            )
        datasets = {args.complex: bundled[args.complex]}
    else:
        datasets = library.hodge_datasets()
    reports = {}
    all_equal = True
    for name in sorted(datasets):
        data, d = datasets[name]
        rep = hodge_product_check(data, d, order)
        all_equal = all_equal and rep["equal"]
        reports[name] = rep
    return {
        "identity": "hodge-product-formula",
        "order": order,
        "datasets": reports,
        "equal": all_equal,
    }


def _verify_sectors(args):
    rec = library.load_equivariant(args.complex or "point-S3", args.group)
    spec = args.gamma or "Z,Z"
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2:
        raise InputError(
            f"sector iteration needs two presentations 'A,B', got {spec!r}"
        )
    first, second = (parse_presentation(p) for p in parts)
    report = iterate_sectors(rec, first, second, cap=args.cap_homs)
    report["identity"] = "iterated-sectors"
    return report

def _verify_products(args):
    pres = parse_presentation(args.gamma or "Z")
    rows = []
    all_equal = True
    for a, b in library.PRODUCT_PAIRS:
        rep = product_sectors_check(
            library.builtin_equivariant(a),
            library.builtin_equivariant(b),
            pres,
            cap=args.cap_homs,
        )
        rep["pair"] = [a, b]
        all_equal = all_equal and rep["equal"]
        rows.append(rep)
    return {
        "identity": "product-multiplicativity",
        "gamma": pres.name,
        "pairs": rows,
        "equal": all_equal,
    }


_VERIFIERS = {
    "exp": _verify_exp,
    "main": _verify_main,
    "macdonald": _verify_macdonald,
    "jcount": _verify_jcount,
    "hodge": _verify_hodge,
    "sectors": _verify_sectors,
    "products": _verify_products,
}


def cmd_verify(args) -> tuple[dict, int]:
    report = _VERIFIERS[args.identity](args)
    code = EXIT_PASS if report.get("equal") else EXIT_MISMATCH
    return report, code


# ---------------------------------------------------------------------------
# parsing and dispatch


def _add_common(sp):
    sp.add_argument("--complex", help="bundled name or JSON file")
    sp.add_argument("--group", help="group spec (trivial, Zn, Sn, Dn)")
    sp.add_argument("--gamma", help="presentation spec (trivial, Z, Z^m, F_k)")
    sp.add_argument("--n", type=int, help="wreath size / enumeration bound")
    sp.add_argument("--m", type=int, help="number of commuting directions")
    sp.add_argument("--order", type=int, help="q-series truncation order")
    sp.add_argument(
        "--cap-homs",
        type=int,
        default=10**8,
        help="largest homomorphism search space",
    )
    sp.add_argument(
        "--cap-simplices",
        type=int,
        default=10**6,
        help="largest intermediate complex",
    )
    sp.add_argument(
        "--workers",
        type=int,
        help="accepted for compatibility and ignored; series terms are"
        " computed in order in one thread",
    )
    sp.add_argument("--out", help="also write the JSON report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbichar",
        description="Euler characteristics of global quotient orbifolds"
        " and their wreath symmetric products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    euler = sub.add_parser(
        "euler", help="sector decomposition and Euler-Satake characteristics"
    )
    _add_common(euler)
    euler.set_defaults(func=cmd_euler)

    wreath = sub.add_parser("wreath", help="wreath product structure tables")
    wreath.add_argument(
        "what", choices=("classes", "centralizers", "euler"), help="table kind"
    )
    _add_common(wreath)
    wreath.set_defaults(func=cmd_wreath)

    verify = sub.add_parser("verify", help="run an identity check")
    verify.add_argument(
        "identity", choices=sorted(_VERIFIERS), help="which identity"
    )
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)
    return parser


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "euler" and not args.complex:
        print("error: euler needs --complex", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "wreath" and not args.group:
        print("error: wreath needs --group", file=sys.stderr)
        return EXIT_INPUT
    try:
        report, code = args.func(args)
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
