"""Command-line surface: load inputs, run computations, verify identities.

Exit codes: 0 on success/pass, 1 when a verified identity fails, 2 on
invalid input, 3 when a size cap is exceeded.  Reports are JSON with sorted
keys and exact fractions rendered as strings, so equal inputs always produce
byte-identical output.
"""

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import factorial

from . import library, series, wreath
from .complexes import euler_characteristic
from .equivariant import (
    euler_satake,
    power_with_wreath_action,
    regularize,
    trivial_action,
)
from .errors import CapExceeded, InputError
from .groups import conjugacy_classes
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


# ---------------------------------------------------------------------------
# commands


def cmd_euler(args) -> tuple[dict, int]:
    rec = library.load_equivariant(args.complex, args.group)
    pres = parse_presentation(args.gamma or "Z")
    decomp = gamma_sectors(rec, pres)
    report = {
        "command": "euler",
        "complex": args.complex,
        "group_order": rec.group.order,
        "subdivision_rounds": rec.subdivision_rounds,
    }
    report.update(decomp.report(rec.group))
    return report, EXIT_PASS


def _class_rows(base, n: int, wreath_order: int, indent: str):
    """The ``rows`` list of a ``wreath classes`` report, as a fragment for
    ``indent``: one row per type of weight n, in sorted order.

    One recursive walk of the type trie (``wreath.type_trie``'s order)
    writes them.  Each entry ((c, r), m) has its centralizer factor and its
    text computed once; a call carries its node's centralizer order, the
    texts of its entries and the room left to weight n, and a node that
    leaves no room is written as it is reached, under a header formatted
    once per distinct centralizer order.  A node keyed (last class, r)
    that leaves a gap 0 < gap <= r is skipped with its subtree: only keys
    (last class, r' > r) could follow it, and none fits.  Every other node
    with a gap has a weight-n descendant (the entry ((c + 1, 1), gap) or
    ((last class, gap), 1) fills it), so the walk visits exactly the trie
    nodes that have one.
    """
    if n == 0:  # the empty type alone
        return [{"centralizer_order": 1, "class_size": 1, "type": []}]
    row = indent + "  "  # a row's braces
    field = row + "  "  # a row's keys
    item = field + "  "  # a type entry's braces
    # entries[c][r][m] = (factor, text as a type's first entry, text after another)
    entries = []
    for cls in conjugacy_classes(base):
        label = base.label(cls.representative)
        cent = base.order // len(cls.members)
        by_r = [None]
        for r in range(1, n + 1):
            by_m = [None]
            for m in range(1, n // r + 1):
                text = [item]
                _text({"class": label, "r": r, "m": m}, item, text)
                text = "".join(text)
                by_m.append((wreath.centralizer_factor(cent, r, m), text, "," + text))
            by_r.append(by_m)
        entries.append(by_r)

    pieces = []
    headers = {}  # centralizer order -> its row's text before the type entries
    start = "," + row + "{" + field + '"centralizer_order": '
    size = "," + field + '"class_size": '
    types = "," + field + '"type": ['
    close = field + "]" + row + "}"
    last = len(entries) - 1

    def walk(c0: int, r0: int, order: int, path: tuple, room: int) -> None:
        for c in range(c0, last + 1):
            by_r = entries[c]
            for r in range(r0 if c == c0 else 1, room + 1):
                by_m = by_r[r]
                for m in range(1, room // r + 1):
                    gap = room - r * m
                    if c == last and 0 < gap <= r:
                        continue
                    factor, first, later = by_m[m]
                    node = order * factor
                    if gap:
                        walk(c, r + 1, node, path + (later if path else first,), gap)
                        continue
                    header = headers.get(node)
                    if header is None:
                        header = f"{start}{node}{size}{wreath_order // node}{types}"
                        headers[node] = header
                    pieces.append(header)
                    pieces.extend(path)
                    pieces.append(later if path else first)
                    pieces.append(close)

    walk(0, 1, 1, (), n)
    del walk  # walk refers to itself through its cell; unbinding frees it
    pieces[0] = "[" + pieces[0][1:]  # the first row's header, without its comma
    pieces.append(indent + "]")
    return Fragment(pieces, indent)


def cmd_wreath(args) -> tuple[dict, int]:
    base = library.builtin_group(args.group)
    n = args.n
    if n is None or n < 0:
        raise InputError("wreath commands need --n >= 0")
    product = WreathProduct(base, n)

    if args.what == "classes":
        # One row per type; the m = 1 point series counts them first
        def over_cap(k: int, count: int) -> str:
            at_least = "" if k == n else "at least "
            note = "" if k == n else f" ({args.group} ~ S_{k} has {count})"
            return (
                f"{args.group} ~ S_{n} has {at_least}{count} conjugacy"
                f" classes, above the type cap {wreath.TYPE_CAP}{note}"
            )

        count = wreath.capped_type_count(
            lambda k: series.point_wreath_chi_m(base, k, 1), n, over_cap
        )
        report = {
            "command": "wreath-classes",
            "group": args.group,
            "n": n,
            "wreath_order": product.order,
            "class_count": count,
            # a value of the top-level report: the writer places it at "\n  "
            "rows": _class_rows(base, n, product.order, "\n  "),
        }
        return report, EXIT_PASS

    if args.what == "centralizers":
        by_type = classify_conjugacy_by_type(base, n)
        labels = [base.label(k.representative) for k in conjugacy_classes(base)]
        rows = []
        for t in all_types(base, n):
            formula = centralizer_order_by_formula(base, n, t)
            brute = product.order // len(by_type[t].members)
            rows.append(
                {
                    "type": [
                        {"class": labels[c], "r": r, "m": m}
                        for (c, r), m in t.entries
                    ],
                    "centralizer_formula": formula,
                    "centralizer_bruteforce": brute,
                    "equal": formula == brute,
                }
            )
        all_equal = all(row["equal"] for row in rows)
        report = {
            "command": "wreath-centralizers",
            "group": args.group,
            "n": n,
            "wreath_order": product.order,
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
        power, _ew = power_with_wreath_action(rec, n)
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


def _verify_exp(args):
    rec = library.load_equivariant(args.complex or "point-Z2", args.group)
    return series.verify_exp_formula(rec, args.order if args.order is not None else 5)


def _verify_main(args):
    rec = library.load_equivariant(args.complex or "point-Z2", args.group)
    return series.verify_main_formula(
        rec,
        args.m if args.m is not None else 0,
        args.order if args.order is not None else 5,
    )


def _verify_macdonald(args):
    rec = library.load_equivariant(args.complex or "point-Z2", args.group)
    return series.macdonald_dimension_check(
        rec, args.order if args.order is not None else 4
    )


def _verify_jcount(args):
    r_max = args.n if args.n is not None else 12
    m_max = args.m if args.m is not None else 3
    if r_max < 1 or m_max < 1:
        # an empty table would pass vacuously
        raise InputError(
            f"jcount needs --n >= 1 and --m >= 1, got --n {r_max} --m {m_max}"
        )
    rows = []
    for r, m, formula in series.capped_jcount_formulas(r_max, m_max):
        brute = series.sublattice_count_bruteforce(r, m)
        equal = formula == brute
        rows.append(
            {"r": r, "m": m, "formula": formula, "bruteforce": brute, "equal": equal}
        )
    return {
        "identity": "index-r-subgroup-counts",
        "r_max": r_max,
        "m_max": m_max,
        "rows": rows,
        "equal": all(row["equal"] for row in rows),
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
    for name in sorted(datasets):
        data, d = datasets[name]
        reports[name] = hodge_product_check(data, d, order)
    return {
        "identity": "hodge-product-formula",
        "order": order,
        "datasets": reports,
        "equal": all(rep["equal"] for rep in reports.values()),
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
    report = iterate_sectors(rec, first, second)
    report["identity"] = "iterated-sectors"
    return report

def _verify_products(args):
    pres = parse_presentation(args.gamma or "Z")
    rows = []
    for a, b in library.PRODUCT_PAIRS:
        rep = product_sectors_check(
            library.builtin_equivariant(a),
            library.builtin_equivariant(b),
            pres,
        )
        rep["pair"] = [a, b]
        rows.append(rep)
    return {
        "identity": "product-multiplicativity",
        "gamma": pres.name,
        "pairs": rows,
        "equal": all(rep["equal"] for rep in rows),
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
    """Exit 0 on a pass, and 1 on a false verdict, unless the only fault is
    a series cut short by a cap: then the partial report still prints, and
    the first cap note goes to stderr with exit 3."""
    report = _VERIFIERS[args.identity](args)
    if report.get("equal"):
        return report, EXIT_PASS
    parts = [report] + [report[k] for k in ("part1", "part2") if k in report]
    notes = [p["cap"] for p in parts if "cap" in p]
    if notes and not any("mismatch_index" in p for p in parts):
        print(f"error: cap exceeded: {notes[0]}", file=sys.stderr)
        return report, EXIT_CAP
    return report, EXIT_MISMATCH


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
        "--workers",
        type=int,
        help="accepted for compatibility and ignored; series terms are"
        " computed in order in one thread",
    )
    sp.add_argument("--out", help="also write the JSON report to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and reused, since each parser leaves objects
    in reference cycles; ``func`` keeps the ``cmd_*`` bound at that call."""
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


# Text of each JSON leaf, by exact type; containers look their items up
# here before recursing.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _none: "null",
}


class Fragment:
    """A report value written ahead of time: ``pieces`` are its text for
    the place whose closing bracket follows ``indent`` (the newline and
    indentation ``_text`` is given there).  The writer adds the pieces
    unchanged, and raises ValueError if the fragment stands anywhere else.
    """

    __slots__ = ("pieces", "indent")

    def __init__(self, pieces: list, indent: str):
        self.pieces = pieces
        self.indent = indent


def _text(obj, indent: str, out: list) -> None:
    """Append the text of ``obj`` to ``out``, as ``json.dumps(obj, indent=2,
    sort_keys=True)`` writes it, for str-keyed dicts, lists and tuples of
    str, int, bool, None (leaves by exact type) and fragments; anything
    else raises TypeError.  ``indent`` is the newline and indentation that
    precede its closing bracket.  No container joins its own text, so
    every piece is written once, faster than ``json.dumps``, which indents
    in pure Python."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
        return
    if type(obj) is Fragment:
        if obj.indent != indent:
            raise ValueError(
                f"a fragment for indent {obj.indent!r} placed at {indent!r}"
            )
        out += obj.pieces
        return
    get = _LEAVES.get
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            if (f := get(type(v))) is not None:
                out.append(f(v))
            else:
                _text(v, inner, out)
            sep = "," + inner
        out.append(indent + "}")
        return
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            if (f := get(type(v))) is not None:
                out.append(f(v))
            else:
                _text(v, inner, out)
            sep = "," + inner
        out.append(indent + "]")
        return
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(report: dict, out):
    """Write the report's text and a newline to stdout, and to the open
    file ``out`` if given (replacing what it held), piece by piece: no
    string of the whole report is built."""
    pieces = []
    _text(report, "\n", pieces)
    pieces.append("\n")
    sys.stdout.writelines(pieces)
    if out:
        out.seek(0)
        out.truncate()
        out.writelines(pieces)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "euler" and not args.complex:
        print("error: euler needs --complex", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "wreath" and not args.group:
        print("error: wreath needs --group", file=sys.stderr)
        return EXIT_INPUT
    try:
        # opened before any work, so a path that cannot be written is bad
        # input; appending keeps what the file holds until a report lands
        out = open(args.out, "a") if args.out else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    with out or contextlib.nullcontext():
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
        _emit(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
