"""Command-line front end.

Subcommands: check, efficient, maximize, refine, decompose, corpus.
Exit codes: 0 pass, 1 mathematical failure (with witness), 2 input or usage
error, 3 internal inconsistency (a library bug).  Reports are deterministic:
identical config and seed give byte-identical JSON.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, List, Optional

from . import corpus as corpus_mod
from . import oracle
from .efficiency import check_charpar, efficient_set
from .io import (
    InputError,
    downset_from_json,
    dumps_report,
    elem_key,
    encode_elem,
    encode_value,
    load_json,
    point_from_json,
    utility_from_json,
)
from .leontief import TabulatedUtility, UtilityError, min_decompose
from .maximize import (
    ArgmaxResult,
    PreconditionError,
    argmax_members,
    argmax_over_downset,
    check_argmax_localization,
    efficient_refinement,
    product_downset,
)
from .oracle import InconsistencyError
from .order import OrderError, tolerant

SCHEMA = 1


def _nonnegative(convert, noun: str):
    """An argument type: ``convert(raw)`` that is neither negative nor NaN
    (else exit 2)."""
    def parse(raw: str):
        v = convert(raw)
        if not v >= 0:
            raise argparse.ArgumentTypeError(f"must be a nonnegative {noun}: {raw!r}")
        return v
    parse.__name__ = convert.__name__  # argparse's "invalid float value: 'x'"
    return parse


_tolerance = _nonnegative(float, "number")
_count = _nonnegative(int, "integer")


class _Parser(argparse.ArgumentParser):
    """argparse, except that ``--flag=--`` gives ``--flag`` the value "--".
    argparse drops that "--" as the end of options and, with no value left,
    would hand back an empty list, unconverted and unchecked."""

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache  # one shared parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qleontief",
        description="Certification and maximization of quasi-Leontief utilities on finite posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--quiet", action="store_true", help="suppress detail lines")
        p.add_argument("--tolerance", type=_tolerance, default=None,
                       help="tolerance override for a utility on the tolerant scale")

    p = sub.add_parser("check", help="run the certifier battery on a utility")
    p.add_argument("utility")
    common(p)

    p = sub.add_parser("efficient", help="list the efficient points")
    p.add_argument("utility")
    p.add_argument("--subset", default=None, help="down-set file restricting the search")
    common(p)

    p = sub.add_parser("maximize", help="maximize over a comprehensive set")
    p.add_argument("utility")
    p.add_argument("--downset", required=True)
    common(p)

    p = sub.add_parser("refine", help="refine a maximizer into an efficient maximizer")
    p.add_argument("utility")
    p.add_argument("--sets", nargs="+", required=True,
                   help="one comprehensive-set file per factor")
    p.add_argument("--start", default=None, help="point file with the starting maximizer")
    p.add_argument("--order", default=None, help="axis permutation, 1-based, e.g. 2,1")
    common(p)

    p = sub.add_parser("decompose", help="split a product utility into axis utilities")
    p.add_argument("utility")
    p.add_argument("--upper", required=True, help="point file with the freezing upper bound")
    p.add_argument("--subset", required=True, help="down-set file the identity must hold on")
    common(p)

    p = sub.add_parser("corpus", help="run the randomized equivalence sweeps")
    p.add_argument("--n", type=_count, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--inject-fault", action="store_true",
                   help="test mode: corrupt one dual entry and expect a failure "
                        "(exit 2 when no instance is regular enough to take it)")
    common(p)
    return parser


def _load_utility(path: str, tolerance: Optional[float]) -> TabulatedUtility:
    u = utility_from_json(load_json(path), base_dir=os.path.dirname(path) or ".")
    if tolerance is not None and u.scale.kind == "tolerant":
        u.scale = tolerant(tolerance)
    return u


def _refuse_chained_values(u: TabulatedUtility) -> None:
    """Refuse a tolerance that chains the attained values: the efficient set
    and maximization need a scale that orders them, and such a tolerance is
    no order."""
    chain = u.chained_values()
    if chain:
        v1, v2, v3 = map(encode_value, chain)
        raise InputError(f"the tolerance chains the attained values {v1} ~ {v2} ~ {v3} "
                         f"but not {v1} ~ {v3}")


def _report(args, **fields) -> dict:
    """A report on the utility file ``args.utility``: the schema, command and
    input, then ``fields``.  The input is null for ``corpus``, which reads no
    file but reports a certification failure through here too."""
    return {"schema": SCHEMA, "command": args.command,
            "input": getattr(args, "utility", None), **fields}


def _emit(report: dict, args, lines: Callable[[], List[str]]) -> None:
    """Print ``report`` as JSON under ``--json``, else the text ``lines()``,
    which only text mode builds."""
    if args.json:
        sys.stdout.write(dumps_report(report))
    else:
        for line in lines():
            if args.quiet and not (line.startswith("PASS") or line.startswith("FAIL")):
                continue
            print(line)


def cmd_check(args) -> int:
    u = _load_utility(args.utility, args.tolerance)
    base = oracle.certify_quasi_leontief(u)
    certs = [base.to_json()]
    if base.ok:
        # the quasi-Leontief certificate implies the adjunction of regular's
        # own table, isotonicity, property Phi, a least element and the meet
        # identity on either scale (see the oracle module)
        reg = oracle.certify_regular(base.utility).to_json()
        certs.append(reg)
        if reg["verdict"] == "pass":
            # the adjunction of the same table: its report differs in name only
            certs.append(dict(reg, property="galois-adjunction"))
        props = ["isotone", "property-phi", "lower-bounded-level-sets"]
        if u.poset.is_inf_semilattice():
            props.append("meet-homomorphism")
        certs += [oracle.Certificate(True, p).to_json() for p in props]
    return _emit_certificates(args, certs)


def _emit_certificates(args, certs: List[dict]) -> int:
    """Report the certificates ``certs``, given as their JSON forms, on the
    utility, one PASS or FAIL line each, and return the exit code."""
    ok = all(c["verdict"] == "pass" for c in certs)
    _emit(_report(args, certificates=certs, ok=ok), args, lambda: [
        f"PASS {c['property']}" if c["verdict"] == "pass"
        else f"FAIL {c['property']}: {c.get('detail', '')} witnesses={c['witnesses']}"
        for c in certs
    ])
    return 0 if ok else 1


def cmd_efficient(args) -> int:
    u = _load_utility(args.utility, args.tolerance)
    _refuse_chained_values(u)
    u = oracle.require_certified(u)
    S = None if args.subset is None else downset_from_json(load_json(args.subset), u.poset)
    pts = [encode_elem(p) for p in efficient_set(u) if S is None or p in S]
    report = _report(args, mode="global-chain", points=pts, ok=True)
    _emit(report, args, lambda: [f"{len(pts)} efficient points", *map(str, pts)])
    return 0


def cmd_maximize(args) -> int:
    u = _load_utility(args.utility, args.tolerance)
    _refuse_chained_values(u)
    u = oracle.require_certified(u)
    S = downset_from_json(load_json(args.downset), u.poset)
    res = argmax_over_downset(u, S)
    loc = check_argmax_localization(u, S, res)
    result = res.to_json()
    report = _report(args, result=result, localization=loc.to_json(), ok=loc.ok)
    _emit(report, args, lambda: [
        f"value {result['value']}",
        f"maximizers {result['maximizers']}",
        f"largest efficient {result['largest_efficient']}",
        f"maximal maximizer {result['maximal_maximizer']}",
        ("PASS" if loc.ok else "FAIL") + " argmax-localization",
    ])
    return 0 if loc.ok else 1


def _parse_order(raw: str, n: int) -> List[int]:
    try:
        order = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise InputError(f"bad --order {raw!r}") from None
    if sorted(order) != list(range(1, n + 1)):
        raise InputError(f"--order must be a permutation of 1..{n}")
    return [k - 1 for k in order]


def cmd_refine(args) -> int:
    u = _load_utility(args.utility, args.tolerance)
    if u.space is None:
        raise InputError("refine needs a product-domain utility")
    space = u.space
    if len(args.sets) != space.n_axes:
        raise InputError(f"need {space.n_axes} set files, got {len(args.sets)}")
    sets = [
        downset_from_json(load_json(path), f)
        for path, f in zip(args.sets, space.factors)
    ]
    S = product_downset(space, sets)
    _refuse_chained_values(u)
    cert = oracle.certify_quasi_leontief(u)
    cu = cert.utility if cert.ok else u
    # the one argmax over S: the default start, the maximum the sweep keeps and
    # the reported largest efficient point all come from this record
    res = argmax_over_downset(cu, S) if cert.ok else ArgmaxResult(*argmax_members(u, S))
    x_star = (res.maximizers[0] if args.start is None
              else point_from_json(load_json(args.start), space))
    order = _parse_order(args.order, space.n_axes) if args.order is not None else None
    try:
        trace = efficient_refinement(cu, S, x_star, res, order=order)
    except (PreconditionError, UtilityError, InconsistencyError) as exc:
        report = _report(args, ok=False, error=str(exc))
        _emit(report, args, lambda: [f"FAIL refinement: {report['error']}"])
        return 1
    record = trace.to_json()
    report = _report(args, trace=record, ok=True)
    if cert.ok:
        xbar = res.largest_efficient
        report["largest_efficient"] = encode_elem(xbar)
        report["refined_equals_largest_efficient"] = xbar == trace.result

    def lines():
        out = [
            f"start {record['start']}",
            *(f"axis {s['axis']}: {s['from']} -> {s['to']}" for s in record["steps"]),
            f"result {record['result']}",
            "PASS refinement (argmax, dominated, efficient)",
        ]
        if cert.ok:
            out.append(f"largest efficient {report['largest_efficient']}")
        return out

    _emit(report, args, lines)
    return 0


def cmd_decompose(args) -> int:
    u = _load_utility(args.utility, args.tolerance)
    if u.space is None:
        raise InputError("decompose needs a product-domain utility")
    space = u.space
    S = downset_from_json(load_json(args.subset), space)
    xbar = point_from_json(load_json(args.upper), space)
    try:
        parts = min_decompose(u, S.sorted_members(), xbar)
    except UtilityError as exc:
        raise InputError(str(exc)) from exc
    bad = []
    for x in S.sorted_members():
        got = min(p.value(c) for p, c in zip(parts, x))
        if not u.scale.eq(got, u.value(x)):
            bad.append((x, u.value(x), got))
    report = _report(
        args,
        factors=[
            {elem_key(e): encode_value(v) for e, v in zip(p.poset, p.column)} for p in parts
        ],
        identity={
            "ok": not bad,
            "violations": [
                {"point": encode_elem(x), "value": encode_value(v), "min_form": encode_value(g)}
                for x, v, g in bad
            ],
        },
        ok=not bad,
    )
    _emit(report, args, lambda: [
        f"{len(parts)} axis utilities",
        ("PASS" if not bad else "FAIL") + " min-identity on subset",
    ])
    return 0 if not bad else 1


# -- corpus suites -----------------------------------------------------------
# Each check draws one instance from its rng and yields a (property, detail)
# pair per inconsistency.  ``faults`` yields True once under --inject-fault:
# the triangle check takes it for its first regular instance, and a run with
# none is an input error, since it would pass without testing anything.


def _triangle(rng, faults):
    poset = corpus_mod.random_poset(rng, 16, with_bottom=True)
    u = corpus_mod.random_isotone_utility(rng, poset)
    cert = oracle.check_characterization_equivalence(u)
    if not cert.ok:
        yield cert.prop, cert.detail
        return
    reg = oracle.certify_regular(u)
    if reg.ok:
        table = dict(reg.dual_table)
        if table and next(faults, False):
            lam = sorted(table)[-1]
            alt = next(e for e in poset.elements if e != table[lam])
            table[lam] = alt
        gal = oracle.verify_galois(reg.utility, table)
        if not gal.ok:
            yield gal.prop, gal.detail


def _charpar(rng, faults):
    space = corpus_mod.random_product_of_chains(rng)
    u = corpus_mod.random_isotone_utility(rng, space)
    cert = check_charpar(u)
    if not cert.ok:
        yield cert.prop, cert.detail


def _localization(rng, faults):
    poset = corpus_mod.random_poset(rng, 12, with_bottom=True)
    u = corpus_mod.random_quasileontief_utility(rng, poset)
    cu = oracle.require_certified(u)
    S = corpus_mod.random_downset(rng, poset)
    # (b) and (c) imply that the largest efficient point is a maximizer
    # and that every maximizer dominates it
    loc = check_argmax_localization(cu, S, argmax_over_downset(cu, S))
    if not loc.ok:
        yield "maximization", loc.detail


def _refinement(rng, faults):
    space = corpus_mod.random_product_of_chains(rng)
    u = corpus_mod.random_isotone_utility(rng, space)
    sets = corpus_mod.random_prefix_downsets(rng, space)
    S = product_downset(space, sets)
    res = ArgmaxResult(*argmax_members(u, S))
    for x_star in res.maximizers:
        try:
            efficient_refinement(u, S, x_star, res)
        except (InconsistencyError, UtilityError) as exc:
            yield "refinement", str(exc)


_SUITES = (  # (report name, rng tag, check of one instance), in report order
    ("characterization-triangle", "triangle", _triangle),
    ("charpar", "charpar", _charpar),
    ("argmax-localization", "localization", _localization),
    ("refinement", "refinement", _refinement),
)


def cmd_corpus(args) -> int:
    seed, n = args.seed, args.n
    faults = iter([True] * args.inject_fault)
    suites = []
    for name, tag, check in _SUITES:
        failures = [
            {"instance": i, "property": prop, "detail": detail}
            for i in range(n)
            for prop, detail in check(corpus_mod.derive_rng(seed, tag, i), faults)
        ]
        suites.append(
            {
                "name": name,
                "instances": n,
                "inconsistencies": len(failures),
                "failures": failures,
            }
        )
    if next(faults, False):
        raise InputError("--inject-fault: no regular characterization-triangle instance took the fault")
    total = sum(s["inconsistencies"] for s in suites)
    report = {
        "schema": SCHEMA,
        "command": "corpus",
        "seed": seed,
        "n": n,
        "suites": suites,
        "ok": total == 0,
    }
    _emit(report, args, lambda: [
        *(f"{s['name']}: {s['instances']} instances, {s['inconsistencies']} inconsistencies"
          for s in suites),
        ("PASS" if total == 0 else "FAIL") + f" corpus ({total} inconsistencies)",
    ])
    return 0 if total == 0 else 1


_COMMANDS = {
    "check": cmd_check,
    "efficient": cmd_efficient,
    "maximize": cmd_maximize,
    "refine": cmd_refine,
    "decompose": cmd_decompose,
    "corpus": cmd_corpus,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except oracle.CertificationError as exc:
        # a mathematical verdict, not an input problem
        return _emit_certificates(args, [exc.certificate.to_json()])
    except (InputError, OrderError, UtilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
