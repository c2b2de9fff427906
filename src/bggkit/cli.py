"""Command-line front end.

Exit codes: 0 all checks pass, 1 verification mismatch or a failed float
step, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import catalog, export
from .bgg import bgg_cohomology, derive
from .diagram import DiagramError, VerificationError, build, row_cohomology_sum, \
    verify_identities
from .energy import (
    EnergyParams,
    cosserat_energy,
    elasticity_energy,
    generalized_cosserat_energy,
    generalized_dilation_energy,
    generalized_plate_energy,
    p_mono,
    random_field,
)
from .korn import FloatStepError, korn2d_experiment

F = Fraction


def _entry_from_args(args) -> catalog.CatalogEntry:
    if getattr(args, "diagram_file", None):
        return catalog.load_file(args.diagram_file)
    if not getattr(args, "diagram", None):
        raise KeyError("no diagram given (use --diagram or --diagram-file)")
    return catalog.get(args.diagram)


def _checks_json(report) -> list:
    return [{"name": c.name, "weight": c.weight, "index": c.index, "ok": c.ok,
             **({"where": list(c.where)} if c.where else {})}
            for c in report.checks]


def cmd_verify(args) -> int:
    entry = _entry_from_args(args)
    try:
        bd = build(entry.spec, args.wmax)
    except DiagramError as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    report = verify_identities(bd)
    if args.format == "json":
        print(json.dumps({"diagram": entry.name, "wmax": args.wmax,
                          "checks": _checks_json(report)}, indent=1))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_cohomology(args) -> int:
    entry = _entry_from_args(args)
    bd = build(entry.spec, args.wmax)
    ops = derive(bd)
    try:
        # certifies derived = twisted = row sum at every (i, w)
        dims = bgg_cohomology(ops.bc)
    except VerificationError as err:
        print(f"cohomology check failed: {err}", file=sys.stderr)
        return 1
    payload = {"diagram": entry.name, "wmax": args.wmax,
               "checks": [{"name": "twisted=row_sum", "ok": True},
                          {"name": "derived=twisted", "ok": True}],
               "cohomology": {"twisted": {}, "derived": {}, "row_sum": {}}}
    tables = payload["cohomology"]
    for (i, w), h in sorted(dims.items()):
        key = f"i={i},w={w}"
        tables["twisted"][key] = tables["derived"][key] = h
        tables["row_sum"][key] = row_cohomology_sum(bd, i, w)
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        print(f"diagram {entry.name}: twisted = derived = row sums at every "
              f"index and weight <= {args.wmax}")
        nonzero = {(i, w): h for (i, w), h in sorted(dims.items()) if h}
        for (i, w), h in nonzero.items():
            print(f"  H^{i} at weight {w}: dim {h}")
        total = sum(h for (i, w), h in dims.items() if i == 0)
        print(f"  total H^0 across weights: {total}")
    return 0


def cmd_derive(args) -> int:
    entry = _entry_from_args(args)
    report = catalog.fingerprint(entry, args.wmax)
    if args.format == "json":
        print(json.dumps({
            "diagram": entry.name, "wmax": args.wmax,
            "identity_ok": report.identity_ok,
            "checks": [{"name": k, "expected": str(e), "actual": str(a), "ok": ok}
                       for k, e, a, ok in report.comparisons],
        }, indent=1))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


def cmd_export(args) -> int:
    entry = _entry_from_args(args)
    canonical = export.check_request(args.operator, entry.spec.n, args.wmax,
                                     args.index, args.weight)
    bd = build(entry.spec, args.wmax)
    ops = derive(bd) if canonical in export.DERIVED else None
    linmap = export.get_operator(bd, ops, canonical, args.index, args.weight)
    comment = (f"diagram={entry.name} operator={canonical} index={args.index} "
               f"weight={args.weight}")
    if args.format == "matrixmarket":
        text = export.write_matrix_market(linmap.mat, comment)
    elif args.format == "json":
        text = export.write_json(linmap.mat, {
            "diagram": entry.name, "operator": canonical,
            "index": args.index, "weight": args.weight})
    else:
        text = export.write_stencil(
            linmap,
            row_labels=export.block_labels(linmap.cod) or None,
            col_labels=export.block_labels(linmap.dom) or None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_params(text: str) -> EnergyParams:
    try:
        vals = [F(x) for x in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"--params {text}: zero denominator") from None
    if len(vals) != 6:
        raise ValueError("expected mu,lam,mu_c,alpha,beta,gamma")
    return EnergyParams(*vals)


def _field_term(name: str, key, val) -> tuple:
    """One term of a --fields component: "a b c" exponents, integer or "p/q"."""
    try:
        mono = tuple(int(x) for x in key.replace(",", " ").split())
        coeff = F(val) if type(val) in (int, str) else None
    except (ValueError, ZeroDivisionError):
        mono, coeff = (), None
    if len(mono) != 3 or min(mono) < 0 or coeff is None:
        raise ValueError(f"--fields {name}: bad term {key!r}: {val!r}")
    return mono, coeff


def _fields_from_json(data) -> tuple:
    """Fields u and omega of a --fields file, each a list of 3 components."""
    if not isinstance(data, dict) or set(data) != {"u", "omega"}:
        raise ValueError("--fields must be a JSON object with keys u and omega")
    fields = []
    for name in ("u", "omega"):
        comps = data[name]
        if not (isinstance(comps, list) and len(comps) == 3
                and all(isinstance(c, dict) for c in comps)):
            raise ValueError(f"--fields {name} must be a list of 3 objects")
        fields.append([_field_component(name, c) for c in comps])
    return tuple(fields)


def _field_component(name: str, terms: dict) -> dict:
    """One --fields component as monomial -> nonzero coefficient.

    Two keys spelling one monomial are rejected, since one would silently
    replace the other; zero terms are dropped, so they raise no degree.
    """
    comp = {}
    seen = set()
    for key, val in terms.items():
        mono, coeff = _field_term(name, key, val)
        if mono in seen:
            raise ValueError(f"--fields {name}: monomial {mono} given twice "
                             f"(again as {key!r})")
        seen.add(mono)
        if coeff:
            comp[mono] = coeff
    return comp


def cmd_cosserat_energy(args) -> int:
    param_sets = [_parse_params(p) for p in args.params] if args.params else [
        EnergyParams.of(1, 1, 1, 1, 1, 1),
        EnergyParams.of(2, 3, F(1, 2), 1, F(1, 3), 2),
        EnergyParams.of(1, 0, 2, F(3, 2), 0, 1),
    ]
    if args.fields:
        with open(args.fields, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise ValueError(f"--fields {args.fields}: {err}") from None
        u, omega = _fields_from_json(data)
        for params in param_sets:
            val = cosserat_energy(u, omega, params)
            print(f"params {params}: energy = {val}")
        return 0
    # closed-form checks, then seeded random identity checks
    x_field = [p_mono((1, 0, 0)), p_mono((0, 1, 0)), p_mono((0, 0, 1))]
    zero3 = [{}, {}, {}]
    ones = EnergyParams.of(1, 1, 1, 1, 1, 1)
    v1 = cosserat_energy(x_field, zero3, ones)
    print(f"identity displacement, zero rotation, unit weights: {v1} "
          f"(expected 15/2)")
    ok = v1 == F(15, 2)
    const_c = [p_mono((0, 0, 0), 1), p_mono((0, 0, 0), -2), p_mono((0, 0, 0), F(1, 2))]
    v2 = cosserat_energy(zero3, const_c, ones)
    expect2 = 2 * (F(1) ** 2 + F(2) ** 2 + F(1, 2) ** 2)
    print(f"zero displacement, constant rotation: {v2} (expected {expect2})")
    ok = ok and v2 == expect2
    rng = random.Random(args.seed)
    checked = 0
    try:
        for params in param_sets:
            for _ in range(args.samples):
                u = random_field(rng, 3, 3, args.degree)
                omega = random_field(rng, 3, 3, args.degree)
                cosserat_energy(u, omega, params)
                checked += 1
    except VerificationError as err:
        print(f"identity FAILED after {checked} samples: {err}", file=sys.stderr)
        return 1
    print(f"twisted-norm identity verified on {checked} seeded random fields "
          f"({len(param_sets)} parameter sets)")
    # generalized energies: spot identities
    rng2 = random.Random(args.seed + 1)
    u = random_field(rng2, 3, 3, 2)
    phi = random_field(rng2, 3, 3, 2)
    sigma = random_field(rng2, 3, 1, 2)[0]
    omega = random_field(rng2, 3, 3, 2)
    alpha0 = EnergyParams(mu=F(2), lam=F(3), alpha=F(0))
    same = generalized_dilation_energy(phi, u, alpha0) == elasticity_energy(u, alpha0)
    print(f"dilation coupling at alpha=0 reduces to elasticity: "
          f"{'pass' if same else 'FAIL'}")
    ok = ok and same
    generalized_cosserat_energy(u, sigma, omega, phi, (1, 2, 3))
    u2 = random_field(rng2, 2, 2, 2)
    phi2 = random_field(rng2, 2, 2, 2)
    s2 = random_field(rng2, 2, 1, 2)[0]
    o2 = random_field(rng2, 2, 1, 2)[0]
    generalized_plate_energy(u2, s2, o2, phi2, (1, 1, 2))
    print("generalized three-row and plate energies match their twisted norms")
    return 0 if ok else 1


def cmd_korn2d(args) -> int:
    rows = korn2d_experiment(args.rmax)
    ok = True
    for row in rows:
        ok = ok and row.kernel_dim == 6
        ok = ok and row.first_order_kernel_dim == 2 * (row.degree + 1)
        ok = ok and row.sigma_min > 1e-10
    if args.format == "json":
        print(json.dumps({"rows": [{
            "degree": r.degree, "kernel_dim": r.kernel_dim,
            "first_order_kernel_dim": r.first_order_kernel_dim,
            "sigma_min": r.sigma_min} for r in rows], "ok": ok}, indent=1))
    else:
        for row in rows:
            print(row.line())
        print("joint kernel stays 6; first-order kernel grows as 2(r+1); "
              f"smallest singular value positive: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bggkit",
        description="exact construction, verification and analysis of "
                    "graded diagrams of polynomial-coefficient forms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--diagram", help="catalog diagram name")
        p.add_argument("--diagram-file", help="diagram description file")
        p.add_argument("--wmax", type=int, default=8,
                       help="largest stored weight (default 8)")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("verify", help="check every structural identity exactly")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cohomology", help="twisted and derived cohomology tables")
    common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("derive", help="derive the complex and compare fingerprints")
    common(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("export", help="write one block operator")
    common(p, ("text", "matrixmarket", "json"))
    p.add_argument("--operator", required=True,
                   help="one of d, S, K, dV, F, T, G, A, B, D")
    p.add_argument("--index", type=int, required=True, help="column index i")
    p.add_argument("--weight", type=int, required=True, help="weight w")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("cosserat-energy",
                       help="strain energy identities, exact over the unit cube")
    p.add_argument("--params", action="append",
                   help="mu,lam,mu_c,alpha,beta,gamma (repeatable)")
    p.add_argument("--fields", help="JSON file with fields u, omega")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(fn=cmd_cosserat_energy)

    p = sub.add_parser("korn2d", help="planar rigidity experiment")
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_korn2d)
    return parser


def _check_counts(args):
    """Reject count options below their smallest meaningful value."""
    for name, low in (("wmax", 0), ("samples", 1), ("degree", 0), ("rmax", 3)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError(f"--{name} must be >= {low}, got {value}")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except (KeyError, ValueError, OSError) as err:
        # str() of a KeyError is the repr of its message, quotes included
        message = err.args[0] if isinstance(err, KeyError) else err
        print(f"invalid input: {message}", file=sys.stderr)
        return 2
    except (DiagramError, VerificationError) as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1
    except FloatStepError as err:
        print(f"float step failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
