"""The benchmark workloads, each a sequence of calls a user makes.

Every workload has a ``setup`` (what a user pays before the first answer:
building the diagram, or the closed-form energy checks) and a timed ``run``.
Each check goes through ``Checks.check``: a wrong result or an exception is
recorded as a failure and the workload carries on.  bggkit is reached through
module attributes only, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from bggkit import bgg, catalog, diagram, energy, export, korn

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Workload size per run size: w_max for certify and cohomology, random field
# pairs per parameter set for energy, r_max for korn.
SIZES = {
    "full": {"certify": 7, "cohomology": 9, "energy": 40, "korn": 10},
    "tiny": {"certify": 5, "cohomology": 4, "energy": 2, "korn": 4},
}

ENERGY_PARAMS = [
    energy.EnergyParams.of(1, 1, 1, 1, 1, 1),
    energy.EnergyParams.of(2, 3, Fraction(1, 2), 1, Fraction(1, 3), 2),
    energy.EnergyParams.of(1, 0, 2, Fraction(3, 2), 0, 1),
]


class Checks:
    """Counts checks and collects failures without stopping the workload."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.op_ms: list[float] = []

    def check(self, name: str, fn, ok=lambda result: True):
        """Run fn as one check; returns its result, or None if it raised."""
        self.attempted += 1
        try:
            result = fn()
            passed = ok(result)
        except Exception as exc:  # a raising check must not abort the rep
            self.failures.append(_describe(name, exc))
            return None
        if not passed:
            self.failures.append(f"{name}: unexpected result {str(result)[:200]}")
        return result

    def attempt(self, name: str, fn):
        """Run a step that later checks depend on; an exception is noted, not counted."""
        try:
            return fn()
        except Exception as exc:  # the dependent checks record the failure
            self.notes.append(_describe(name, exc))
            return None


def _describe(name: str, exc: Exception) -> str:
    return f"{name}: {type(exc).__name__}: {exc}"[:300]


def _empty(result) -> bool:
    return result == []


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- certify -------------------------------------------------------------------


def broken_conf_deformation():
    """conf-deformation-3d with one row-2 kappa tensor scaled by 2."""
    spec = catalog.get("conf-deformation-3d").spec
    row1, row2 = spec.kappa.maps
    row2 = (row2[0].scale(2),) + row2[1:]
    return diagram.DiagramSpec(spec.name, spec.n, spec.rows,
                               diagram.KappaSpec((row1, row2)))


def certify_setup(ck: Checks, w_max: int, seed: int, broken: bool = False):
    if broken:
        return diagram.build(broken_conf_deformation(), w_max, validate=False)
    return diagram.build(catalog.get("conf-deformation-3d").spec, w_max)


def top_weight_digest(bd, ops) -> str:
    """sha256 of the Matrix Market export of D and G at the top weight."""
    w = bd.w_max
    parts = []
    for i in range(bd.n):
        parts.append(export.write_matrix_market(ops.bc.D(i, w).mat, f"D i={i} w={w}"))
    for i in range(1, bd.n + 1):
        parts.append(export.write_matrix_market(ops.g.column(i, w).mat, f"G i={i} w={w}"))
    return sha256_text("".join(parts))


def certify_run(ck: Checks, bd, size: str):
    want = EXPECTED["certify"]
    ck.check("verify_identities",
             lambda: [c.line() for c in diagram.verify_identities(bd).failures()], _empty)
    ops = ck.check("derive", lambda: bgg.derive(bd))
    for w in range(bd.w_max + 1):
        ck.check(f"T columns w={w}",
                 lambda: bgg.verify_T_column_identities(bd, ops.t, w), _empty)
        ck.check(f"G properties w={w}",
                 lambda: bgg.verify_G_properties(bd, ops.hs, ops.t, ops.g, w), _empty)
        ck.check(f"chain maps w={w}",
                 lambda: bgg.verify_chain_maps(ops.bc, ops.b, w), _empty)
    for w in range(bd.w_max + 1):
        for i in range(bd.n + 1):
            ck.check(f"block structure i={i} w={w}",
                     lambda: bgg.verify_block_structure(ops, i, w), _empty)
    dims = ck.check("bgg_cohomology", lambda: bgg.bgg_cohomology(ops.bc))
    orders = ck.check("block_orders",
                      lambda: [ops.bc.block_orders(i) for i in range(bd.n)],
                      lambda r: r == want["fingerprint"]["operator_orders"])
    ck.check("fingerprint", lambda: {
        "upsilon_support": sorted([i, j, k] for (i, j), k in ops.hs.support().items()),
        "h0_total": sum(h for (i, _w), h in dims.items() if i == 0),
        "higher_vanishes": all(h == 0 for (i, _w), h in dims.items() if i > 0),
        "operator_orders": orders,
    }, lambda r: r == want["fingerprint"])
    ck.check("D,G digest", lambda: top_weight_digest(bd, ops),
             lambda r: r == want["digest"][size])
    ck.check("cohomology table digest", lambda: sha256_text("".join(
        f"{i} {w} {h}\n" for (i, w), h in sorted(dims.items()))),
        lambda r: r == want["table_digest"][size])


# -- cohomology ------------------------------------------------------------------


def cohomology_setup(ck: Checks, w_max: int, seed: int):
    return diagram.build(catalog.get("higher-hessian-3d(4)").spec, w_max)


def cohomology_run(ck: Checks, bd, size: str):
    """The order ``bggkit cohomology`` uses; one op per (i, w) checked three ways."""
    want = EXPECTED["cohomology"]
    twisted = ck.attempt("twisted_cohomology", lambda: diagram.twisted_cohomology(bd)) or {}
    ops = ck.attempt("derive", lambda: bgg.derive(bd))
    derived = ck.attempt("bgg_cohomology", lambda: bgg.bgg_cohomology(ops.bc)) or {}
    for w in range(bd.w_max + 1):
        for i in range(bd.n + 1):
            ck.check(f"dimension i={i} w={w}", lambda: (
                twisted[(i, w)], derived[(i, w)], diagram.row_cohomology_sum(bd, i, w)),
                lambda r: r[0] == r[1] == r[2])
    ck.check("h0_total", lambda: sum(h for (i, _w), h in twisted.items() if i == 0),
             lambda r: r == want["h0_total"])
    ck.check("cohomology table digest", lambda: sha256_text("".join(
        f"{i} {w} {h}\n" for (i, w), h in sorted(twisted.items()))),
        lambda r: r == want["table_digest"][size])


# -- energy ----------------------------------------------------------------------


def _x_field():
    return [energy.p_mono((1, 0, 0)), energy.p_mono((0, 1, 0)), energy.p_mono((0, 0, 1))]


def energy_setup(ck: Checks, pairs: int, seed: int):
    ones = ENERGY_PARAMS[0]
    zero3 = [{}, {}, {}]
    ck.check("identity displacement",
             lambda: energy.cosserat_energy(_x_field(), zero3, ones),
             lambda r: r == Fraction(15, 2))
    rot = [energy.p_mono((0, 0, 0), 1), energy.p_mono((0, 0, 0), -2),
           energy.p_mono((0, 0, 0), Fraction(1, 2))]
    ck.check("constant rotation",
             lambda: energy.cosserat_energy(zero3, rot, ones),
             lambda r: r == 2 * (1 + 4 + Fraction(1, 4)))
    rng = random.Random(seed)
    fields = [(params, energy.random_field(rng, 3, 3, 2), energy.random_field(rng, 3, 3, 2))
              for params in ENERGY_PARAMS for _ in range(pairs)]
    return fields, seed


def energy_run(ck: Checks, state, size: str):
    fields, seed = state
    for k, (params, u, omega) in enumerate(fields):
        t0 = perf_counter()
        ck.check(f"eval {k}", lambda: energy.cosserat_energy(u, omega, params),
                 lambda r: r >= 0)
        ck.op_ms.append((perf_counter() - t0) * 1e3)
    rng = random.Random(seed + 1)
    u = energy.random_field(rng, 3, 3, 2)
    phi = energy.random_field(rng, 3, 3, 2)
    sigma = energy.random_field(rng, 3, 1, 2)[0]
    omega = energy.random_field(rng, 3, 3, 2)
    alpha0 = energy.EnergyParams(mu=Fraction(2), lam=Fraction(3), alpha=Fraction(0))
    ck.check("dilation at alpha=0", lambda: (
        energy.generalized_dilation_energy(phi, u, alpha0),
        energy.elasticity_energy(u, alpha0)), lambda r: r[0] == r[1])
    ck.check("generalized three-row",
             lambda: energy.generalized_cosserat_energy(u, sigma, omega, phi, (1, 2, 3)))
    u2 = energy.random_field(rng, 2, 2, 2)
    phi2 = energy.random_field(rng, 2, 2, 2)
    s2 = energy.random_field(rng, 2, 1, 2)[0]
    o2 = energy.random_field(rng, 2, 1, 2)[0]
    ck.check("generalized plate",
             lambda: energy.generalized_plate_energy(u2, s2, o2, phi2, (1, 1, 2)))


# -- korn ------------------------------------------------------------------------


def korn_setup(ck: Checks, r_max: int, seed: int):
    return r_max


def korn_run(ck: Checks, r_max: int, size: str):
    rows = ck.attempt("korn2d_experiment", lambda: korn.korn2d_experiment(r_max))
    by_degree = {row.degree: row for row in rows or []}
    for r in range(3, r_max + 1):
        ck.check(f"degree {r}", lambda: by_degree[r], lambda row: (
            row.kernel_dim == 6 and row.first_order_kernel_dim == 2 * (r + 1)
            and row.sigma_min > 1e-10))


WORKLOADS = {
    "certify": (certify_setup, certify_run),
    "cohomology": (cohomology_setup, cohomology_run),
    "energy": (energy_setup, energy_run),
    "korn": (korn_setup, korn_run),
}
