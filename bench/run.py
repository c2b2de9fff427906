"""Outside-in benchmark of bggkit.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

A run repeats one workload in fresh interpreters (``worker.py``, one thread,
one process at a time) until ``--seconds`` is used up, so bggkit's
module-level caches start cold in every rep.  With ``--trace 0`` it reports
the end-to-end metrics as medians over the reps, the times in reference
seconds: each rep samples host speed with a fixed probe while it runs
(``worker.HostMeter``), which takes out the drift of a shared host's cores.
With ``--trace 1`` it alternates untraced and traced reps and reports the
per-layer metrics of the traced ones (in measured seconds, which include the
probe's few per cent) plus the tracing overhead in reference seconds.  The
last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the environment record and the per-rep details.

Workloads (why each was chosen):

* ``certify``: conf-deformation-3d, every identity certificate plus the
  derive fingerprint and the cohomology three ways; sparse matmul with small
  denominators dominates.
* ``cohomology``: higher-hessian-3d(4), the twisted cohomology, derive and the
  derived cohomology in the order ``bggkit cohomology`` runs them; elimination
  (rank) dominates, and every d_V rank is computed twice.
* ``energy``: 120 seeded Cosserat energy evaluations; many small identical
  requests, dominated by the per-evaluation Gram assembly (kron).
* ``korn``: the planar rigidity experiment; dense Gram products with large
  denominators, nullspaces and the only float code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify", "cohomology", "energy", "korn")
HARD_LIMIT_S = 165          # every run ends well inside the 180 s allowed
# One thread per rep: the float solve in korn must not fan out over BLAS threads.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

# Traced layers and the workloads on which each must record calls.
LAYERS = {
    "linalg.matmul": ("certify", "korn"),
    "linalg.add": ("certify",),
    "linalg.block_matrix": ("certify",),
    "linalg.kron": ("energy",),
    "linalg.apply": ("energy",),
    "linalg.rank": ("certify", "cohomology"),
    "linalg.nullspace": ("certify", "korn"),
    "linalg.column_space": ("certify", "korn"),
    "linalg.solve_dense": ("certify", "korn"),
    "linalg.projection_onto": ("certify", "korn"),
    "linalg.pinv_onto": ("certify", "korn"),
    "forms.exterior_derivative": ("certify",),
    "diagram.build": ("certify", "cohomology"),
    "diagram.column_ops": ("certify",),
    "diagram.verify_identities": ("certify",),
    "diagram.twisted_cohomology": ("certify", "cohomology"),
    "bgg.derive": ("certify", "cohomology", "korn"),
    "bgg.hodge_split": ("certify",),
    "bgg.compute_T": ("certify",),
    "bgg.compute_D": ("certify",),
    "bgg.G_column": ("certify",),
    "bgg.projection": ("certify",),
    "bgg.verify_T_column_identities": ("certify",),
    "bgg.verify_G_properties": ("certify",),
    "bgg.verify_chain_maps": ("certify",),
    "bgg.verify_block_structure": ("certify",),
    "bgg.bgg_cohomology": ("certify", "cohomology"),
    "cube.stacked_cube_gram": ("energy",),
    "cube.mono_cube_gram": ("energy",),
    "energy.l2sq": ("energy",),
    "korn.korn2d_experiment": ("korn",),
    "korn.eigh": ("korn",),
    "export.write_matrix_market": ("certify",),
}

COUNTERS = [
    ("linalg.matmul.madds", "count"),
    ("linalg.matmul.nnz_out", "count"),
    ("linalg.matmul.dense_frac", "ratio"),
    ("linalg.matmul.max_den_bits", "bits"),
    ("linalg.kron.nnz_out", "count"),
    ("linalg.rank.nnz_in", "count"),
    ("linalg.rank.distinct_frac", "ratio"),
    ("linalg.nullspace.distinct_frac", "ratio"),
    ("linalg.solve_dense.distinct_frac", "ratio"),
    ("cube.stacked_cube_gram.nnz_out", "count"),
    ("cube.mono_cube_gram.hit_ratio", "ratio"),
    ("energy.eval_p50_ms", "ms"),
    ("energy.eval_p90_ms", "ms"),
    ("process.cpu_s", "s"),
    ("process.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("env.host_probe_ms", "ms"),
]


def per_layer_spec() -> list:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s"), (f"{layer}.self_s", "s")]
    return out + COUNTERS


class BenchError(Exception):
    pass


# -- environment record ----------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bggkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# -- reps ----------------------------------------------------------------------------


def run_rep(workload: str, size: str, seed: int, trace: int, broken: bool,
            deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, "--size", size,
           "--seed", str(seed), "--trace", str(trace)] + (["--broken"] if broken else [])
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = deadline - start
    if timeout <= 1:
        raise BenchError("no time left for another rep")
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} rep did not finish within {timeout:.0f} s")
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if res.returncode != 0:
        raise BenchError(f"{workload} rep exited {res.returncode}:\n{res.stderr[-3000:]}")
    rec = json.loads(res.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("setup_end") - start
    rec["rep_s"] = end - start
    rec["trace"] = trace
    meter, setup_meter = rec["meter"], rec["setup_meter"]
    rec["work_s"] = rec["wall_s"] - meter["probe_s"]
    rec["cpu_s"] -= meter["probe_s"]
    rec["wall_ref_s"] = rec["work_s"] * meter["scale"]
    rec["setup_ref_s"] = (rec["setup_s"] - setup_meter["probe_s"]) * setup_meter["scale"]
    rec["probe_ms"] = meter["probe_s"] / meter["probes"] * 1e3
    return rec


def run_reps(workload: str, size: str, seed: int, seconds: int, trace: int,
             broken: bool) -> list:
    """Reps (untraced, or untraced/traced pairs) until the next would overrun."""
    start = time.monotonic()
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + HARD_LIMIT_S
    min_cycles = 2 if trace else 3
    reps, cycles = [], []
    while True:
        t0 = time.monotonic()
        for kind in ((0, 1) if trace else (0,)):
            reps.append(run_rep(workload, size, seed, kind, broken, deadline))
        cycles.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        nxt = statistics.median(cycles)
        if elapsed + nxt > HARD_LIMIT_S - 10:
            break
        if len(cycles) >= min_cycles and elapsed + nxt > seconds:
            break
    return reps


def latency(samples: list) -> tuple:
    """p50 and p90 of per-op latencies; zeros where a workload times no single op."""
    if len(samples) < 2:
        return 0.0, 0.0
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]


def measure(workload: str, seed: int, seconds: int, trace: int, size: str = "full",
            broken: bool = False) -> tuple:
    """Run one benchmark run; returns (result, detail)."""
    if not (ROOT / "src" / "bggkit" / "__init__.py").is_file():
        raise BenchError(f"bggkit sources not found under {ROOT / 'src'}")
    env = environment(seed)
    reps = run_reps(workload, size, seed, seconds, trace, broken)
    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    env["host_probe_ms"] = statistics.median(r["probe_ms"] for r in plain)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    op_ms = [ms for r in plain for ms in r["op_ms"]]
    med = statistics.median
    if trace:
        metrics = {}
        layers = [r["layers"] for r in traced]
        for name, _unit in per_layer_spec():
            metrics[name] = med([lay.get(name, 0) for lay in layers])
        metrics["energy.eval_p50_ms"], metrics["energy.eval_p90_ms"] = latency(op_ms)
        metrics["process.cpu_s"] = med([r["cpu_s"] for r in plain])
        metrics["process.wall_s"] = med([r["work_s"] for r in plain])
        metrics["trace.overhead_frac"] = (med([r["wall_ref_s"] for r in traced])
                                          / med([r["wall_ref_s"] for r in plain]))
        metrics["env.host_probe_ms"] = env["host_probe_ms"]
        units = dict(per_layer_spec())
        idle = [layer for layer, wls in LAYERS.items()
                if workload in wls and not metrics[f"{layer}.calls"]]
        if idle:
            raise BenchError(f"traced {workload} run recorded no calls on: "
                             + ", ".join(idle))
    else:
        metrics = {
            "setup_s": med([r["setup_ref_s"] for r in plain]),
            "wall_s": med([r["wall_ref_s"] for r in plain]),
            "peak_rss_mb": med([r["rss_mb"] for r in plain]),
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload, "size": size, "trace": trace, "env": env,
        "reps": [{k: r.get(k) for k in ("trace", "setup_s", "wall_s", "cpu_s", "rss_mb",
                                        "ops", "attempted", "rep_s", "work_s", "setup_ref_s",
                                        "wall_ref_s", "probe_ms")}
                 | {"failed": len(r["failures"])} for r in reps],
        "op_latency_ms": dict(zip(("n", "p50", "p90"), (len(op_ms),) + latency(op_ms))),
        "failures": [f for r in reps for f in r["failures"]][:20],
        "notes": [n for r in reps for n in r["notes"]][:20],
    }
    return result, detail


# -- self-test -------------------------------------------------------------------


def self_test() -> int:
    """Tiny runs of every workload in both modes, then a broken diagram."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", per_layer_spec())):
        theirs = [(m["name"], m["unit"]) for m in declared[key]]
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace, spec in ((0, END_TO_END), (1, per_layer_spec())):
            result, detail = measure(workload, 1, 1, trace, size="tiny")
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            fail_frac = result["failed"] / result["attempted"]
            print(f"{workload} trace={trace}: {len(got)} metrics, "
                  f"attempted {result['attempted']}, fail_frac {fail_frac}")
            if got != spec:
                problems.append(f"{workload} trace={trace}: metric names or units differ")
            if fail_frac != 0 or not result["correct"]:
                problems.append(f"{workload} trace={trace}: failures {detail['failures']}")
    result, detail = measure("certify", 1, 1, 0, size="tiny", broken=True)
    fail_frac = result["failed"] / result["attempted"]
    print(f"broken conf-deformation-3d: attempted {result['attempted']}, "
          f"fail_frac {fail_frac:.3f}")
    for line in detail["failures"][:5]:
        print(f"  {line}")
    if fail_frac <= 0:
        problems.append("broken diagram passed every check")
    for p in problems:
        print(f"SELF-TEST FAIL: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check metric names, units and the failure gate")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
