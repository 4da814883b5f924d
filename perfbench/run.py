"""Benchmark of stcg: symbolic derivation, small-dimension evolution with
many dissipators, and full-scale verification at large dimension.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One run is one process with a single closed-loop client.
``--seconds`` fixes the amount of work (see ``workloads``), ``--seed`` the
inputs.  Every request's output is checked.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run, whose spans are also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Hash seed every run is pinned to: sympy's internal ordering, and with it
#: the cost of a derivation, follows it.
HASH_SEED = "0"
#: Fresh processes whose set-up time is sampled for ``setup_s``.
SETUP_SAMPLES = 5
#: Time spent measuring the BLAS matmul rate after warm-up.
BLAS_PROBE_S = 0.3


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pinned_env() -> dict:
    """Environment of the workload process: fixed hash seed, BLAS and OpenMP
    threads capped at the number of usable cores."""
    env = dict(os.environ)
    threads = str(_nproc())
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _exec_pinned():
    """Re-execute this script in place with the pinned environment unless it
    already runs with it (the hash seed is fixed at interpreter start)."""
    env = _pinned_env()
    keys = ("PYTHONHASHSEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    if all(os.environ.get(k) == env[k] for k in keys):
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _import_library():
    """Import ``stcg`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stcg

    origin = Path(stcg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"stcg imported from {origin}, not from {src}")
    sys.path.insert(0, str(BENCH))


def _self_command(args, **overrides) -> list[str]:
    opts = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, role=args.role,
    )
    opts.update(overrides)
    cmd = [sys.executable, str(Path(__file__).resolve())]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    return cmd


def _sample_setup(args) -> list[float]:
    """Wall time from spawning a fresh process until it reports its inputs
    ready, for ``SETUP_SAMPLES`` processes run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            _self_command(args, role="setup"),
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        samples.append(ready - start)
    return samples


def _untraced_run_s(args) -> float:
    """``run_s`` of an untraced run of the same workload and seed."""
    proc = subprocess.run(
        _self_command(args, trace=0, role="untraced"),
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["run_s"]["value"]


def _warm_blas(d, probe_s) -> float:
    """Warm BLAS at dimension ``d``, then return the complex matmul rate in
    GFLOP/s (8*d^3 flops per product) measured over ``probe_s`` seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for _ in range(200):
        a @ b
    calls = 0
    start = time.perf_counter()
    while time.perf_counter() - start < probe_s:
        for _ in range(20):
            a @ b
        calls += 20
    return calls * 8 * d**3 / (time.perf_counter() - start) / 1e9


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment(args) -> dict:
    import numpy
    import sympy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": _nproc(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "machine": platform.machine(),
    }


def _timed_phase(workload, tracer):
    """Send every request in turn; an exception or a failed check counts
    as a failed request and the run goes on."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    for index, req in enumerate(workload.requests):
        tracer.request = index
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.request"):
                info = workload.run(req, tracer)
            error = None
        except Exception as exc:  # every failure is counted, not fatal
            info, error = {}, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        outcomes.append((req["label"], latencies[-1], info, error))
    tracer.request = None
    return time.perf_counter() - start, latencies, outcomes


def _install(tracer):
    """Wrap the library's public functions at the sites it calls them from."""
    from stcg import contraction, model, operators, simulate

    def integrate_kind(args):
        kind = "tcg" if isinstance(args[0], model.EffectiveModel) else "exact"
        return f"simulate.integrate_{kind}"

    def integrate_info(args, kwargs, traj):
        gen = args[0]
        effective = isinstance(gen, model.EffectiveModel)
        d = traj.states.shape[1]
        return {
            "steps": traj.meta["stride"] * (len(traj.times) - 1),
            "dim": d,
            "ham_terms": len(gen.hamiltonian if effective else gen.terms),
            "diss_terms": len(gen.dissipators) if effective else 0,
            "snapshot_bytes": len(traj.times) * d * d * 16,
        }

    def assemble_info(args, kwargs, eff):
        n, order = len(args[0].terms), args[1]
        return {
            "tuples": sum(k * n**k for k in range(1, order + 1)),
            "terms_out": len(eff.hamiltonian) + len(eff.dissipators),
        }

    w = tracer.wrap
    w(model, "load_model", "model.load")
    w(model, "assemble", "model.assemble", after=assemble_info)
    w(model, "export_model", "model.export")
    w(model, "load_effective", "model.load_effective")
    w(model, "contraction_coefficient", "contraction.coefficient")
    w(contraction, "diagram_contribution", "contraction.diagram")
    w(contraction, "regularize_singular", "contraction.series")
    w(operators.OperatorSum, "matmul", "operators.matmul")
    w(operators.OperatorSum, "matrix", "operators.matrix")
    w(model, "parse_operator", "operators.parse")
    w(simulate, "parse_operator", "operators.parse")
    w(operators, "scalar_eval", "symbols.scalar_eval")
    w(simulate, "integrate", integrate_kind, after=integrate_info)
    w(simulate, "coarse_grain_trajectory", "simulate.coarse_grain")
    w(simulate, "expectation_series", "simulate.expectation")
    w(simulate, "compare_series", "simulate.compare")


def _per_layer(stats, run_s, untraced_run_s, blas_gflops):
    """Per-layer metrics from the spans of a traced run."""
    calls = stats.calls.get
    busy = lambda name: stats.busy.get(name, 0.0)  # noqa: E731

    def ratio(num, den):
        return num / den if den else 0.0

    coeff_calls = calls("contraction.coefficient", 0)
    computed = stats.with_children("contraction.coefficient")
    diagrams = calls("contraction.diagram", 0)
    assembles = stats.info("model.assemble")
    tcg = stats.info("simulate.integrate_tcg")
    steps = sum(i["steps"] for i in tcg)
    rhs = 4 * steps
    d = tcg[-1]["dim"] if tcg else 0
    diss = tcg[-1]["diss_terms"] if tcg else 0
    # matmuls per RHS evaluation: h@rho and rho@h, then per dissipator
    # (L@rho)@J, JL@rho and rho@JL
    flops = sum(
        4 * i["steps"] * 8 * i["dim"] ** 3 * (2 + 4 * i["diss_terms"])
        for i in tcg
    )
    tcg_busy = busy("simulate.integrate_tcg")
    snapshots = [
        i["snapshot_bytes"]
        for name in ("simulate.integrate_tcg", "simulate.integrate_exact")
        for i in stats.info(name)
    ]
    values = {
        "contraction.calls": (coeff_calls, "count"),
        "contraction.computed": (computed, "count"),
        "contraction.hit_ratio": (ratio(coeff_calls - computed, coeff_calls), "ratio"),
        "contraction.busy_s": (busy("contraction.coefficient"), "s"),
        "contraction.self_s": (stats.layer_self("contraction"), "s"),
        "contraction.series.calls": (calls("contraction.series", 0), "count"),
        "contraction.series.busy_s": (busy("contraction.series"), "s"),
        "contraction.regular_ok_ratio": (
            ratio(diagrams - stats.failed.get("contraction.diagram", 0), diagrams),
            "ratio",
        ),
        "diagrams.count": (diagrams, "count"),
        "operators.matmul.calls": (calls("operators.matmul", 0), "count"),
        "operators.matmul.busy_s": (busy("operators.matmul"), "s"),
        "operators.matrix.calls": (calls("operators.matrix", 0), "count"),
        "operators.matrix.busy_s": (busy("operators.matrix"), "s"),
        "operators.parse.busy_s": (busy("operators.parse"), "s"),
        "symbols.scalar_eval.calls": (calls("symbols.scalar_eval", 0), "count"),
        "symbols.scalar_eval.busy_s": (busy("symbols.scalar_eval"), "s"),
        "model.load.busy_s": (busy("model.load"), "s"),
        "model.load_effective.busy_s": (busy("model.load_effective"), "s"),
        "model.assemble.busy_s": (busy("model.assemble"), "s"),
        "model.assemble.self_s": (stats.self_time.get("model.assemble", 0.0), "s"),
        "model.export.busy_s": (busy("model.export"), "s"),
        "model.tuples": (sum(i["tuples"] for i in assembles), "count"),
        "model.terms_out": (sum(i["terms_out"] for i in assembles), "count"),
        "simulate.integrate_tcg.busy_s": (tcg_busy, "s"),
        "simulate.integrate_tcg.self_s": (
            stats.self_time.get("simulate.integrate_tcg", 0.0), "s"
        ),
        "simulate.integrate_exact.busy_s": (busy("simulate.integrate_exact"), "s"),
        "simulate.coarse_grain.busy_s": (busy("simulate.coarse_grain"), "s"),
        "simulate.expectation.busy_s": (busy("simulate.expectation"), "s"),
        "simulate.compare.busy_s": (busy("simulate.compare"), "s"),
        "simulate.self_s": (stats.layer_self("simulate"), "s"),
        "simulate.rk4_steps": (steps, "count"),
        "simulate.rhs_evals": (rhs, "count"),
        "simulate.rhs_us": (ratio(tcg_busy, rhs) * 1e6, "us"),
        "simulate.dim": (d, "count"),
        "simulate.ham_terms": (tcg[-1]["ham_terms"] if tcg else 0, "count"),
        "simulate.diss_terms": (diss, "count"),
        "simulate.flops": (flops, "flop"),
        "simulate.gflops": (ratio(flops, tcg_busy) / 1e9, "GFLOP/s"),
        "simulate.blas_gflops": (blas_gflops, "GFLOP/s"),
        "simulate.snapshot_mib": (max(snapshots, default=0) / 2**20, "MiB"),
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (run_s - untraced_run_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: "setup" processes report their set-up and exit; "untraced"
    # runs skip the set-up samples
    parser.add_argument(
        "--role", choices=("run", "setup", "untraced"), default="run",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)

    _exec_pinned()
    _import_library()
    import workloads
    from tracer import SpanStats, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.role == "setup":
        cls(args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    traced = args.trace == 1 and args.role == "run"
    setup_samples = _sample_setup(args) if args.role == "run" and not traced else []
    untraced_run_s = _untraced_run_s(args) if traced else None

    tracer = Tracer(enabled=traced)
    if traced:
        _install(tracer)
    workload = cls(args.seed, args.seconds)
    blas_gflops = _warm_blas(cls.dim, BLAS_PROBE_S)
    run_s, latencies, outcomes = _timed_phase(workload, tracer)
    tracer.unwrap_all()
    peak = _peak_rss_mib()

    failed = sum(1 for *_, error in outcomes if error)
    env = _environment(args)
    print("# environment " + json.dumps(env, sort_keys=True))
    for label, latency, info, error in outcomes:
        status = "FAIL " + error if error else "ok"
        extra = " ".join(f"{k}={v:.6g}" for k, v in info.items())
        print(f"# request {label}: {latency:.4f} s {extra} {status}")
    rms = [info["tcg_rms"] for *_, info, _ in outcomes if "tcg_rms" in info]
    print(f"# req_n {len(latencies)}  failed_frac {failed / len(latencies):.4g}"
          + (f"  tcg_rms {statistics.median(rms):.6g}" if rms else ""))
    print(f"# blas complex matmul d={cls.dim}: {blas_gflops:.3f} GFLOP/s (measured)")

    if traced:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        stats = SpanStats(tracer.spans)
        metrics = _per_layer(stats, run_s, untraced_run_s, blas_gflops)
        print(
            f"# integrate_tcg: {metrics['simulate.flops']['value']:.4g} flop "
            f"at {metrics['simulate.gflops']['value']:.3f} GFLOP/s (computed)"
            f" beside BLAS {blas_gflops:.3f} GFLOP/s at d={cls.dim} (measured)"
        )
        print("# self time by span name (s):")
        for name, t in sorted(stats.self_time.items(), key=lambda kv: -kv[1]):
            print(f"#   {name:32s} {t:10.4f}  calls {stats.calls[name]}")
    else:
        setup_s = statistics.median(setup_samples) if setup_samples else 0.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "req_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
        print("# setup samples (s): " + " ".join(f"{s:.4f}" for s in setup_samples))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
