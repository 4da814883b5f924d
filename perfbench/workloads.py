"""The benchmark's three workloads: seeded inputs, requests and checks.

Every workload is a single client in a closed loop: it sends the next
request only after the previous one has returned.  ``stcg`` receives only
the inputs generated here from the seed.  Library functions are looked up
through their modules at call time (``smodel.assemble`` rather than a
name imported once), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from stcg import model as smodel
from stcg import presets as spresets
from stcg import simulate as ssim
from stcg import symbols as ssym

NS = 1e-9
DATA = Path(__file__).resolve().parent / "data"

#: Numeric averaging widths drawn by ``derive``, in ns: 0.10, 0.11, ..., 0.50.
TAU_GRID_NS = tuple(round(0.10 + 0.01 * i, 2) for i in range(41))

#: Relative bound on the trace and anti-Hermitian residuals of a derived
#: generator, as in the structural-properties acceptance test.
GENERATOR_TOL = 1e-10
#: Bounds on every stored density matrix of a trajectory.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-6
#: Bosonic levels kept when a derived generator is checked.
CHECK_TRUNCATION = 6

#: Nominal cost on the reference machine (2-core x86_64, OpenBLAS), used to
#: turn ``--seconds`` into a fixed amount of work: one derivation pass of the
#: request mix, one ``evolve`` request, one ns of ``verify`` window.
DERIVE_PASS_S = 26.0
EVOLVE_REQUEST_S = 4.3
VERIFY_S_PER_NS = 4.2


class RequestFailed(Exception):
    """A request returned, but its output failed the correctness check."""


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def _ghz(rng, lo, hi):
    return 2 * math.pi * rng.uniform(lo, hi) * 1e9


def _rabi_doc():
    return spresets.get_preset("rabi")


def _no_free_symbols(rng):
    return {}


def _cavity_qubit_doc():
    """Detuned cavity-qubit model of the second-order acceptance table."""
    return {
        "name": "cavity-qubit",
        "modes": [
            {"name": "a", "kind": "bosonic", "truncation": 4},
            {"name": "q", "kind": "two_level"},
        ],
        "symbols": {"wa": None, "wc": None, "g": None},
        "terms": [
            {"coupling": "g/2", "frequency": "wc+wa", "operator": "a*sm"},
            {"coupling": "g/2", "frequency": "wc-wa", "operator": "a*sp"},
            {"coupling": "g/2", "frequency": "wa-wc", "operator": "a'*sm"},
            {"coupling": "g/2", "frequency": "-wc-wa", "operator": "a'*sp"},
        ],
    }


def _cavity_qubit_point(rng):
    return {
        "wa": _ghz(rng, 4.0, 5.0),
        "wc": _ghz(rng, 5.5, 6.5),
        "g": _ghz(rng, 0.05, 0.3),
    }


def _duffing_doc():
    return spresets.get_preset("duffing")


def _drive_doc():
    """One bosonic mode driven at ``w1`` (linear) and ``2*w1`` (squeezing)."""
    return {
        "name": "drive",
        "modes": [{"name": "a", "kind": "bosonic", "truncation": 3}],
        "symbols": {"w1": None, "c0": None, "c1": None},
        "terms": [
            {"coupling": "c0/2", "frequency": "w1", "operator": "a"},
            {"coupling": "c0/2", "frequency": "-w1", "operator": "a'"},
            {"coupling": "c1/2", "frequency": "2*w1", "operator": "a^2"},
            {"coupling": "c1/2", "frequency": "-2*w1", "operator": "a'^2"},
        ],
    }


def _drive_point(rng):
    return {
        "w1": _ghz(rng, 1.0, 3.0),
        "c0": _ghz(rng, 0.05, 0.4),
        "c1": _ghz(rng, 0.05, 0.4),
    }


def _ramped_doc():
    """Squeeze drive at ``+-2*wp`` turned on linearly over ``T``, plus a
    static Kerr term."""
    return {
        "name": "ramped-squeeze",
        "modes": [{"name": "a", "kind": "bosonic", "truncation": 10}],
        "symbols": {
            "wp": "2pi*8GHz",
            "beta0": "2pi*200MHz",
            "chi": "2pi*68MHz",
            "T": "50ns",
        },
        "ramps": [{"symbol": "beta0", "duration": "T"}],
        "terms": [
            {"coupling": "beta0", "frequency": "2*wp", "operator": "a^2"},
            {"coupling": "beta0", "frequency": "-2*wp", "operator": "a'^2"},
            {"coupling": "-chi/2", "frequency": "0", "operator": "a'^2*a^2"},
        ],
    }


#: (family, document builder, order, numeric point builder for the check).
#: Symbols a document leaves open are drawn by the point builder.
DERIVE_MIX = (
    ("rabi-o2", _rabi_doc, 2, _no_free_symbols),
    ("cavity-qubit-o2", _cavity_qubit_doc, 2, _cavity_qubit_point),
    ("duffing-o2", _duffing_doc, 2, _no_free_symbols),
    ("drive-o2", _drive_doc, 2, _drive_point),
    ("drive-o3", _drive_doc, 3, _drive_point),
    ("ramped-squeeze-o1", _ramped_doc, 1, _no_free_symbols),
)


def _random_state(rng, dim):
    raw = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
         for _ in range(dim)]
    )
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def generator_residual(payload, point, rng) -> float:
    """Largest of ``|tr L(rho)|`` and ``max|L(rho) - L(rho)^H|`` for the
    exported generator ``L`` at a numeric point and time ``point["t"]``,
    relative to the summed magnitude of the individual term contributions.

    ``rho`` is a random density matrix.  Both properties hold at any
    truncation, so bosonic modes are cut to ``CHECK_TRUNCATION`` levels.
    """
    payload = dict(payload)
    payload["modes"] = [
        dict(m, truncation=min(m["truncation"], CHECK_TRUNCATION))
        if m["kind"] == "bosonic" else m
        for m in payload["modes"]
    ]
    eff = smodel.load_effective(payload)
    rho = _random_state(rng, int(np.prod([m.dim for m in eff.modes])))
    t = point["t"]
    parts = []
    for term in eff.hamiltonian:
        c = ssym.scalar_eval(term.coeff, point)
        c *= np.exp(-1j * term.freq.evaluate(point) * t)
        m = term.op.matrix()
        parts.append(-1j * c * (m @ rho - rho @ m))
    for term in eff.dissipators:
        c = ssym.scalar_eval(term.rate, point)
        c *= np.exp(-1j * term.freq.evaluate(point) * t)
        lmat = term.left.matrix()
        jmat = term.right.matrix()
        jl = jmat @ lmat
        parts.append(c * (lmat @ rho @ jmat - 0.5 * (jl @ rho + rho @ jl)))
    if not parts:
        raise RequestFailed("derived generator has no terms")
    drho = sum(parts)
    scale = sum(float(np.max(np.abs(p))) for p in parts)
    if not math.isfinite(scale) or scale == 0.0:
        raise RequestFailed(f"generator scale is {scale}")
    residual = max(
        abs(np.trace(drho)), float(np.max(np.abs(drho - drho.conj().T)))
    )
    return residual / scale


class Derive:
    """A stream of derivation requests: ``load_model`` -> ``assemble`` ->
    ``export_model("json")`` -> check of trace and Hermiticity."""

    name = "derive"
    dim = 60  # size of the BLAS warm-up; derive integrates nothing

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        passes = max(1, round(seconds / DERIVE_PASS_S))
        n = passes * len(DERIVE_MIX)
        if n > len(TAU_GRID_NS):
            raise ValueError(f"{n} requests exceed the {len(TAU_GRID_NS)} distinct tau values")
        taus = rng.sample(TAU_GRID_NS, n)
        order = [entry for _ in range(passes) for entry in DERIVE_MIX]
        rng.shuffle(order)
        self.requests = []
        for (family, build, k, draw), tau in zip(order, taus):
            doc = build()
            doc["filter"] = {"kind": "gaussian", "tau": f"{tau}ns"}
            self.requests.append(
                {
                    "label": f"{family} tau={tau}ns",
                    "doc": doc,
                    "order": k,
                    "point": draw(rng),
                    "check_seed": rng.randrange(2**32),
                }
            )

    def run(self, req, tracer):
        model = smodel.load_model(req["doc"])
        eff = smodel.assemble(model, req["order"])
        payload = json.loads(json.dumps(smodel.export_model(eff, "json")))
        with tracer.span("bench.check", record_inner=False):
            rng = random.Random(req["check_seed"])
            point = model.numeric_assignment(req["point"])
            point["t"] = rng.uniform(0.0, 5.0) * NS
            residual = generator_residual(payload, point, rng)
        if not residual <= GENERATOR_TOL:
            raise RequestFailed(f"generator residual {residual:.2e}")
        return {"terms": len(eff.hamiltonian) + len(eff.dissipators)}


# ---------------------------------------------------------------------------
# evolve / verify
# ---------------------------------------------------------------------------


def check_states(traj, label):
    """Every stored density matrix is Hermitian with unit trace."""
    for i, rho in enumerate(traj.states):
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        drift = abs(np.trace(rho) - 1.0)
        if not (herm <= HERMITIAN_TOL and drift <= TRACE_TOL):
            raise RequestFailed(
                f"{label} state {i}: anti-Hermitian {herm:.1e}, "
                f"trace drift {drift:.1e}"
            )


def _load_effective(path, truncation=None):
    doc = json.loads(path.read_text())
    if truncation is not None:
        doc["modes"][0]["truncation"] = truncation
    return smodel.load_effective(doc)


def compare_window(eff, model, rho0, window_ns, sample_ns):
    """Effective trajectory against the coarse-grained exact one on
    ``[0, window]``; returns the absolute RMS error of ``t(e,e)``."""
    assignment = model.numeric_assignment()
    tau = float(model.filter_spec.tau)
    ds = sample_ns * NS
    n_inner = round(window_ns / sample_ns) + 1
    margin = int(math.ceil(ssim.KERNEL_SUPPORT * tau / ds))
    obs = ssim.ObservableSpec.parse("t(e,e)", model.modes)
    exact = ssim.integrate(
        model,
        rho0,
        (-margin * ds, window_ns * NS + margin * ds),
        assignment,
        n_samples=n_inner + 2 * margin,
    )
    check_states(exact, "exact")
    smoothed = ssim.coarse_grain_trajectory(exact, tau)
    del exact
    check_states(smoothed, "coarse-grained")
    ref = ssim.expectation_series(smoothed, obs).real
    del smoothed
    traj = ssim.integrate(
        eff,
        rho0,
        (0.0, window_ns * NS),
        assignment,
        n_samples=n_inner,
    )
    check_states(traj, "effective")
    pe = ssim.expectation_series(traj, obs).real
    rms = ssim.compare_series(ref, pe)["rms"]
    if not math.isfinite(rms):
        raise RequestFailed(f"tcg_rms is {rms}")
    return rms


class Evolve:
    """Integration requests on the exported order-3 ``rabi`` model
    (truncation 30, dimension 60), each checked against the
    coarse-grained exact dynamics at the same dimension."""

    name = "evolve"
    dim = 60
    window_ns = 0.3
    sample_ns = 0.03

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        self.eff = _load_effective(DATA / "rabi_order3.json")
        self.model = smodel.load_model(spresets.get_preset("rabi"))
        n = max(1, round(seconds / EVOLVE_REQUEST_S))
        self.requests = []
        for _ in range(n):
            alpha = round(rng.uniform(1.5, 2.5), 4)
            qubit = rng.choice("eg")
            self.requests.append(
                {
                    "label": f"coherent({alpha})*{qubit}",
                    "rho0": ssim.build_initial(
                        self.model.modes, f"coherent({alpha})*{qubit}"
                    ),
                }
            )

    def run(self, req, tracer):
        rms = compare_window(
            self.eff, self.model, req["rho0"], self.window_ns, self.sample_ns
        )
        return {"tcg_rms": rms}


class Verify:
    """One full-scale request: ``rabi`` at truncation 100 (dimension 200),
    exact integration with margins, coarse-graining, order-1 effective
    integration and comparison, sampled every 0.07 ns as in the full-scale
    acceptance test.  Both integrations use the library's default step."""

    name = "verify"
    dim = 200
    truncation = 100
    sample_ns = 0.07

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        doc = spresets.get_preset("rabi")
        doc["modes"][0]["truncation"] = self.truncation
        self.model = smodel.load_model(doc)
        self.eff = _load_effective(DATA / "rabi_order1.json", self.truncation)
        steps = max(1, round(seconds / VERIFY_S_PER_NS / self.sample_ns))
        self.window_ns = round(steps * self.sample_ns, 6)
        alpha = round(rng.uniform(4.0, 4.5), 4)
        self.requests = [
            {
                "label": f"coherent({alpha})*e window={self.window_ns}ns",
                "rho0": ssim.build_initial(
                    self.model.modes, f"coherent({alpha})*e"
                ),
            }
        ]

    def run(self, req, tracer):
        rms = compare_window(
            self.eff, self.model, req["rho0"], self.window_ns, self.sample_ns
        )
        return {"tcg_rms": rms}


WORKLOADS = {cls.name: cls for cls in (Derive, Evolve, Verify)}
