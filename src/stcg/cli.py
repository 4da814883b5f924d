"""Command-line front end: derive effective models, run simulations,
compare trajectories.

Exit codes: 0 success, 2 usage error, 3 model/validation error (including
a singular limit that does not exist), 4 numerical guard abort.  Artifacts
are written atomically (temp file + rename) and json output is
deterministic (sorted keys).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .contraction import UnresolvedSingularityError
from .model import (
    ModelSpec,
    assemble,
    export_model,
    load_effective,
    load_model,
    parse_quantity,
    prune_terms,
)
from .presets import PRESETS, get_preset
from .simulate import (
    DEFAULT_SAMPLES,
    NumericalGuardError,
    ObservableSpec,
    build_initial,
    compare_series,
    expectation_series,
    integrate,
)
from .symbols import GaussianFilter

USAGE_ERROR = 2
VALIDATION_ERROR = 3
NUMERICAL_ERROR = 4


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _parse_params(text: str | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for piece in (text or "").split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"--params entry {piece!r} is not name=value")
        name, value = (part.strip() for part in piece.split("=", 1))
        if name in out:
            raise ValueError(f"--params names {name!r} more than once")
        out[name] = parse_quantity(value)
    return out


def _load_model_arg(args) -> ModelSpec:
    if getattr(args, "preset", None):
        return load_model(get_preset(args.preset))
    if getattr(args, "model", None):
        return load_model(args.model)
    raise ValueError("one of --model or --preset is required")


def _with_tau(model: ModelSpec, tau_text: str | None) -> ModelSpec:
    if tau_text is None:
        return model
    tau = parse_quantity(tau_text)
    params = dict(model.params)
    params["tau"] = tau
    return replace(model, filter_spec=GaussianFilter(tau), params=params)


def _check_overrides(overrides, eff):
    """Reject a ``--params`` name that an effective model neither lists in
    its ``params`` nor uses in a coefficient or frequency, and ``tau``
    unless a coefficient uses it: a model derived at a numeric tau holds
    it as numbers."""
    terms = eff.hamiltonian + eff.dissipators
    values = [t.coeff for t in eff.hamiltonian]
    values += [t.rate for t in eff.dissipators]
    used = {s.name for v in values for s in v.free_symbols} - {"t"}
    if "tau" in overrides and "tau" not in used:
        raise ValueError(
            "tau is already numeric in this effective model (no coefficient "
            "uses it), so --params tau=... cannot change it"
        )
    known = set(eff.params) | used
    known |= {name for t in terms for name in t.freq.symbols}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(
            f"effective model declares no symbol(s) {sorted(unknown)}"
        )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_derive(args) -> int:
    if args.threshold is None:
        for flag in ("params", "window"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies only with --threshold")
    model = _with_tau(_load_model_arg(args), args.tau)
    eff = assemble(model, args.order)
    if args.threshold is not None:
        overrides = _parse_params(args.params)
        assignment = model.numeric_assignment(overrides)
        window = None
        if args.window is not None:
            window = (0.0, parse_quantity(args.window))
        eff = prune_terms(eff, args.threshold, assignment, window)
    if args.format == "json":
        _emit(args.output, _json_text(export_model(eff, "json")))
    else:
        _emit(args.output, export_model(eff, "text"))
    return 0


def _default_observables(modes):
    out = []
    for mode in modes:
        if mode.kind == "bosonic":
            out.append((f"n_{mode.name}", f"{mode.name}'*{mode.name}"))
        else:
            out.append((f"p_e_{mode.name}", "t(e,e)"))
    return out


def _cmd_simulate(args) -> int:
    overrides = _parse_params(args.params)
    if args.effective:
        with open(args.effective) as fh:
            generator = load_effective(fh.read())
        _check_overrides(overrides, generator)
        assignment = {**generator.params, **overrides}
        modes = generator.modes
    else:
        model = _load_model_arg(args)
        assignment = model.numeric_assignment(overrides)
        used = {s.name for t in model.terms for s in t.coeff.free_symbols}
        if "tau" in overrides and "tau" not in used:
            raise ValueError(
                "no coupling of the model uses tau, so --params tau=... "
                "cannot change its exact integration"
            )
        generator = model
        modes = model.modes

    observe = [
        entry.split("=", 1) if "=" in entry else (entry, entry)
        for entry in (args.observe or [])
    ] or _default_observables(modes)
    labels = [label for label, _ in observe]
    for label in labels:
        if not label.strip() or any(ch in label for ch in ",\r\n"):
            raise ValueError(
                f"--observe label {label!r} must be a csv column name: not "
                "empty, with no ',' or line break"
            )
    if "t" in labels or len(set(labels)) != len(labels):
        raise ValueError(f"--observe labels {labels} repeat a column name")
    observables = {
        label: ObservableSpec.parse(text, modes, label=label)
        for label, text in observe
    }

    rho0 = build_initial(modes, args.initial)
    t0 = parse_quantity(args.t0)
    t1 = parse_quantity(args.t1)
    dt = parse_quantity(args.dt) if args.dt else None
    traj = integrate(
        generator,
        rho0,
        (t0, t1),
        assignment,
        dt=dt,
        n_samples=args.samples,
    )
    columns = {
        label: expectation_series(traj, obs, assignment)
        for label, obs in observables.items()
    }
    lines = _render_csv(traj.times, columns)
    _emit(args.output, lines)
    return 0


def _render_csv(times, columns) -> str:
    names = ["t"]
    series = [np.asarray(times, dtype=float)]
    for label in columns:
        values = np.asarray(columns[label])
        if np.iscomplexobj(values) and np.max(np.abs(values.imag)) > 1e-12:
            names += [f"{label}_re", f"{label}_im"]
            series += [values.real, values.imag]
        else:
            names.append(label)
            series.append(values.real if np.iscomplexobj(values) else values)
    if len(set(names)) != len(names):
        raise ValueError(f"csv columns {names} repeat a column name")
    lines = [",".join(names)]
    for row in zip(*series):
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        # np.loadtxt warns on a file with no data rows; such a file has no
        # width to compare
        rows = [line for line in fh if line.split("#")[0].strip()]
    data = np.empty((0, 0))
    if rows:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    width = data.shape[1]
    if width != len(header):
        raise ValueError(
            f"{path}: {len(header)} column name(s), {width} in rows"
        )
    return header, data


def _cmd_compare(args) -> int:
    ref_names, ref = _read_csv(args.ref)
    test_names, test = _read_csv(args.test)
    if ref_names != test_names:
        raise ValueError(
            f"column mismatch: {ref_names} vs {test_names}"
        )
    if not (np.isfinite(ref).all() and np.isfinite(test).all()):
        raise ValueError("the files hold a value that is not finite")
    # Times carry 12 significant digits: equal grids agree far inside this.
    span = np.abs(ref[:, 0]).max(initial=0.0)
    if ref.shape != test.shape or not np.allclose(
        ref[:, 0], test[:, 0], rtol=0.0, atol=1e-9 * span
    ):
        raise ValueError("time grids differ between the two files")
    if len(set(ref_names)) != len(ref_names):
        raise ValueError(f"repeated column name in {ref_names}")
    metrics = {}
    for idx, name in enumerate(ref_names):
        if name == "t":
            continue
        metrics[name] = compare_series(ref[:, idx], test[:, idx])
    _emit(args.output, _json_text(metrics))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_model_source(parser: argparse.ArgumentParser, effective=False):
    parser.add_argument("--model", help="path to a model document (json)")
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="use a bundled model instead of --model",
    )
    if effective:
        parser.add_argument(
            "--effective",
            help="path to a derived effective model (json from `derive`)",
        )
    parser.add_argument(
        "--params",
        help="comma-separated symbol overrides, e.g. 'g=2pi*0.4GHz,tau=0.2ns'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stcg",
        description=(
            "Derive and simulate time-coarse-grained effective models of "
            "driven quantum systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser(
        "derive", help="assemble the effective generator for a model"
    )
    _add_model_source(derive)
    derive.add_argument(
        "--tau", help="filter width override (time quantity; 0 disables)"
    )
    derive.add_argument("--order", type=int, default=2)
    derive.add_argument(
        "--threshold",
        type=float,
        help="drop terms with peak magnitude below this (rad/s)",
    )
    derive.add_argument(
        "--window",
        help="time window end for peak-magnitude pruning (e.g. 50ns)",
    )
    derive.add_argument("--format", choices=("json", "text"), default="json")
    derive.add_argument("-o", "--output", help="output path (default stdout)")
    derive.set_defaults(func=_cmd_derive)

    simulate = sub.add_parser(
        "simulate", help="integrate a model or derived generator"
    )
    _add_model_source(simulate, effective=True)
    simulate.add_argument(
        "--initial",
        required=True,
        help="product state, one factor per mode: fock(n)|coherent(a)|g|e",
    )
    simulate.add_argument("--t0", default="0s")
    simulate.add_argument("--t1", required=True)
    simulate.add_argument("--dt", help="step override (time quantity)")
    simulate.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    simulate.add_argument(
        "--observe",
        action="append",
        help="label=operator column (repeatable); default: mode populations",
    )
    simulate.add_argument("-o", "--output", help="csv path (default stdout)")
    simulate.set_defaults(func=_cmd_simulate)

    compare = sub.add_parser(
        "compare", help="error metrics between two simulation csv files"
    )
    compare.add_argument("--ref", required=True)
    compare.add_argument("--test", required=True)
    compare.add_argument("-o", "--output", help="json path (default stdout)")
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except NumericalGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (
        ValueError, KeyError, OSError, UnresolvedSingularityError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
