"""Command-line front end: simulate, reconstruct, wigner, report.

Exit codes: 0 success, 1 bad input or I/O, 2 reconstruction did not
converge (a result is still written so the partial fit can be inspected).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

# each command imports what it runs, so --help and a usage error load no
# numpy, and only reconstruct loads the fit, only wigner the Wigner kernel

__all__ = ["main"]


def _apply_overrides(config, args):
    """The RunConfig with command-line values in place, checked like one
    read from a file."""
    flags = {"nbar": "nbar", "eta": "eta", "seed": "seed", "dim": "dim",
             "fixed_center_m": "fixed_center"}
    changes = {key: getattr(args, flag, None) for key, flag in flags.items()}
    changes = {key: value for key, value in changes.items() if value is not None}
    return dataclasses.replace(config, **changes)


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    from . import io as tio
    from .hilbert import PureState, expectation, number_operator
    from .simulate import NoiseSpec, add_noise, simulate_ideal

    config = _apply_overrides(tio.read_config(args.config), args)
    state = config.build_state()
    nbar_true = expectation(state, number_operator(config.space()))
    grid = config.grid(nbar_hint=nbar_true)
    observables = config.observation_level(grid, config.rotations(config.taus_us))
    record = simulate_ideal(state, observables)
    if config.eta > 0:
        record = add_noise(record, NoiseSpec(eta=config.eta, seed=config.seed))
    out = _outdir(args)
    record_path = os.path.join(out, "record.csv")
    tio.write_record(record, record_path)
    rho = state.density() if isinstance(state, PureState) else state
    state_path = os.path.join(out, "state_true.json")
    tio.write_density_matrix(rho, state_path)
    print(f"simulated {record.values.shape[0]} rotations x "
          f"{record.values.shape[1]} bins, nbar={record.nbar:.6g}")
    print(f"wrote {record_path}")
    print(f"wrote {state_path}")
    return 0


def _cmd_reconstruct(args) -> int:
    from . import io as tio
    from .maxent import fit

    config = _apply_overrides(tio.read_config(args.config), args)
    if args.record and args.cut:
        raise ValueError("pass either --record or --cut files, not both")
    if args.record:
        record = tio.read_record(args.record)
        if config.nbar is not None:
            record = dataclasses.replace(record, nbar=config.nbar)
    elif args.cut:
        record = config.cut_record([tio.read_cut_file(p) for p in args.cut])
    else:
        raise ValueError("reconstruct needs --record or at least one --cut")
    observables = config.observation_level(record.grid, record.rotations).with_record(record)
    state, report = fit(
        observables, max_iter=config.max_iter, grad_tol=config.grad_tol,
    )
    out = _outdir(args)
    rho_path = os.path.join(out, "rho.json")
    report_path = os.path.join(out, "report.json")
    tio.write_density_matrix(state.rho, rho_path)
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")
    print(f"delta_f = {report.delta_f:.6g}")
    print(f"entropy = {report.entropy:.6g}")
    print(f"nbar_fit = {report.nbar_fit:.6g}")
    print(f"converged = {report.converged} after {report.iterations} iterations")
    print(f"stop = {report.message}")
    print(f"wrote {rho_path}")
    print(f"wrote {report_path}")
    return 0 if report.converged else 2


def _cmd_wigner(args) -> int:
    from . import io as tio
    from .wigner import wigner_eval, write_wigner_csv, write_wigner_json

    rho = tio.read_density_matrix(args.rho)
    grid = wigner_eval(rho, span=args.span, points=args.points)
    out = _outdir(args)
    csv_path = os.path.join(out, "wigner.csv")
    json_path = os.path.join(out, "wigner.json")
    write_wigner_csv(grid, csv_path)
    write_wigner_json(grid, json_path)
    print(f"wigner grid {grid.values.shape[0]}x{grid.values.shape[1]}, "
          f"plane integral {grid.integral():.6f} (2pi = {2 * math.pi:.6f})")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def _cmd_report(args) -> int:
    from . import io as tio
    from .hilbert import FockSpace, entropy, expectation, fidelity, number_operator

    rho = tio.read_density_matrix(args.rho)
    nbar = expectation(rho, number_operator(FockSpace(rho.dim)))
    print(f"dim = {rho.dim}")
    print(f"entropy = {entropy(rho):.6g}")
    print(f"nbar = {nbar:.6g}")
    if args.fit:
        try:
            with open(args.fit) as fh:
                rep = json.load(fh)
        except ValueError as exc:  # a JSON syntax error or non-UTF-8 bytes
            raise ValueError(f"{args.fit}: {exc}") from None
        rep = rep if isinstance(rep, dict) else {}
        delta_f, converged = rep.get("delta_f"), rep.get("converged")
        if not isinstance(delta_f, (int, float)) or isinstance(delta_f, bool):
            raise ValueError(f"{args.fit}: fit report has no numeric 'delta_f', got {delta_f!r}")
        if not isinstance(converged, bool):
            raise ValueError(f"{args.fit}: fit report has no boolean 'converged', got {converged!r}")
        print(f"delta_f = {delta_f:.6g}")
        print(f"converged = {converged}")
    if args.reference:
        ref = tio.read_density_matrix(args.reference)
        if ref.dim != rho.dim:
            raise ValueError("reference and state dimensions differ")
        print(f"fidelity = {fidelity(ref, rho):.9g}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxent-tomo",
        description="maximum-entropy motional-state reconstruction from "
                    "time-of-flight data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic record")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None)
    sim.add_argument("--eta", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--dim", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    rec = sub.add_parser("reconstruct", help="fit a state to a record or cuts")
    rec.add_argument("--config", required=True)
    rec.add_argument("--record", default=None)
    rec.add_argument("--cut", action="append", default=None,
                     help="image-cut CSV, one per rotation (repeatable)")
    rec.add_argument("--nbar", type=float, default=None)
    rec.add_argument("--dim", type=int, default=None)
    rec.add_argument("--out", default=None)
    rec.add_argument("--fixed-center", type=float, default=None,
                     help="use this cloud center (m) for every cut instead of "
                          "per-image Gaussian fits")
    rec.set_defaults(func=_cmd_reconstruct)

    wig = sub.add_parser("wigner", help="evaluate the Wigner function of a "
                                        "stored density matrix")
    wig.add_argument("--rho", required=True)
    wig.add_argument("--out", default=None)
    wig.add_argument("--span", type=float, default=6.0)
    wig.add_argument("--points", type=int, default=257)
    wig.set_defaults(func=_cmd_wigner)

    rep = sub.add_parser("report", help="summarize a stored density matrix")
    rep.add_argument("--rho", required=True)
    rep.add_argument("--reference", default=None,
                     help="density matrix to compare against (fidelity)")
    rep.add_argument("--fit", default=None, help="fit report JSON to echo")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
