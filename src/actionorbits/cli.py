"""orbitctl: command-line driver for orbit discovery and analysis.

Subcommands
-----------
seed          build a family model and write a seed record
minimize      run action descent on a record and store the result
verify        recompute residual, symmetry error, and return error
perturb       displace initial conditions and track the deviation
observe       emit an observables time series (E, J, inertia, quadrupole)
export-table  normalized coefficient table, fixed-point text
export-traj   trajectory samples for plotting, from the adaptive DOP853
              drive that verify and perturb use, written in blocks as the
              drive reaches them (to stdout as they come, to --out
              atomically)

Exit codes: 0 success, 1 usage or record error, 2 collision,
3 escape / deviation envelope exited, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .descent import DescentSchedule, StopRule, run
from .dynamics import min_pair_distance, observables_series
from .errors import (CollisionError, IntegrationError, OrbitError, RecordError)
from .integrate import BOUNDED, perturb_and_track, trajectory_blocks
from .quadrature import QuadratureGrid
from .records import (RESIDUAL_CERTIFICATE, _text_rows, _trajectory_chunks,
                      build_family, certify, export_table, load_record,
                      make_record, record_to_model, save_record, write_text)
from .symmetry import sample_positions
from .potential import PotentialSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COLLISION = 2
EXIT_ESCAPE = 3
EXIT_NO_CONVERGENCE = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for
    collisions, so usage failures exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_masses(text: str) -> tuple[float, ...]:
    parts = text.replace(":", ",").split(",")
    try:
        masses = tuple(float(p) for p in parts if p.strip())
    except ValueError as err:
        raise OrbitError(f"could not parse masses {text!r}: {err}") from err
    if not masses:
        raise OrbitError("at least one mass is required")
    return masses


def _emit(text, out: str | None) -> None:
    """Write a string or an iterable of string chunks to ``out`` through
    the atomic writer, or to stdout chunk by chunk."""
    if out is None:
        sys.stdout.writelines([text] if isinstance(text, str) else text)
    else:
        write_text(out, text)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def cmd_seed(args) -> int:
    potential = PotentialSpec(alpha=args.alpha, G=args.G)
    family = {"kind": args.family, "m": args.m, "n": args.n}
    if args.family == "cubic" and args.m is None:
        raise OrbitError("--family cubic requires --m")
    if args.family == "crisscross":
        family["masses"] = _parse_masses(args.masses)
        if len(family["masses"]) != 3:
            raise OrbitError("crisscross takes exactly three masses")
    if args.family == "choreography" and args.n is None:
        raise OrbitError("--family choreography requires --n")
    model, params = build_family(family, args.k_max, potential)
    record = make_record(model, params)
    save_record(record, args.out)
    print(f"seed: family={args.family} bodies={model.n_bodies} "
          f"k_max={args.k_max} slots={len(params)} -> {args.out}")
    return EXIT_OK


def _schedule_from_args(args) -> DescentSchedule:
    if args.dtau is not None and args.table is not None:
        raise OrbitError("pick one of --dtau, --table")
    if args.dtau is not None:
        return DescentSchedule.uniform(args.dtau)
    if args.table is not None:
        if not args.table.strip():
            raise OrbitError("--table needs at least one harmonic=step entry")
        entries = [item.partition("=") for item in args.table.split(",")]
        return DescentSchedule.custom([(int(k), float(v))
                                       for k, _, v in entries])
    return DescentSchedule.preconditioned(args.delta)


def _progress(model, every: int):
    """A ``run`` callback printing every ``every``-th iterate's S, gradient
    norm and minimum pair distance on the descent grid to stderr; None for
    ``every`` = 0, and a usage error for a negative ``every``."""
    if every < 0:
        raise OrbitError(f"--log-every must be non-negative, got {every}")
    if not every:
        return None
    grid = QuadratureGrid.for_kmax(model.k_max)

    def report(iteration, current, S, grad_norm):
        if iteration % every == 0:
            dist = min_pair_distance(sample_positions(model, current, grid))
            print(f"iter={iteration} S={S:.12e} grad_norm={grad_norm:.3e} "
                  f"min_dist={dist:.3e}", file=sys.stderr)
    return report


def cmd_minimize(args) -> int:
    record = load_record(args.record)
    model, params = record_to_model(record)
    schedule = _schedule_from_args(args)
    stop = StopRule(grad_tol=args.grad_tol, max_iters=args.max_iters,
                    escape_radius=args.escape_radius)
    result = run(model, params, schedule, stop,
                 callback=_progress(model, args.log_every))
    out = args.out or args.record
    updated = make_record(model, result.params, result, schedule, stop)
    save_record(updated, out)
    res = "n/a" if result.residual is None else f"{result.residual:.3e}"
    print(f"minimize: outcome={result.outcome} iterations={result.iterations} "
          f"grad_norm={result.grad_norm:.3e} residual={res} -> {out}")
    if result.outcome == "collision":
        print(f"collision between bodies {result.collision_pair}",
              file=sys.stderr)
        return EXIT_COLLISION
    if result.outcome == "escape":
        print(f"body {result.escape_body} escaped", file=sys.stderr)
        return EXIT_ESCAPE
    if not updated.converged:
        if result.outcome == "converged":
            print(f"gradient converged but residual {res} exceeds the "
                  f"certificate {RESIDUAL_CERTIFICATE:.1e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_verify(args) -> int:
    record = load_record(args.record)
    cert = certify(record)
    stored = "n/a" if record.residual is None else f"{record.residual:.6e}"
    print(f"residual: recomputed={cert.residual.value:.6e} stored={stored} "
          f"{cert.residual.verdict}")
    print(f"symmetry: max_error={cert.symmetry.value:.3e} "
          f"{cert.symmetry.verdict}")
    ret = cert.return_error
    value = "" if ret.value is None else f"{ret.value:.6e} "
    print(f"return_error: {value}{ret.verdict}")
    return EXIT_OK if cert.certified else EXIT_NO_CONVERGENCE


def cmd_perturb(args) -> int:
    record = load_record(args.record)
    model, params = record_to_model(record)
    deviation = np.zeros((model.n_bodies, 3))
    if not 0 <= args.body < model.n_bodies:
        raise OrbitError(f"--body must be in [0, {model.n_bodies})")
    deviation[args.body] = (args.dx, args.dy, args.dz)
    report = perturb_and_track(model, params, deviation, args.periods,
                               envelope=args.envelope,
                               samples_per_period=args.samples)
    exit_t = "n/a" if report.exit_time is None else f"{report.exit_time:.4f}"
    print(f"perturb: verdict={report.verdict} "
          f"max_deviation={report.max_deviation:.6e} "
          f"envelope={report.envelope:.6e} exit_time={exit_t} "
          f"z_extent={report.z_extent:.6e}")
    if args.out:
        header = "t " + " ".join(f"x{i+1} y{i+1} z{i+1}"
                                 for i in range(model.n_bodies))
        rows = np.column_stack((report.sample_times,
                                report.section_points.reshape(
                                    len(report.sample_times), -1)))
        _emit(_text_rows(header, rows), args.out)
    return EXIT_OK if report.verdict == BOUNDED else EXIT_ESCAPE


def cmd_observe(args) -> int:
    record = load_record(args.record)
    model, params = record_to_model(record)
    times, obs = observables_series(model, params,
                                    QuadratureGrid(args.samples))
    rows = np.column_stack((times, obs.E, obs.J,
                            np.trace(obs.I, axis1=1, axis2=2) / 2.0,
                            np.linalg.eigvalsh(obs.I),
                            np.abs(obs.Q).max(axis=(1, 2))))
    _emit(_text_rows("t E Jx Jy Jz I I_eig1 I_eig2 I_eig3 Q_max", rows),
          args.out)
    return EXIT_OK


def cmd_export_table(args) -> int:
    record = load_record(args.record)
    _emit(export_table(record), args.out)
    return EXIT_OK


def cmd_export_traj(args) -> int:
    record = load_record(args.record)
    model, params = record_to_model(record)
    blocks = trajectory_blocks(model, params, args.periods, args.samples)
    _emit(_trajectory_chunks(blocks), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orbitctl",
                     description="discover and analyze periodic n-body "
                                 "orbits by action minimization")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("seed", help="build a family model and seed record")
    p.add_argument("--family", required=True,
                   choices=("cubic", "crisscross", "choreography"))
    p.add_argument("--m", type=int, default=None,
                   help="bodies per loop (cubic family; must be odd)")
    p.add_argument("--masses", default="1,1,1",
                   help="comma- or colon-separated masses (crisscross)")
    p.add_argument("--n", type=int, default=None,
                   help="body count (choreography)")
    p.add_argument("--alpha", type=float, default=-1.0,
                   help="potential exponent (default -1, Newtonian)")
    p.add_argument("--G", type=float, default=1.0)
    p.add_argument("--k-max", type=int, default=27)
    p.add_argument("--out", required=True, help="record file to write")
    p.set_defaults(handler=cmd_seed)

    p = sub.add_parser("minimize", help="run action descent on a record")
    p.add_argument("record")
    p.add_argument("--out", default=None,
                   help="output record (default: overwrite input)")
    p.add_argument("--delta", type=float, default=0.15,
                   help="preconditioned step factor (for power-law exponent "
                        "alpha, full stability needs delta < 2/((2-alpha) pi))")
    p.add_argument("--dtau", type=float, default=None,
                   help="uniform step size (overrides --delta)")
    p.add_argument("--table", default=None,
                   help="custom per-harmonic steps, e.g. '1=1e-3,3=-5e-4'")
    p.add_argument("--grad-tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--escape-radius", type=float, default=50.0)
    p.add_argument("--log-every", type=int, default=0,
                   help="print progress to stderr every N iterations "
                        "(0 = silent)")
    p.set_defaults(handler=cmd_minimize)

    p = sub.add_parser("verify",
                       help="recompute residual, symmetry, return error")
    p.add_argument("record")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("perturb", help="track perturbed initial conditions")
    p.add_argument("record")
    p.add_argument("--body", type=int, default=0)
    p.add_argument("--dx", type=float, default=0.0)
    p.add_argument("--dy", type=float, default=0.0)
    p.add_argument("--dz", type=float, default=0.0)
    p.add_argument("--periods", type=float, default=40.0)
    p.add_argument("--envelope", type=float, default=None,
                   help="deviation bound (default 100x the perturbation, "
                        "at least 10x the orbit band's resolution)")
    p.add_argument("--samples", type=int, default=50,
                   help="deviation samples per period")
    p.add_argument("--out", default=None, help="sampled positions file")
    p.set_defaults(handler=cmd_perturb)

    p = sub.add_parser("observe", help="observables time series")
    p.add_argument("record")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_observe)

    p = sub.add_parser("export-table", help="normalized coefficient table")
    p.add_argument("record")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_export_table)

    p = sub.add_parser("export-traj", help="integrated trajectory samples")
    p.add_argument("record")
    p.add_argument("--periods", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000,
                   help="samples per period")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_export_traj)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CollisionError as err:
        print(f"collision: {err}", file=sys.stderr)
        return EXIT_COLLISION
    except IntegrationError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return EXIT_ESCAPE
    except RecordError as err:
        print(f"record error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OrbitError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
