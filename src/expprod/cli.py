"""Command-line front end: everything emits CSV or JSON for plotting.

A command parses its flags, calls the library and writes what it returns;
the numerics, such as the convergence study and the rule for which steps a
trajectory records, live in ``propagate`` and the other library modules.
Tables are formatted and written only here, line by line: ``write_csv``
streams any iterable of rows to a file, and the tables printed to stdout
come from the same line formatter; JSON data files and manifests go
through ``write_json``, and ``scheme`` writes the text it prints.
Exit codes: 0 success, 2 configuration error (an ``--out`` that cannot be
written included), 3 numerical non-convergence or an arithmetic error such
as an overflow (with JSON diagnostics on stdout).  An exit 2 writes no
file; an exit 0 or 3 writes the result it prints, and an exit 3 that
prints only diagnostics writes none.  Every file-writing run
also writes a manifest echoing every parsed flag, with the values the run
resolved in place of defaults; timestamps live only in the manifest, so
data files are byte-identical across reruns at a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import ncalg, orders, propagate, qmc, schemes
from .poly import RationalPoly, frac_str

CONFIG_ERROR = 2
NONCONVERGENCE = 3
MAX_RANGE_POINTS = 10_000
# a stage coefficient in x: [sign][number[*]]x[/integer]
_X_COEFF = re.compile(r"([+-]?)(?:(\d+(?:\.\d*)?|\.\d+)\*?)?x(?:/(\d+))?")


class ConfigError(Exception):
    pass


def _require_positive(**values) -> None:
    """Refuse a flag whose value (or any value of a list) is not finite and > 0.

    ``None`` means the flag was not given.
    """
    for name, value in values.items():
        for v in value if isinstance(value, list) else [value]:
            if v is not None and not (math.isfinite(v) and v > 0):
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"{flag} must be positive and finite, got {v}")


def _require_finite(**values) -> None:
    """Refuse a flag whose value is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _sweep_count(name: str, text: str) -> int:
    """A sweep count: a whole number, scientific notation ('1e4') included."""
    value = float(text)
    _require_finite(**{name: value})
    if not value.is_integer():
        raise ConfigError(f"--{name} must be a whole number, got {text}")
    return int(value)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_lines(rows):
    """One CSV line per row: a float to 17 significant digits, anything else by ``str``."""
    for row in rows:
        yield ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def write_csv(path: str, header: list[str], rows) -> None:
    """Write the header, then each row of any iterable, one line at a time."""
    with open(path, "w", newline="\n") as f:
        f.writelines(_csv_lines(itertools.chain([header], rows)))


def write_json(path: str, doc, sort_keys: bool = False) -> None:
    """Write ``doc`` as JSON indented by 2, with a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")


def write_manifest(args, **resolved) -> None:
    """``<out>.manifest.json``: every parsed flag, overridden by the values the run resolved."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config", "out")}
    doc = {"command": args.command, "config": {**config, **resolved},
           "written_at": datetime.now(timezone.utc).isoformat()}
    write_json(f"{args.out}.manifest.json", doc, sort_keys=True)


def _emit_json(args, doc, **resolved) -> None:
    """Print ``doc`` as JSON indented by 2; with ``--out``, write the same bytes
    there and the manifest with the values the run resolved."""
    print(json.dumps(doc, indent=2))
    if args.out:
        write_json(args.out, doc)
        write_manifest(args, **resolved)


def parse_stage_coeff(text: str) -> Fraction:
    """Coefficient grammar: [sign][number[*]]x[/integer] ('x', '-x', 'x/2',
    '7x/24', '2*x', '0.5x') or a plain number ('1/2', '0.75').

    Any other text containing x, a zero denominator or a non-finite value is
    a ConfigError.
    """
    t = text.strip().replace(" ", "")
    try:
        if "x" in t:
            match = _X_COEFF.fullmatch(t)
            if match is None:
                raise ValueError("expected [sign][number[*]]x[/integer] or a number")
            sign, num, den = match.groups()
            return Fraction(sign + (num or "1")) / int(den or 1)
        if "/" in t or "." not in t:
            return Fraction(t)
        return Fraction(float(t)).limit_denominator(10 ** 12)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad stage coefficient {text!r}: {exc}") from None


def parse_stages(text: str) -> list[tuple[str, Fraction]]:
    out = []
    for item in text.split(","):
        slot, _, coeff = item.partition(":")
        slot = slot.strip()
        if not slot or not coeff:
            raise ConfigError(f"bad stage {item!r}; expected SLOT:coeff")
        out.append((slot, parse_stage_coeff(coeff)))
    return out


def parse_assignments(text: str) -> dict[str, float]:
    out = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        name = name.strip()
        if not name or not value:
            raise ConfigError(f"bad assignment {item!r}; expected name=value")
        try:
            number = float(Fraction(value) if "/" in value else value)
            if not math.isfinite(number):
                raise ValueError("the value must be finite")
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"bad assignment {item!r}: {exc}") from None
        if name in out:
            raise ConfigError(f"{name!r} is assigned twice in {text!r}")
        out[name] = number
    return out


def parse_range(text: str) -> list[float]:
    """'start:stop:step' inclusive grid, or a comma list; every entry finite."""
    grid = ":" in text
    parts = text.split(":" if grid else ",")
    if grid and len(parts) != 3:
        raise ConfigError(f"bad range {text!r}; expected start:stop:step")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"range {text!r} has a non-finite entry")
    if not grid:
        return values
    start, stop, step = values
    if step <= 0:
        raise ConfigError("range step must be positive")
    points = []
    v = start
    while v <= stop + 1e-12:
        if len(points) == MAX_RANGE_POINTS:  # also ends a step below float resolution
            raise ConfigError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
        points.append(round(v, 12))
        v += step
    if not points:
        raise ConfigError(f"range {text!r} is empty (start above stop)")
    return points


def load_model(path: str) -> qmc.IsingModel:
    try:
        doc = json.loads(Path(path).read_text())
        return qmc.IsingModel.from_json(doc)
    except (OSError, KeyError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot load model file {path}: {exc}") from exc


def get_scheme(name: str) -> schemes.Scheme:
    """Build the one catalog scheme a command names."""
    if name not in schemes.CATALOG:
        raise ConfigError(f"unknown scheme {name!r}; see `expprod scheme list`")
    return schemes.CATALOG[name]()


def stepped_scheme(command: str, name: str, timed: bool) -> schemes.Scheme:
    """The catalog scheme ``command`` steps; one whose stages it cannot step is
    refused naming the commands that can: a scheme with a shift-time slot T
    unless ``timed``, one without it when ``timed``, and one with a commutator
    stage in ``umeno``."""
    sch = get_scheme(name)
    if command == "umeno" and any(st.is_commutator() for st in sch.stages):
        raise ConfigError("umeno steps no commutator stage; step a scheme with commutator "
                          "stages with `precession` or `converge --system spin`")
    if timed and "T" not in sch.slots:
        raise ConfigError(f"{command} needs a scheme with a T slot (slots=ABT in `scheme "
                          "list`); step a two-slot scheme with `precession`, `umeno` or "
                          "`converge --system spin`")
    if not timed and "T" in sch.slots:
        raise ConfigError(f"{command} steps two-slot schemes (slots=AB in `scheme list`); "
                          "step a scheme with a T slot with `timedep` or "
                          "`converge --system driven`")
    return sch


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_bch(args) -> int:
    if not 1 <= args.order <= orders.MAX_ORDER:
        raise ConfigError(f"--order must lie in 1..{orders.MAX_ORDER}, got {args.order}")
    stages = parse_stages(args.stages)
    labels = tuple(sorted({s for s, _ in stages}))
    log = ncalg.product_log(stages, args.order, labels)
    combo = ncalg.lie_project(log)
    lines = [f"degree {d}: {combo.homogeneous(d).pretty()}" for d in range(1, args.order + 1)]
    if args.format == "json":
        print(json.dumps(combo.to_json(), indent=2))
    else:
        print("\n".join(lines))
    if args.out:
        write_json(args.out, combo.to_json())
        write_manifest(args)
    return 0


def cmd_scheme(args) -> int:
    if args.order is not None and args.action != "check":
        raise ConfigError(f"--order needs scheme check; scheme {args.action} takes none")
    if args.action == "list":
        if args.out:
            raise ConfigError("scheme list writes no file; --out needs show, flatten or check")
        if args.name is not None:
            raise ConfigError("scheme list takes no scheme name; show, flatten or check take one")
        for name, sch in schemes.catalog().items():
            print(f"{name:14s} slots={''.join(sch.slots)} stages={len(sch.stages)} "
                  f"order={sch.claimed_order} symmetric={sch.symmetric} "
                  f"negative={schemes.has_negative_coefficient(sch)}")
        return 0
    if not args.name:
        raise ConfigError("scheme show/flatten/check need a scheme name")
    sch = get_scheme(args.name)
    code = 0
    if args.action == "show":
        text = json.dumps(sch.to_json(), indent=2)
    elif args.action == "flatten":
        lines = []
        for st in sch.stages:
            slot, extra = (("commutator", json.dumps(st.target)) if st.is_commutator()
                           else (st.target, ""))
            lines.append(f"{slot:10s} {_fmt(schemes.coeff_value(st.coeff))} {extra}")
        text = "\n".join(lines)
    else:
        m = sch.claimed_order + 1 if args.order is None else args.order
        achieved = orders.verify_order(sch, m)
        text = json.dumps({"scheme": args.name, "claimed": sch.claimed_order,
                           "verified": achieved})
        if achieved < sch.claimed_order:
            code = NONCONVERGENCE
    print(text)
    if args.out:  # the printed bytes, on exit 3 too
        Path(args.out).write_text(text + "\n")
        write_manifest(args)
    return code


def cmd_solve(args) -> int:
    if len(args.pattern) < args.order:
        raise ConfigError("pattern shorter than the target order is infeasible")
    if not set(args.pattern) <= {"A", "B"}:
        raise ConfigError("pattern must be over the slots A and B")
    stages = [(lab, RationalPoly.var(f"p{i + 1}")) for i, lab in enumerate(args.pattern)]
    conds = orders.order_conditions(stages, args.order)
    fixed = parse_assignments(args.fix) if args.fix else {}
    if args.guess:
        guess = parse_assignments(args.guess)
    else:
        # deterministic default: alternate around the consistency value 1/k
        free = [p for p in conds.parameters if p not in fixed]
        guess = {p: 0.5 + 0.1 * i for i, p in enumerate(free)}
    report = orders.solve(conds, fixed=fixed, guess=guess)
    rational = orders.rationalize_solution(conds, report.solution) if report.converged else None
    doc = {
        "pattern": args.pattern, "order": args.order,
        "converged": report.converged, "iterations": report.iterations,
        "max_residual": report.max_residual,
        "solution": {p: report.solution[p] for p in conds.parameters},
    }
    if rational is not None:
        doc["solution_exact"] = {p: frac_str(v) for p, v in rational.items()}
    if not report.converged:
        doc["diagnostics"] = report.message
    _emit_json(args, doc)
    return 0 if report.converged else NONCONVERGENCE


def cmd_family(args) -> int:
    header = ["p6", "p1", "p2", "p3", "p4", "p5", "max_residual", "converged"]
    rows = [(*(pt.solution[p] for p in header[:6]), pt.max_residual,
             "true" if pt.converged else "false")
            for pt in orders.ruth_family(parse_range(args.p6))]
    if args.out:
        write_csv(args.out, header, rows)
        write_manifest(args)
    else:
        sys.stdout.writelines(_csv_lines([header, *rows]))
    return 0


def cmd_converge(args) -> int:
    sch = stepped_scheme(f"converge --system {args.system}", args.scheme,
                         timed=args.system == "driven")
    dts = parse_range(args.dt_list) if args.dt_list else None
    _require_positive(dt_list=dts, t_final=args.t_final)
    study = propagate.convergence(sch, args.system, dts, args.t_final)
    doc: dict = {"scheme": args.scheme, "system": args.system,
                 "dt": study.dts, "error": study.errors, "slope": study.slope}
    if study.slope is None:
        doc["diagnostics"] = "fewer than 2 distinct dt above the roundoff floor"
    else:
        doc["points_used"] = study.points_used
    print(json.dumps(doc))
    if args.out:
        write_csv(args.out, ["dt", "error"], zip(study.dts, study.errors))
        write_manifest(args, dt=study.dts, t_final=study.t_final)
    return NONCONVERGENCE if study.slope is None else 0


def _emit_trajectory(args, header: list[str], rows) -> int:
    """Write a sampled trajectory to ``--out`` (or print its first rows).

    A row holding a non-finite value ends the run with exit 3 and JSON
    diagnostics naming the first such sampled step; no data file is written.
    """
    for step, row in zip(propagate.sample_marks(args.steps, args.sample_every), rows):
        bad = [name for name, v in zip(header, row) if not math.isfinite(v)]
        if bad:
            # strict JSON: a non-finite time is written as null
            t = row[0] if math.isfinite(row[0]) else None
            print(json.dumps({"command": args.command, "diagnostics": "non-finite result",
                              "step": step, "t": t, "columns": bad}, allow_nan=False))
            return NONCONVERGENCE
    if args.out:
        write_csv(args.out, header, rows)
        write_manifest(args)
    else:
        sys.stdout.writelines(_csv_lines(rows[:10]))
    return 0


def cmd_precession(args) -> int:
    _require_positive(dt=args.dt, steps=args.steps, sample_every=args.sample_every)
    _require_finite(gamma=args.gamma)
    method = ("perturbative" if args.scheme == "perturbative"
              else stepped_scheme("precession", args.scheme, timed=False))
    rows = propagate.run_precession(method, args.gamma, args.dt, args.steps,
                                    args.sample_every)
    return _emit_trajectory(args, ["t", "energy", "norm"], rows)


def cmd_umeno(args) -> int:
    _require_positive(dt=args.dt, steps=args.steps, sample_every=args.sample_every)
    method = ("euler" if args.scheme == "euler"
              else stepped_scheme("umeno", args.scheme, timed=False))
    rows = propagate.run_umeno(method, args.dt, args.steps, args.sample_every)
    return _emit_trajectory(args, ["t", "energy", "q1", "q2"], rows)


def cmd_timedep(args) -> int:
    _require_positive(dt=args.dt, steps=args.steps, sample_every=args.sample_every)
    _require_finite(t0=args.t0)
    sch = stepped_scheme("timedep", args.scheme, timed=True)
    rows = propagate.run_driven(sch, args.dt, args.steps, args.sample_every, args.t0)
    return _emit_trajectory(args, ["t", "re0", "im0", "re1", "im1", "norm"], rows)


def cmd_qmc(args) -> int:
    model = load_model(args.model)
    sweeps = _sweep_count("sweeps", args.sweeps)
    therm = _sweep_count("therm", args.therm) if args.therm is not None else sweeps // 5
    qmc.check_kept_sweeps(sweeps, therm)
    stats = qmc.metropolis_run(model, args.n, sweeps, therm, args.seed)
    doc = stats.to_json()
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        write_json(f"{args.out}.json", doc, sort_keys=True)
        names = ["bond_zz", "trotter_corr", "diag_energy", "sigma_x"]
        write_csv(f"{args.out}.traces.csv", ["sweep", *names],
                  zip(range(therm, sweeps), *(stats.traces[nm] for nm in names)))
        write_manifest(args, sweeps=sweeps, therm=therm)
    return 0


def cmd_anneal(args) -> int:
    model = load_model(args.model)
    if args.schedule:
        parts = args.schedule.split(":")
        if len(parts) != 3:
            raise ConfigError("schedule must be g_start:g_end:stages")
        sched = qmc.anneal_schedule(float(parts[0]), float(parts[1]), int(parts[2]))
    else:
        sched = qmc.anneal_schedule()
    result = qmc.anneal(model, args.n, sched, args.sweeps, args.seed)
    doc = {
        "energy": result.energy,
        "configuration": [int(s) for s in result.configuration],
        "stage_energies": result.stage_energies,
        "seed": result.seed,
        "schedule": sched,
    }
    _emit_json(args, doc, schedule=sched)
    return 0


def cmd_extrapolate(args) -> int:
    model = load_model(args.model)
    n_list = [int(v) for v in args.n_list.split(",")]
    sweeps = _sweep_count("sweeps", args.sweeps)
    result = qmc.trotter_extrapolate(model, n_list, sweeps, args.seed,
                                     observable=args.observable)
    doc = {
        "c0": result.c0, "c2": result.c2, "c4": result.c4,
        "c0_std_error": result.c0_std_error,
        "n_list": result.n_list, "values": result.values,
        "errors": result.errors, "residuals": result.residuals,
        "observable": args.observable,
    }
    _emit_json(args, doc, sweeps=sweeps)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expprod",
        description="Exponential product formulas: schemes, order conditions, demos, QMC")
    parser.add_argument("--config", help="JSON file with argument defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (data file; manifest written alongside)")

    p = sub.add_parser("bch", help="Lie-projected correction terms of a stage product")
    p.add_argument("--stages", required=True, help="e.g. A:x/2,B:x,A:x/2")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    common(p)
    p.set_defaults(func=cmd_bch)

    p = sub.add_parser("scheme", help="catalog queries")
    p.add_argument("action", choices=["list", "show", "flatten", "check"])
    p.add_argument("name", nargs="?")
    p.add_argument("--order", type=int)
    common(p)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("solve", help="solve order conditions")
    p.add_argument("--pattern", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--fix", help="e.g. p6=1")
    p.add_argument("--guess", help="e.g. p1=0.3,p2=0.7,...")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("family", help="third-order solution family vs p6")
    p.add_argument("--p6", required=True, help="grid start:stop:step or comma list")
    common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("converge", help="error-vs-dt sweep with fitted slope")
    p.add_argument("--scheme", required=True)
    p.add_argument("--system", choices=["spin", "driven"], default="spin")
    p.add_argument("--dt-list", help="comma list or start:stop:step")
    p.add_argument("--t-final", type=float)
    common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("precession", help="spin precession energy run")
    p.add_argument("--scheme", default="trotter", help="scheme name or 'perturbative'")
    p.add_argument("--gamma", type=float, default=0.75)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--steps", type=int, default=1_000_000)
    p.add_argument("--sample-every", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_precession)

    p = sub.add_parser("umeno", help="chaotic two-dof energy run")
    p.add_argument("--scheme", default="trotter", help="scheme name or 'euler'")
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--steps", type=int, default=1_000_000)
    p.add_argument("--sample-every", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_umeno)

    p = sub.add_parser("timedep", help="driven two-level trajectory")
    p.add_argument("--scheme", default="timeordered2")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--sample-every", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_timedep)

    p = sub.add_parser("qmc", help="world-line Metropolis run")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sweeps", required=True)
    p.add_argument("--therm")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_qmc)

    p = sub.add_parser("anneal", help="quantum annealing on the mapped system")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--schedule", help="g_start:g_end:stages")
    p.add_argument("--sweeps", type=int, default=60, help="sweeps per stage")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("extrapolate", help="Trotter extrapolation n -> infinity")
    p.add_argument("--model", required=True)
    p.add_argument("--n-list", required=True, help="comma list, e.g. 4,8,16")
    p.add_argument("--sweeps", default="0", help="0 = exact finite-n reference")
    p.add_argument("--observable", choices=qmc.EXTRAPOLATED, default="bond_zz")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_extrapolate)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold --config file values in as defaults (CLI flags win).

    The file is named as ``--config PATH`` or ``--config=PATH``.
    """
    idx = next((k for k, a in enumerate(argv)
                if a == "--config" or a.startswith("--config=")), None)
    if idx is None:
        return argv
    _, joined, path = argv[idx].partition("=")
    if not joined:
        try:
            path = argv[idx + 1]
        except IndexError:
            raise ConfigError("--config needs a file path")
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    rest = argv[:idx] + argv[idx + (1 if joined else 2):]
    if not rest:
        raise ConfigError("config file given but no subcommand")
    command = rest[0]
    known = {"experiment", "command"}
    sub_actions = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    subparser = sub_actions.choices.get(command)
    if subparser is None:
        raise ConfigError(f"unknown subcommand {command!r}")
    # the optional flags of the subcommand; help and positionals are no keys
    flags = {opt for a in subparser._actions if not isinstance(a, argparse._HelpAction)
             for opt in a.option_strings}
    injected = []
    for key, value in doc.items():
        if key in known:
            continue
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise ConfigError(f"unknown config key {key!r} for {command}")
        if flag not in rest and value is not None:
            # one token, so that a value starting with "-" is not read as a flag
            injected.append(f"{flag}={value}")
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = None
    try:
        argv = _apply_config(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse has printed its usage error; --help exits 0 as before
            if exc.code == 0:
                raise
            return CONFIG_ERROR
        if args.out and not Path(args.out).parent.is_dir():
            # refused before the command runs, so no work is done and no file written
            raise ConfigError(f"--out directory {Path(args.out).parent} does not exist")
        return args.func(args)
    except (ConfigError, ValueError, KeyError, OSError, MemoryError) as exc:
        # an OSError is an --out the run cannot write, such as a directory;
        # a MemoryError is a run too large to allocate, such as --sweeps 1e18
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ArithmeticError as exc:
        print(json.dumps({"command": getattr(args, "command", None),
                          "diagnostics": f"{type(exc).__name__}: {exc}"}))
        return NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
