"""The three workloads: task lists, output checks, edge probes and references.

Every workload reports every end-to-end metric (one JSON schema for all
runs).  A workload runs its own task group at the sizes the README and the
ROADMAP document (reduced where a pass would not fit a run twice), and of the
other two groups only the tasks that feed a metric, at light sizes, so that
the metrics outside its focus are still measured, on small inputs that bypass
the heavy paths.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import autocorr
from expprod import cli, propagate, qmc, schemes

GROUPS = ("exact", "propagate", "qmc")

# QMC chains and anneal runs keep the README's fixed seeds in every run: a
# tau_int or a success count estimated from one chain moves by its own
# statistical error (30-50 % at n=64 for a few thousand sweeps) from one seed
# to the next, far beyond any bound a timing can be held to.
QMC_SEED = 42
ANNEAL_SEEDS_FULL = tuple(range(8))
ANNEAL_SEEDS_LIGHT = (0,)

RUTH = {"p1": Fraction(7, 24), "p2": Fraction(2, 3), "p3": Fraction(3, 4),
        "p4": Fraction(-2, 3), "p5": Fraction(-1, 24), "p6": Fraction(1)}
RUTH_GUESS = "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05"
SPIN_GAMMA = 0.75
DENSE_DT = 0.01
DENSE_SAMPLES = 3
QMC_SIGMAS = 3.0
# Seconds between rounds of the spread tasks (run.py).  A pass of exact is
# a few long tasks (scheme check suzuki8 alone takes 10 s), so its light
# tasks need a round at almost every task boundary to be sampled at more
# than four points of a run; the passes of propagate and qmc are short, and
# rarer rounds leave their own tasks time for more passes.
ROUND_GAP_S = {"exact": 1.5, "propagate": 3.0, "qmc": 4.0}


class CheckError(Exception):
    """An output that is wrong, not merely slow; may carry what was observed."""

    def __init__(self, message: str, observations: dict | None = None):
        super().__init__(message)
        self.observations = observations or {}


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Outcome:
    """What one execution of a task produced."""

    seconds: float                # reference seconds (see clock.py)
    wall: float = 0.0             # wall seconds
    rc: int | None = None
    stdout: str = ""
    error: str | None = None      # exception text: a traceback under the CLI
    result: object = None         # return value of a library task
    outdir: Path | None = None

    def json(self) -> dict:
        return json.loads(self.stdout)

    def rows(self, name: str) -> list[dict]:
        return list(csv.DictReader(io.StringIO((self.outdir / name).read_text())))


@dataclass
class Task:
    name: str
    metric: str | None = None     # end-to-end metric this task's time feeds
    argv: list[str] | None = None
    call: Callable | None = None
    check: Callable | None = None  # check(ctx, task, outcome) -> observations
    steps: int = 0
    params: dict = field(default_factory=dict)
    once: bool = False            # measured in the first pass only
    min_samples: int = 1          # timed executions in a row, at least
    spread: bool = False          # sampled in rounds over the whole run (run.py)
    probe: str = "python"         # the clock kernel its reference seconds follow


class Context:
    """Per-run inputs, set-up products and cached references."""

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.models = {name: str(root / "scripts" / "models" / f"{name}.json")
                       for name in ("chain6", "pair", "frustrated4")}
        self._refs: dict = {}
        self.reference_seconds = 0.0   # cost of the QMC reference traces

    def setup(self) -> None:
        """Catalog, model files and the 256x256 eigendecompositions."""
        self.catalog = schemes.catalog()
        self.model = {name: cli.load_model(path) for name, path in self.models.items()}
        a, b = qmc.hamiltonian_parts(qmc.ferromagnetic_chain(8))
        self.dense_parts = {"A": propagate.HermitianPart(a, "A"),
                            "B": propagate.HermitianPart(b, "B")}
        rng = np.random.default_rng(self.seed)
        psi = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
        self.dense_psi0 = psi / np.linalg.norm(psi)

    def ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def bond_zz_exact(self, model: str, n: int) -> float:
        def compute():
            t0 = perf_counter()
            value = float(np.mean(qmc.matrix_trace_bond_zz(self.model[model], n)))
            self.reference_seconds += perf_counter() - t0
            return value
        return self.ref(("bond_zz", model, n), compute)


# ---------------------------------------------------------------------------
# Output checks.  Each raises CheckError or returns observations.
# ---------------------------------------------------------------------------

def _finite_rows(rows: list[dict]) -> None:
    require(len(rows) > 0, "no data rows")
    for row in rows:
        for key, value in row.items():
            if key != "converged":
                require(math.isfinite(float(value)), f"non-finite {key}: {value}")


def check_bch(ctx, task, out):
    lines = out.stdout.strip().splitlines()
    order = task.params["order"]
    require(len(lines) == order, f"expected {order} degree lines")
    require(lines[0] == "degree 1: 1 A + 1 B", lines[0])
    if task.params["split"] == "trotter":
        require(lines[1] == "degree 2: 1/2 [A,B]", lines[1])
        require(lines[2] == "degree 3: 1/12 [A,[A,B]] + 1/12 [[A,B],B]", lines[2])
    else:
        require(lines[2] == "degree 3: -1/24 [A,[A,B]] + 1/12 [[A,B],B]", lines[2])
        for d in range(2, order + 1, 2):
            require(lines[d - 1] == f"degree {d}: 0", f"symmetric split: {lines[d - 1]}")
    return {}


def check_scheme(ctx, task, out):
    doc = out.json()
    claimed = task.params["claimed"]
    require(doc["claimed"] == claimed and doc["verified"] == claimed,
            f"{doc['scheme']}: verified {doc['verified']}, claimed {claimed}")
    return {}


def check_solve(ctx, task, out):
    doc = out.json()
    require(doc["converged"] and doc["max_residual"] <= 1e-13,
            f"solve did not converge (residual {doc['max_residual']})")
    exact = {p: Fraction(v) for p, v in doc["solution_exact"].items()}
    require(exact == RUTH, f"solution {doc['solution_exact']} is not Ruth's")
    return {}


def check_family(ctx, task, out):
    # A point the continuation cannot reach is flagged converged=false; that
    # flag is the documented output.  A converged flag must be true to 1e-13.
    rows = out.rows("family.csv")
    require(len(rows) == task.params["points"], "wrong number of family points")
    for row in rows:
        require(row["converged"] in ("true", "false"), f"bad flag {row['converged']}")
        if row["converged"] == "true":
            require(float(row["max_residual"]) <= 1e-13,
                    f"p6={row['p6']} flagged converged at residual {row['max_residual']}")
        else:
            require(not float(row["max_residual"]) <= 1e-13,
                    f"p6={row['p6']} flagged unconverged at residual {row['max_residual']}")
    ruth = [r for r in rows if abs(float(r["p6"]) - 1.0) < 1e-12]
    require(len(ruth) == 1, "grid misses p6 = 1")
    for p in ("p1", "p2", "p3", "p4", "p5"):
        require(abs(float(ruth[0][p]) - float(RUTH[p])) <= 1e-12, f"p6=1 row: {p} is not Ruth's")
    return {}


def check_precession(ctx, task, out):
    rows = out.rows(task.params["file"])
    _finite_rows(rows)
    steps, dt = task.steps, task.params["dt"]
    require(len(rows) == steps // 1000 + 1, "wrong number of samples")
    final = rows[-1]
    if task.params["scheme"] == "trotter":
        for row in rows:
            require(abs(float(row["norm"]) - 1.0) <= 1e-8, f"norm drift at t={row['t']}")
            require(abs(float(row["energy"]) - 1.0) <= 1e-3, f"energy drift at t={row['t']}")
    else:
        # |1 - i dt H| scales the norm by sqrt(1 + dt^2 (1 + gamma^2)) per step
        growth = (1.0 + dt * dt * (1.0 + SPIN_GAMMA ** 2)) ** (steps / 2)
        require(abs(float(final["norm"]) / growth - 1.0) <= 1e-8,
                f"perturbative norm {final['norm']} vs analytic {growth}")
    return {}


def check_umeno(ctx, task, out):
    rows = out.rows(task.params["file"])
    _finite_rows(rows)
    energies = [float(r["energy"]) for r in rows]
    e0 = energies[0]
    if task.params["scheme"] == "trotter":
        require(max(abs(e - e0) for e in energies) <= 1e-2 * e0, "symplectic energy drift")
    else:
        require(energies[-1] > e0, "Euler run shows no energy growth")
    return {}


def check_timedep(ctx, task, out):
    rows = out.rows("td.csv")
    _finite_rows(rows)
    for row in rows:
        require(abs(float(row["norm"]) - 1.0) <= 1e-10, f"norm drift at t={row['t']}")
    dt, steps = task.params["dt"], task.steps

    def reference():
        fine = propagate.run_timeordered(ctx.catalog["timeordered4"], propagate.driven_two_level(),
                                         0.0, dt / 4, steps * 4, propagate.QuantumState.up(2))
        return fine.vector
    ref = ctx.ref(("timedep", dt, steps), reference)
    last = rows[-1]
    got = np.array([float(last["re0"]) + 1j * float(last["im0"]),
                    float(last["re1"]) + 1j * float(last["im1"])])
    require(np.linalg.norm(got - ref) <= 1e-6, "time-ordered state differs from dt/4 reference")
    return {}


def check_converge(ctx, task, out):
    doc = out.json()
    target = task.params["slope"]
    require(doc["slope"] is not None and abs(doc["slope"] - target) <= 0.5,
            f"{doc['scheme']}: slope {doc['slope']}, expected {target}")
    _finite_rows(out.rows(task.params["file"]))
    return {}


def check_dense(ctx, task, out):
    psi = out.result.vector
    require(abs(np.linalg.norm(psi) - 1.0) <= 1e-10, "dense step is not unitary")

    def reference():
        a, b = ctx.dense_parts["A"].matrix, ctx.dense_parts["B"].matrix
        h = propagate.HermitianPart(a + b)
        return h.expfactor(-1j * DENSE_DT * task.steps) @ ctx.dense_psi0
    ref = ctx.ref(("dense", task.steps), reference)
    # suzuki4 stays within 2e-8 of the exact evolution for 20 steps here; a stage in
    # the wrong order or with the wrong coefficient is off by 1e-4 or more
    require(np.linalg.norm(psi - ref) <= 1e-6,
            f"dense state differs from exact evolution by {np.linalg.norm(psi - ref):.3g}")
    return {}


def check_qmc(ctx, task, out):
    name = task.params["tag"]
    doc = json.loads((out.outdir / f"{name}.json").read_text())
    require(0.0 < doc["acceptance"] < 1.0, f"acceptance {doc['acceptance']}")
    rows = out.rows(f"{name}.traces.csv")
    kept = task.steps - task.steps // 5
    require(len(rows) == kept, f"{len(rows)} trace rows, expected {kept}")
    _finite_rows(rows)
    taus = {}
    for obs in ("bond_zz", "sigma_x", "diag_energy"):
        taus[obs] = autocorr.tau_int([float(r[obs]) for r in rows])
    worst = max(taus, key=lambda k: taus[k][0])
    bond = np.array([float(r["bond_zz"]) for r in rows])
    exact = ctx.bond_zz_exact(task.params["model"], task.params["n"])
    sigma = math.sqrt(2.0 * taus["bond_zz"][0] * bond.var(ddof=1) / kept)
    deviation = abs(bond.mean() - exact)
    obs = {"tau": taus[worst][0], "tau_err": taus[worst][1], "kept": kept,
           "acceptance": doc["acceptance"]}
    if not deviation <= QMC_SIGMAS * sigma:
        raise CheckError(f"{name}: bond_zz {bond.mean():.4f} vs exact {exact:.4f} "
                         f"(sigma {sigma:.3g}, tau_int {taus['bond_zz'][0]:.1f})", obs)
    return obs


def check_anneal(ctx, task, out):
    doc = out.json()
    model = ctx.model["frustrated4"]
    ground = ctx.ref("ground", lambda: qmc.ground_energy_enumeration(model))
    config = doc["configuration"]
    energy = -sum(j * config[a] * config[b] for a, b, j in model.bonds)
    require(math.isfinite(doc["energy"]) and abs(energy - doc["energy"]) <= 1e-9,
            "reported energy does not match the configuration")
    require(doc["energy"] >= ground - 1e-9, "energy below the enumerated ground state")
    return {"success": abs(doc["energy"] - ground) <= 1e-9}


def check_extrapolate(ctx, task, out):
    doc = out.json()
    exact = ctx.ref("pair_quantum", lambda: qmc.exact_reference(ctx.model["pair"]).bond_zz[0])
    require(abs(doc["c0"] - exact) <= 1e-3, f"extrapolated {doc['c0']} vs exact {exact}")
    return {}


# ---------------------------------------------------------------------------
# Task lists
# ---------------------------------------------------------------------------

def _exact(full: bool) -> list[Task]:
    order = 8 if full else 5
    claimed = {"suzuki4": 4, "suzuki6": 6, "timeordered4": 4, "suzuki8": 8}
    checks = ([("suzuki4", 5), ("suzuki6", 7), ("timeordered4", 5), ("suzuki8", 8)] if full
              else [("suzuki4", 4)])
    grid, points = ("0.2:1.4:0.2", 7) if full else ("0.9:1.1:0.1", 3)
    tasks = [Task(f"bch_{split}", argv=["bch", "--stages", stages, "--order", str(order)],
                  check=check_bch, params={"order": order, "split": split})
             for split, stages in (("trotter", "A:x,B:x"), ("strang", "A:x/2,B:x,A:x/2"))]
    # suzuki8 at order 8 takes ~10 s and writes no file: once per run is
    # enough to time it, and keeps two passes of the rest within a run
    tasks += [Task(f"check_{name}", "verify_s",
                   argv=["scheme", "check", name, "--order", str(m)],
                   check=check_scheme, params={"claimed": claimed[name]}, once=name == "suzuki8")
              for name, m in checks]
    tasks.append(Task("solve", "solve_s",
                      argv=["solve", "--pattern", "ABABAB", "--order", "3", "--fix", "p6=1",
                            "--guess", RUTH_GUESS], check=check_solve))
    tasks.append(Task("family", "solve_s",
                      argv=["family", "--p6", grid, "--out", "{out}/family.csv"],
                      check=check_family, params={"points": points}))
    return tasks


def _propagate(full: bool) -> list[Task]:
    steps = 1_000_000 if full else 20_000
    # a quarter of umeno's steps: 1e6 precession steps take 1.5-2 s, too long
    # for more than two or three samples in a run
    prec_steps = 250_000 if full else 20_000
    tasks = []
    for scheme, metric in (("trotter", "unitary_steps_per_s"), ("perturbative", None)):
        tasks.append(Task(f"precession_{scheme}", metric, steps=prec_steps,
                          argv=["precession", "--scheme", scheme, "--dt", "1e-4", "--steps",
                                str(prec_steps), "--out", f"{{out}}/prec_{scheme}.csv"],
                          check=check_precession, probe="numpy",
                          params={"scheme": scheme, "dt": 1e-4, "file": f"prec_{scheme}.csv"}))
    for scheme, metric in (("trotter", "symplectic_steps_per_s"), ("euler", None)):
        tasks.append(Task(f"umeno_{scheme}", metric, steps=steps,
                          argv=["umeno", "--scheme", scheme, "--steps", str(steps),
                                "--out", f"{{out}}/umeno_{scheme}.csv"],
                          check=check_umeno, params={"scheme": scheme, "file": f"umeno_{scheme}.csv"}))
    # two short samples in a row rather than one long one
    td_steps = 250 if full else 50
    tasks.append(Task("timedep", "timeordered_steps_per_s", steps=td_steps,
                      min_samples=2 if full else 1,
                      argv=["timedep", "--scheme", "timeordered4", "--dt", "0.01",
                            "--steps", str(td_steps), "--out", "{out}/td.csv"],
                      check=check_timedep, params={"dt": 0.01}))
    tasks.append(Task("converge_suzuki8", "converge_s",
                      argv=["converge", "--scheme", "suzuki8", "--out", "{out}/conv_suzuki8.csv"],
                      check=check_converge, params={"slope": 8, "file": "conv_suzuki8.csv"}))
    # the default dt list adds 1/32, which doubles the dt/1024 reference run;
    # the light instance leaves the driven system out, because its reference
    # costs 0.5 s even at two coarse steps, too much for every round elsewhere
    if full:
        driven = ["converge", "--scheme", "timeordered4", "--system", "driven",
                  "--dt-list", "0.25,0.125,0.0625", "--out", "{out}/conv_driven.csv"]
        tasks.append(Task("converge_driven", "converge_s", argv=driven,
                          check=check_converge, params={"slope": 4, "file": "conv_driven.csv"}))
    # one step per execution, a few in a row in every round of every workload:
    # the median of many short samples spread over the run rides out the
    # bursts of load that a few long ones, or samples taken in one stretch,
    # would take in
    tasks.append(Task("dense", "dense_steps_per_s", steps=1, min_samples=DENSE_SAMPLES,
                      call=_dense_steps, check=check_dense, probe="blas", spread=True))
    return tasks


def _dense_steps(ctx, task):
    sch = ctx.catalog["suzuki4"]
    psi = propagate.QuantumState(ctx.dense_psi0)
    for _ in range(task.steps):
        psi = propagate.unitary_step(sch, ctx.dense_parts, DENSE_DT, psi)
    return psi


def _qmc(full: bool) -> list[Task]:
    sweeps = 2000 if full else 60
    tasks = []
    for tag, model, n in (("n16", "chain6", 16), ("n64", "pair", 64)):
        tasks.append(Task(f"qmc_{tag}", f"qmc_s_per_indep_{tag}", steps=sweeps,
                          argv=["qmc", "--model", "{model:" + model + "}", "--n", str(n),
                                "--sweeps", str(sweeps), "--seed", str(QMC_SEED),
                                "--out", "{out}/" + tag],
                          check=check_qmc, params={"tag": tag, "model": model, "n": n}))
    # the README schedule at its default 60 sweeps per stage (20 when light)
    for seed in (ANNEAL_SEEDS_FULL if full else ANNEAL_SEEDS_LIGHT):
        tasks.append(Task(f"anneal_{seed}", "anneal_tts_s",
                          argv=["anneal", "--model", "{model:frustrated4}",
                                "--schedule", "2.5:1e-4:14", "--sweeps", "60" if full else "10",
                                "--seed", str(seed), "--out", "{out}/anneal_" + str(seed) + ".json"],
                          check=check_anneal))
    n_list = "6,8,10" if full else "4,6,8"
    tasks.append(Task("extrapolate", "extrapolate_s",
                      argv=["extrapolate", "--model", "{model:pair}", "--n-list", n_list,
                            "--sweeps", "0", "--out", "{out}/extrapolate.json"],
                      check=check_extrapolate, probe="blas", min_samples=2 if full else 1))
    return tasks


_BUILDERS = {"exact": _exact, "propagate": _propagate, "qmc": _qmc}


def tasks_for(workload: str) -> list[Task]:
    """The workload's own group at full size, then the light tasks of the
    other groups that feed an end-to-end metric, spread over the run."""
    tasks = []
    for group in GROUPS:
        for t in _BUILDERS[group](group == workload):
            if group != workload and t.metric:
                t.spread = True
            if group == workload or t.metric:
                tasks.append(t)
    return tasks


def resolve_argv(ctx: Context, argv: list[str], outdir: Path) -> list[str]:
    out = []
    for arg in argv:
        if arg.startswith("{model:"):
            arg = ctx.models[arg[len("{model:"):-1]]
        out.append(arg.replace("{out}", str(outdir)))
    return out


# ---------------------------------------------------------------------------
# Edge probes: the ROADMAP's known defects, run once per run, untimed.
# ---------------------------------------------------------------------------

@dataclass
class Probe:
    name: str
    group: str
    argv: list[str]
    invalid_input: bool   # an invalid argument must be refused (exit 2 or 3)


PROBES = (
    Probe("scheme_check_suzuki8_default", "exact", ["scheme", "check", "suzuki8"], False),
    Probe("precession_sample_every_0", "propagate",
          ["precession", "--sample-every", "0", "--out", "{out}/probe.csv"], True),
    Probe("precession_steps_-5", "propagate",
          ["precession", "--steps", "-5", "--out", "{out}/probe.csv"], True),
    Probe("converge_dt_list_0", "propagate",
          ["converge", "--scheme", "suzuki4", "--dt-list", "0", "--out", "{out}/probe.csv"], True),
    Probe("umeno_dt_-1", "propagate", ["umeno", "--dt", "-1", "--out", "{out}/probe.csv"], True),
    Probe("anneal_one_stage", "qmc",
          ["anneal", "--model", "{model:frustrated4}", "--schedule", "2.5:1e-4:1",
           "--out", "{out}/probe.json"], False),
)


def judge_probe(probe: Probe, out: Outcome) -> tuple[bool, str]:
    """Exit 0, 2 or 3, no traceback, finite data under exit 0; invalid input refused."""
    if out.error is not None:
        return False, f"traceback: {out.error}"
    if out.rc not in (0, 2, 3):
        return False, f"exit {out.rc}"
    if out.rc == 0:
        if probe.invalid_input:
            return False, "invalid input accepted (exit 0)"
        texts = {"stdout": out.stdout}
        texts.update((p.name, p.read_text()) for p in sorted(out.outdir.iterdir())
                     if not p.name.endswith(".manifest.json"))
        for name, text in texts.items():
            if "nan" in text.lower() or "inf" in text.lower():
                return False, f"non-finite data in {name}"
    return True, f"exit {out.rc}"
