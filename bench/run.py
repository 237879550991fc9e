"""expprod benchmark: one workload per run, in one process.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Runs the README's CLI commands in-process through ``expprod.cli.main`` plus
the library calls the ROADMAP names, checks every output, and prints the
metrics by name with units.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs the three workloads one after another.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from clock import Stopwatch

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact", "propagate", "qmc")
SETUP_REPEATS = 3
# Short tasks need many samples, spread over the run, for their median to
# ride out bursts of load on a shared machine: a task shorter than REPEAT_S
# runs again in the same pass until it has run that long (at most
# MAX_REPEATS times), and after the first two passes only tasks shorter than
# LONG_S run, in further passes until --seconds have gone by.  The spread
# tasks (the light instances of the other groups, and the dense steps) run
# in rounds instead: one at the start of every pass and another before any
# task that starts the workload's round gap (workloads.ROUND_GAP_S) or more
# after the last round ended, so that their samples cover the whole run,
# long tasks included.
REPEAT_S = 0.15
MAX_REPEATS = 8
LONG_S = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# times the package import in a fresh interpreter: argv is the bench and src
# directories, then 1 to probe the clock or 0 for wall seconds
IMPORT_TIMER = ("import sys\n"
                "sys.path[:0] = sys.argv[1:3]\n"
                "from clock import Stopwatch\n"
                "with Stopwatch(sys.argv[3] == '1') as watch:\n"
                "    import expprod.cli\n"
                "print(watch.seconds)\n")


def cap_threads() -> int:
    """Run BLAS/OpenMP on one thread (set before numpy loads).

    On a shared machine a multi-threaded BLAS call waits for its slowest
    thread, so its time follows whatever else runs on the other cores: a
    256x256 dense step took 36 ms on two threads of an idle 2-core machine and
    67-69 ms with one busy neighbour process, against 45-57 ms on one thread
    either way.
    """
    n = 1
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_seconds(probing: bool) -> float:
    """Median time to import the package, over SETUP_REPEATS fresh interpreters
    run one after another (the first also writes the bytecode cache)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(Path(__file__).parent),
                               str(ROOT / "src"), "1" if probing else "0"],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(nthreads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "blas_threads": nthreads, "commit": git_commit(ROOT),
            "machine": platform.machine()}


@dataclass
class Record:
    ok: bool
    message: str
    observations: dict = field(default_factory=dict)
    samples: list[float] = field(default_factory=list)   # reference seconds
    walls: list[float] = field(default_factory=list)     # wall seconds


@dataclass
class Pass:
    outdir: Path
    records: dict[str, Record]

    @property
    def wall(self) -> float:
        return sum(statistics.median(r.samples) for r in self.records.values())


class Ledger:
    """Operations attempted and failed, and the once-per-run verdicts behind ok_rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items: dict[str, tuple[bool, str]] = {}
        self.probes: dict[str, tuple[bool, str]] = {}

    def op(self, item: str, ok: bool, message: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        prev_ok, prev_msg = self.items.get(item, (True, ""))
        self.items[item] = (prev_ok and ok, prev_msg if not prev_ok else message)

    def ok_rate(self) -> float:
        verdicts = [ok for ok, _ in self.items.values()] + [ok for ok, _ in self.probes.values()]
        return sum(verdicts) / len(verdicts)


def execute(ctx, task, outdir: Path, tracer=None, probing: bool = True):
    """Run one task (CLI argv or library call), timing only the call itself."""
    import workloads
    from expprod import cli

    argv = workloads.resolve_argv(ctx, task.argv, outdir) if task.argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = result = error = None
    root = tracer.root(f"task.{task.name}") if tracer else contextlib.nullcontext()
    watch = Stopwatch(probing, task.probe)
    try:
        with watch, root, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if argv is not None:
                rc = cli.main(argv)
            else:
                result = task.call(ctx, task)
    except Exception as exc:  # a traceback out of the program is a failed operation
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return workloads.Outcome(seconds=watch.seconds, wall=watch.wall, rc=rc,
                             stdout=stdout.getvalue(), error=error, result=result,
                             outdir=outdir)


def run_checked(ctx, task, outdir: Path, ledger: Ledger, tracer=None,
                probing: bool = True) -> Record:
    import workloads

    out = execute(ctx, task, outdir, tracer, probing)
    obs: dict = {}
    if out.error is not None:
        ok, msg = False, f"traceback: {out.error}"
    elif task.argv and out.rc != 0:
        ok, msg = False, f"exit {out.rc}"
    else:
        try:
            obs = task.check(ctx, task, out) or {}
            ok, msg = True, ""
        except workloads.CheckError as exc:
            ok, msg, obs = False, str(exc), exc.observations
        except Exception as exc:  # a check that cannot read the output fails it
            ok, msg = False, f"check raised {exc!r}"
    ledger.op(f"task {task.name}", ok, msg)
    return Record(ok, msg, obs, [out.seconds], [out.wall])


def merge(first: Record | None, again: Record) -> Record:
    if first is None:
        return again
    return Record(first.ok and again.ok, first.message or again.message, again.observations,
                  first.samples + again.samples, first.walls + again.walls)


def run_pass(ctx, tasks, outdir: Path, ledger: Ledger, tracer=None,
             probing: bool = True, spread=(), round_gap: float = 0.0) -> Pass:
    """Every task once; with probing, short ones repeated, and the spread
    tasks run in rounds between them (a trace run keeps wall seconds and one
    execution per task, so that its counts are exact)."""
    outdir.mkdir(parents=True)
    records: dict[str, Record] = {}

    def sample(task) -> None:
        rec = records.get(task.name)
        start = len(rec.samples) if rec else 0
        rec = merge(rec, run_checked(ctx, task, outdir, ledger, tracer, probing))
        while probing and (len(rec.samples) - start < task.min_samples
                           or sum(rec.samples[start:]) < REPEAT_S
                           and len(rec.samples) - start < MAX_REPEATS):
            rec = merge(rec, run_checked(ctx, task, outdir, ledger))
        records[task.name] = rec

    round_end = None
    for task in [None, *tasks]:
        if spread and (round_end is None or perf_counter() - round_end >= round_gap):
            for other in spread:
                sample(other)
            round_end = perf_counter()
        if task is not None:
            sample(task)
    return Pass(outdir, records)


def compare_outputs(first: Pass, later: Pass, ledger: Ledger, complete: bool) -> None:
    """Determinism probe: every data file is byte-identical across passes.

    A complete later pass must write every file the first one wrote.
    """
    def data_files(p: Pass):
        return {f.name for f in p.outdir.iterdir() if not f.name.endswith(".manifest.json")}

    names = data_files(later) | (data_files(first) if complete else set())
    for name in sorted(names):
        a, b = first.outdir / name, later.outdir / name
        same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
        ledger.op(f"deterministic {name}", same, "" if same else "differs between passes")


def run_probes(ctx, workload: str, outdir: Path, ledger: Ledger) -> None:
    import workloads

    for i, probe in enumerate(p for p in workloads.PROBES if p.group == workload):
        pdir = outdir / f"probe{i}"
        pdir.mkdir(parents=True)
        task = workloads.Task(probe.name, argv=probe.argv)
        outcome = execute(ctx, task, pdir, probing=False)
        ledger.probes[probe.name] = workloads.judge_probe(probe, outcome)


def task_samples(passes: list[Pass], name: str, kind: str = "samples") -> list[float]:
    return [x for p in passes if name in p.records for x in getattr(p.records[name], kind)]


def bytes_written(outdir: Path) -> int:
    return sum(f.stat().st_size for f in outdir.iterdir() if f.is_file())


def spec_names(key: str) -> list[tuple[str, str]] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [(m["name"], m["unit"]) for m in json.loads(path.read_text())[key]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 import_s: float) -> dict:
    import metrics
    import tracing
    import workloads
    import autocorr

    ctx = workloads.Context(ROOT, seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        with Stopwatch(not trace) as watch:
            ctx.setup()
        setup_times.append(watch.seconds)
    setup_s = import_s + statistics.median(setup_times)

    tasks = workloads.tasks_for(workload)
    ledger = Ledger()
    passes: list[Pass] = []
    start = perf_counter()
    layer_values = None
    if trace:
        passes.append(run_pass(ctx, tasks, workdir / "pass1", ledger, probing=False))
        extra = {"measure_share": metrics.measure_share(ctx),
                 "check_reference_s": ctx.reference_seconds,
                 "dense_flops_per_step": metrics.dense_flops_per_step(
                     len(ctx.catalog["suzuki4"].stages), ctx.dense_psi0.size)}
        counters = metrics.Counters()
        tracer = tracing.Tracer()
        tracer.observers.update(counters.observers())
        patched = tracer.install()
        try:
            with tracer.root("task.setup"):
                ctx.setup()
            passes.append(run_pass(ctx, tasks, workdir / "pass2", ledger, tracer, probing=False))
        finally:
            tracer.uninstall(patched)
        extra["overhead_s"] = passes[1].wall - passes[0].wall
        extra["bytes_written"] = bytes_written(passes[1].outdir)
        layer_values = metrics.per_layer(tracing.SpanTable(tracer), tasks, passes[1].records,
                                         counters, extra)
    else:
        own = [t for t in tasks if not t.spread]
        spread = [t for t in tasks if t.spread]
        while len(passes) < 2 or perf_counter() - start < seconds:
            if not passes:
                todo = own
            elif len(passes) == 1:
                todo = [t for t in own if not t.once]
            else:
                todo = [t for t in own
                        if statistics.median(passes[0].records[t.name].samples) < LONG_S]
            passes.append(run_pass(ctx, todo, workdir / f"pass{len(passes) + 1}", ledger,
                                   spread=spread, round_gap=workloads.ROUND_GAP_S[workload]))
    for i, later in enumerate(passes[1:]):
        compare_outputs(passes[0], later, ledger, complete=i == 0)
    run_probes(ctx, workload, workdir / "probes", ledger)
    ok, message = autocorr.self_test(seed)
    ledger.op("tau_int self-test", ok, message)

    if trace:
        values = layer_values
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        key = "per_layer"
    else:
        task_s = {t.name: statistics.median(task_samples(passes, t.name)) for t in tasks}
        observations = {t.name: passes[0].records[t.name].observations for t in tasks}
        values = metrics.end_to_end(tasks, task_s, observations)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_rate"] = ledger.ok_rate()
        units = dict(metrics.END_TO_END)
        key = "end_to_end"
    names = [name for name, _ in (spec_names(key) or units.items())]
    if sorted(names) != sorted(values) or any(units[n] != u for n, u in spec_names(key) or ()):
        raise SystemExit(f"metric set differs from BENCHMARK.json {key}: "
                         f"{sorted(set(names) ^ set(values))}")
    return {"workload": workload, "passes": len(passes), "ledger": ledger,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
            "pass_walls": [p.wall for p in passes],
            "task_seconds": {t.name: statistics.median(task_samples(passes, t.name))
                             for t in tasks},
            "task_wall_seconds": {t.name: statistics.median(task_samples(passes, t.name, "walls"))
                                  for t in tasks},
            "task_samples": {t.name: len(task_samples(passes, t.name)) for t in tasks}}


def report(result: dict) -> None:
    ledger = result["ledger"]
    print(f"# workload {result['workload']}: {result['passes']} passes, wall per pass "
          + ", ".join(f"{w:.3f}" for w in result["pass_walls"]) + " s")
    for name, sec in result["task_seconds"].items():
        print(f"# task {name:28s} {sec:10.4f} s ref, {result['task_wall_seconds'][name]:10.4f} s"
              f" wall, median of {result['task_samples'][name]}")
    for item, (ok, msg) in ledger.items.items():
        if not ok:
            print(f"# FAIL {item}: {msg}")
    for name, (ok, msg) in ledger.probes.items():
        print(f"# probe {name}: {'pass' if ok else 'FAIL'} ({msg})")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:10s} {name:50s} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (environment, metrics, "
                                      "verdicts) to this JSON file")
    args = parser.parse_args(argv)

    nthreads = cap_threads()
    src = ROOT / "src"
    if not (src / "expprod" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import_s = import_seconds(not args.trace)
    import expprod.cli  # noqa: F401

    env = environment(nthreads)
    print("# env " + json.dumps(env, sort_keys=True))
    workdir = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=ROOT))
    try:
        results = []
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                        workdir / workload, import_s))
            report(results[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["ledger"].attempted for r in results)
    failed = sum(r["ledger"].failed for r in results)
    if len(results) == 1:
        metrics_doc = results[0]["metrics"]
    else:
        metrics_doc = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics_doc}
    if args.out:
        full = {"env": env, "seed": args.seed, "trace": args.trace, "result": line,
                "workloads": [{"workload": r["workload"], "passes": r["passes"],
                               "pass_walls": r["pass_walls"], "task_seconds": r["task_seconds"],
                               "task_wall_seconds": r["task_wall_seconds"],
                               "verdicts": r["ledger"].items, "probes": r["ledger"].probes}
                              for r in results]}
        Path(args.out).write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
