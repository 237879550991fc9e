"""Metric definitions and their derivation from task timings and spans.

The names and units here are the ones BENCHMARK.json lists; ``run.py``
refuses to print a result when the two disagree.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

import workloads
from tracing import LAYERS

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("ok_rate", "ratio"),
    ("verify_s", "s"), ("solve_s", "s"),
    ("unitary_steps_per_s", "1/s"), ("symplectic_steps_per_s", "1/s"),
    ("timeordered_steps_per_s", "1/s"), ("dense_steps_per_s", "1/s"), ("converge_s", "s"),
    ("qmc_s_per_indep_n16", "s"), ("qmc_s_per_indep_n64", "s"),
    ("anneal_tts_s", "s"), ("extrapolate_s", "s"),
)

_SUM_METRICS = ("verify_s", "solve_s", "converge_s", "extrapolate_s")
_RATE_METRICS = ("unitary_steps_per_s", "symplectic_steps_per_s",
                 "timeordered_steps_per_s", "dense_steps_per_s")
QMC_TAGS = ("n16", "n64")
VERIFIED = ("suzuki4", "suzuki6", "timeordered4", "suzuki8")


def _layer_rows():
    rows = []
    for layer in LAYERS:
        rows += [(f"{layer}.calls", "count", "lower"), (f"{layer}.s", "s", "lower"),
                 (f"{layer}.overhead_s" if layer == "cli" else f"{layer}.self_s", "s", "lower")]
    return rows


PER_LAYER = tuple(_layer_rows()) + (
    ("cli.bytes_written", "bytes", "lower"),
    ("schemes.catalog.calls", "count", "lower"), ("schemes.catalog.s", "s", "lower"),
    ("schemes.evaluation_times.calls", "count", "lower"),
    ("schemes.evaluation_times.self_s", "s", "lower"),
    ("poly.evaluate.calls", "count", "lower"), ("poly.evaluate.self_s", "s", "lower"),
    ("ncalg.series_mul.calls", "count", "lower"), ("ncalg.series_mul.self_s", "s", "lower"),
    ("ncalg.stage_exp.calls", "count", "lower"), ("ncalg.stage_exp.s", "s", "lower"),
    ("ncalg.product_log.s", "s", "lower"), ("ncalg.stage_product.s", "s", "lower"),
    ("ncalg.lie_project.s", "s", "lower"),
    ("ncalg.log_terms", "count", "lower"), ("ncalg.max_den_bits", "bits", "lower"),
) + tuple((f"orders.verify_order.{name}.s", "s", "lower") for name in VERIFIED) + (
    ("orders.order_conditions.s", "s", "lower"), ("orders.solve.s", "s", "lower"),
    ("orders.solve.iterations", "count", "lower"), ("orders.ruth_family.s", "s", "lower"),
    ("orders.family.converged", "count", "higher"),
    ("propagate.run_precession.trotter.steps_per_s", "1/s", "higher"),
    ("propagate.run_precession.perturbative.steps_per_s", "1/s", "higher"),
    ("propagate.run_umeno.trotter.steps_per_s", "1/s", "higher"),
    ("propagate.run_umeno.euler.steps_per_s", "1/s", "higher"),
    ("propagate.timeordered_step.calls", "count", "lower"),
    ("propagate.timeordered_step.self_s", "s", "lower"),
    ("propagate.unitary_step.calls", "count", "lower"), ("propagate.unitary_step.s", "s", "lower"),
    ("propagate.stage_unitaries.self_s", "s", "lower"),
    ("propagate.dense_step.flops", "flop/s", "higher"),
    ("propagate.driven_error.s", "s", "lower"), ("propagate.spin_error.s", "s", "lower"),
    ("propagate.HermitianPart.s", "s", "lower"),
) + tuple(row for tag in QMC_TAGS for row in (
    (f"qmc.metropolis_run.{tag}.s", "s", "lower"), (f"qmc.run_traces.{tag}.s", "s", "lower"),
    (f"qmc.sweep_ms.{tag}", "ms", "lower"), (f"qmc.acceptance.{tag}", "ratio", "higher"),
    (f"qmc.tau_int.{tag}", "sweeps", "lower"), (f"qmc.tau_int.{tag}.err", "sweeps", "lower"),
    (f"qmc.measure_share.{tag}", "ratio", "lower"),
)) + (
    ("qmc.anneal.s", "s", "lower"), ("qmc.anneal.successes", "count", "higher"),
    ("qmc.trotter_extrapolate.s", "s", "lower"), ("qmc.exact_reference.s", "s", "lower"),
    ("qmc.check_reference_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------

def end_to_end(tasks, seconds: dict[str, float], observations: dict[str, dict]) -> dict[str, float]:
    """End-to-end values from each task's median seconds and its observations."""
    out = {"wall_s": sum(seconds[t.name] for t in tasks)}
    for metric in _SUM_METRICS:
        out[metric] = sum(seconds[t.name] for t in tasks if t.metric == metric)
    for metric in _RATE_METRICS:
        (task,) = [t for t in tasks if t.metric == metric]
        out[metric] = task.steps / seconds[task.name]
    for tag in QMC_TAGS:
        (task,) = [t for t in tasks if t.metric == f"qmc_s_per_indep_{tag}"]
        obs = observations[task.name]
        out[f"qmc_s_per_indep_{tag}"] = (seconds[task.name] * 2.0 * obs.get("tau", 0.5)
                                         / obs.get("kept", task.steps))
    anneals = [t for t in tasks if t.metric == "anneal_tts_s"]
    hits = sum(bool(observations[t.name].get("success")) for t in anneals)
    # a run with no hit is already a failed check; one hit keeps the number finite
    out["anneal_tts_s"] = (statistics.mean(seconds[t.name] for t in anneals)
                           * len(anneals) / max(1, hits))
    return out


# ---------------------------------------------------------------------------
# Per layer
# ---------------------------------------------------------------------------

class Counters:
    """Counts read off return values while the layers are traced."""

    def __init__(self):
        self.log_terms = 0
        self.max_den_bits = 0
        self.solve_iterations = 0
        self.family_converged = 0

    def observers(self) -> dict:
        return {"ncalg.product_log": self._series, "orders.solve": self._solve,
                "orders.ruth_family": self._family}

    def _series(self, series) -> None:
        self.log_terms += len(series.terms)
        for c in series.terms.values():
            values = c.terms.values() if hasattr(c, "terms") else (c,)
            for v in values:
                if isinstance(v, Fraction):
                    self.max_den_bits = max(self.max_den_bits, v.denominator.bit_length())

    def _solve(self, report) -> None:
        self.solve_iterations += report.iterations

    def _family(self, points) -> None:
        self.family_converged += sum(1 for p in points if p.converged)


def dense_flops_per_step(n_stages: int, dim: int) -> float:
    """Computed, not counted: per stage one complex N^3 product (8N^3 flops),
    the phase scaling of the eigenvectors (6N^2) and the mat-vec (8N^2)."""
    return n_stages * (8.0 * dim ** 3 + 14.0 * dim ** 2)


def per_layer(spans, tasks, records, counters: Counters, extra: dict) -> dict[str, float]:
    """Per-layer values of one traced pass.

    ``spans`` is a tracing.SpanTable whose task roots are named ``task.<name>``;
    ``extra`` carries values measured outside the traced pass.
    """
    roots = spans.task_roots()
    every = {i for ids in roots.values() for i in ids}
    out: dict[str, float] = {}

    def under(task_name):
        return set(roots.get(task_name, ()))

    def calls(name, within=None):
        return spans.calls(spans.select(name=name, roots=every if within is None else within))

    def incl(name, within=None):
        return spans.inclusive(spans.select(name=name, roots=every if within is None else within))

    def self_s(name):
        return spans.self_s(spans.select(name=name, roots=every))

    for layer in LAYERS:
        mask = spans.select(layer=layer, roots=every)
        out[f"{layer}.calls"] = spans.calls(mask)
        out[f"{layer}.s"] = spans.inclusive(mask, by_layer=True)
        out[f"{layer}.overhead_s" if layer == "cli" else f"{layer}.self_s"] = spans.self_s(mask)
    out["cli.bytes_written"] = extra["bytes_written"]
    out["schemes.catalog.calls"] = calls("schemes.catalog")
    out["schemes.catalog.s"] = incl("schemes.catalog")
    out["schemes.evaluation_times.calls"] = calls("schemes.evaluation_times")
    out["schemes.evaluation_times.self_s"] = self_s("schemes.evaluation_times")
    out["poly.evaluate.calls"] = calls("poly.evaluate")
    out["poly.evaluate.self_s"] = self_s("poly.evaluate")
    out["ncalg.series_mul.calls"] = calls("ncalg.series_mul")
    out["ncalg.series_mul.self_s"] = self_s("ncalg.series_mul")
    out["ncalg.stage_exp.calls"] = calls("ncalg.stage_exp")
    for name in ("stage_exp", "product_log", "stage_product", "lie_project"):
        out[f"ncalg.{name}.s"] = incl(f"ncalg.{name}")
    out["ncalg.log_terms"] = counters.log_terms
    out["ncalg.max_den_bits"] = counters.max_den_bits
    for name in VERIFIED:
        out[f"orders.verify_order.{name}.s"] = incl("orders.verify_order", under(f"check_{name}"))
    for name in ("order_conditions", "solve", "ruth_family"):
        out[f"orders.{name}.s"] = incl(f"orders.{name}")
    out["orders.solve.iterations"] = counters.solve_iterations
    out["orders.family.converged"] = counters.family_converged

    by_name = {t.name: t for t in tasks}
    for fn, kinds in (("run_precession", ("trotter", "perturbative")),
                      ("run_umeno", ("trotter", "euler"))):
        for kind in kinds:
            # the light propagate group has no perturbative or euler run
            name = f"{fn.split('_')[1]}_{kind}"
            seconds = incl(f"propagate.{fn}", under(name))
            out[f"propagate.{fn}.{kind}.steps_per_s"] = (
                by_name[name].steps / seconds if seconds else 0.0)
    out["propagate.timeordered_step.calls"] = calls("propagate.timeordered_step")
    out["propagate.timeordered_step.self_s"] = self_s("propagate.timeordered_step")
    out["propagate.unitary_step.calls"] = calls("propagate.unitary_step")
    out["propagate.unitary_step.s"] = incl("propagate.unitary_step")
    out["propagate.stage_unitaries.self_s"] = self_s("propagate.stage_unitaries")
    dense = by_name["dense"]
    seconds = incl("propagate.unitary_step", under("dense"))
    out["propagate.dense_step.flops"] = (
        extra["dense_flops_per_step"] * dense.steps / seconds if seconds else 0.0)
    for name in ("driven_error", "spin_error", "HermitianPart"):
        out[f"propagate.{name}.s"] = incl(f"propagate.{name}")

    for tag in QMC_TAGS:
        task = by_name[f"qmc_{tag}"]
        obs = records[task.name].observations
        run_s = incl("qmc.metropolis_run", under(task.name))
        out[f"qmc.metropolis_run.{tag}.s"] = run_s
        out[f"qmc.run_traces.{tag}.s"] = incl("qmc.run_traces", under(task.name))
        out[f"qmc.sweep_ms.{tag}"] = 1e3 * run_s / task.steps
        out[f"qmc.acceptance.{tag}"] = obs.get("acceptance", 0.0)
        out[f"qmc.tau_int.{tag}"] = obs.get("tau", 0.0)
        out[f"qmc.tau_int.{tag}.err"] = obs.get("tau_err", 0.0)
        out[f"qmc.measure_share.{tag}"] = extra["measure_share"][tag]
    anneals = [t for t in tasks if t.metric == "anneal_tts_s"]
    out["qmc.anneal.s"] = incl("qmc.anneal")
    out["qmc.anneal.successes"] = sum(
        bool(records[t.name].observations.get("success")) for t in anneals)
    out["qmc.trotter_extrapolate.s"] = incl("qmc.trotter_extrapolate")
    out["qmc.exact_reference.s"] = incl("qmc.exact_reference")
    out["qmc.check_reference_s"] = extra["check_reference_s"]
    out["trace.overhead_s"] = extra["overhead_s"]
    return out


def measure_share(ctx, sweeps: int = 400, repeats: int = 5) -> dict[str, float]:
    """Share of metropolis_run time spent measuring, from runs that measure
    every sweep (therm=0) against runs that measure only the last; the
    fastest of five alternating repeats of each, since load only slows."""
    from time import perf_counter

    from expprod import qmc

    share = {}
    for tag, model, n in (("n16", "chain6", 16), ("n64", "pair", 64)):
        times: dict[int, list[float]] = {0: [], sweeps - 1: []}
        for _ in range(repeats):
            for therm in times:
                t0 = perf_counter()
                qmc.metropolis_run(ctx.model[model], n, sweeps, therm, workloads.QMC_SEED)
                times[therm].append(perf_counter() - t0)
        every, last = (min(v) for v in times.values())
        share[tag] = (every - last) / every
    return share
