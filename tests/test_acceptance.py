"""Acceptance gate: every criterion at its stated tolerance, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Regression bounds (precession C, Umeno energy band) were
measured once on this implementation and frozen.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expprod import cli, orders, propagate, qmc
from expprod.ncalg import lie_project, product_log
from expprod.poly import RationalPoly
from expprod.schemes import (
    CATALOG, evaluation_offsets, hybrid_fourth, ruth, strang, timeordered1,
    timeordered2, trotter,
)
import reference

suzuki4, suzuki6, suzuki8, timeordered4 = (
    CATALOG[name] for name in ("suzuki4", "suzuki6", "suzuki8", "timeordered4"))
FRUSTRATED4 = cli.load_model(
    str(Path(__file__).resolve().parent.parent / "scripts" / "models" / "frustrated4.json"))


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number}: {label} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds


# ---------------------------------------------------------------------------

def test_criterion_1_correction_term_exactness():
    with criterion(1, "exact second- and third-order correction terms", 1.0):
        log = product_log([("A", 1), ("B", 1)], 3, ("A", "B"))
        combo = lie_project(log)
        assert combo.terms[(0, 1)] == Fraction(1, 2)          # [A,B]
        assert combo.terms[(0, 0, 1)] == Fraction(1, 12)      # [A,[A,B]]
        assert combo.terms[(0, 1, 1)] == Fraction(1, 12)      # [[A,B],B]
        assert all(isinstance(c, Fraction) for c in combo.terms.values())


def test_criterion_2_magic_constants():
    from math import comb

    def defining(mult, power):
        coeffs = [comb(power, k) * (-mult) ** k for k in range(power + 1)]
        coeffs[power] += mult
        poly = RationalPoly.const(0)
        for k, c in enumerate(coeffs):
            poly = poly + RationalPoly.const(c) * RationalPoly.var("s") ** k
        return orders.OrderConditionSet(("s",), (orders.ConditionEq(1, (0,), poly),))

    targets = [
        (2, 3, 1.0, 1.351207191959657),
        (4, 3, 0.4, 0.414490771794375),
        (4, 5, 0.4, 0.373065827733272),
        (4, 7, 0.4, 0.359584649349992),
    ]
    with criterion(2, "fractal constants from their defining polynomials", 1.0):
        for mult, power, guess, value in targets:
            report = orders.solve(defining(mult, power), guess={"s": guess})
            assert report.converged
            assert abs(report.solution["s"] - value) <= 1e-14


def test_criterion_3_ruth_reproduction():
    with criterion(3, "third-order six-stage solution, exact and recovered", 5.0):
        conds = orders.order_conditions(reference.pattern_stages("ABABAB"), 3)
        point = {"p1": Fraction(7, 24), "p2": Fraction(2, 3), "p3": Fraction(3, 4),
                 "p4": Fraction(-2, 3), "p5": Fraction(-1, 24), "p6": Fraction(1)}
        residuals = [eq.poly.evaluate(point) for eq in conds.equations]
        assert all(r == 0 for r in residuals)
        q = point["p2"] * point["p3"] + point["p2"] * point["p5"] + point["p4"] * point["p5"]
        assert 2 * q == 1
        guess = {"p1": 0.33, "p2": 0.62, "p3": 0.79, "p4": -0.61, "p5": -0.08}
        report = orders.solve(conds, fixed={"p6": 1}, guess=guess)
        assert report.converged
        for name, exact in point.items():
            assert abs(report.solution[name] - float(exact)) <= 1e-13


def test_criterion_4_empirical_orders():
    period = propagate.precession_period(0.75)
    with criterion(4, "global-error slopes for all named schemes", 60.0):
        low = [period * 2 ** -k for k in range(6, 13)]
        wide = [2 ** (-k / 2) for k in range(0, 9)]

        def slope(scheme, dts, t_final):
            return propagate.convergence(scheme, dts=dts, t_final=t_final).slope

        assert slope(strang(), low, 1.0) == pytest.approx(2.0, abs=0.2)
        assert slope(suzuki4(), low, 1.0) == pytest.approx(4.0, abs=0.2)
        assert slope(ruth(), low, 1.0) == pytest.approx(3.0, abs=0.2)
        assert slope(suzuki6(), wide, 2.0) == pytest.approx(6.0, abs=0.2)
        assert slope(suzuki8(), wide, 2.0) == pytest.approx(8.0, abs=0.3)

        rng = np.random.default_rng(7)

        def rand_herm(n):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (m + m.conj().T) / 2
            return h / np.linalg.norm(h, 2)

        a, b = rand_herm(3), rand_herm(3)
        dts = [0.4 * 2 ** (-k / 2) for k in range(0, 8)]
        errs = [propagate.hermitian_pair_error(hybrid_fourth(), a, b, dt, 1.6)
                for dt in dts]
        assert propagate.error_slope(dts, errs) == pytest.approx(4.0, abs=0.2)

        driven = propagate.convergence(timeordered4(), "driven",
                                       [1 / 4, 1 / 8, 1 / 16, 1 / 32], 1.0)
        assert driven.slope == pytest.approx(4.0, abs=0.2)


def test_criterion_5_structure_preservation():
    with criterion(5, "bounded unitary/symplectic runs vs growing baselines", 120.0):
        gamma, dt = 0.75, 1e-4
        period = propagate.precession_period(gamma)
        assert abs(period - 4 * math.pi / 5) < 1e-15
        steps = int(round(10 * period / dt))
        rows = propagate.run_precession(trotter(), gamma, dt, steps, sample_every=100)
        ts = [r[0] for r in rows][1:]
        es = [r[1] for r in rows][1:]
        deviation = max(abs(e - 1) for e in es)
        assert deviation <= 1.0 * dt            # frozen regression constant C = 1.0
        measured = reference.dominant_period(ts, es)
        assert abs(measured - period) / period <= 0.02

        pert = propagate.run_precession("perturbative", gamma, dt, steps,
                                        sample_every=100)
        dev = [abs(r[1] - 1) for r in pert[1:]]
        tenth = max(dev[:len(dev) // 10])
        assert dev[-1] > tenth                   # monotone-growth witness

        rows = propagate.run_umeno(trotter(), dt=1e-4, steps=1_000_000,
                                   sample_every=1000)
        assert rows[0][1] == 2.0
        assert max(abs(r[1] - 2.0) for r in rows) <= 0.01   # frozen band
        euler_rows = propagate.run_umeno("euler", dt=1e-4, steps=1_000_000,
                                         sample_every=1000)
        slope = np.polyfit([r[0] for r in euler_rows],
                           [r[1] for r in euler_rows], 1)[0]
        assert slope > 0

        rng = np.random.default_rng(5)
        for scheme in (trotter(), strang(), suzuki4()):
            p, q = rng.normal(size=2), rng.normal(size=2)
            det = reference.jacobian_determinant(
                lambda p, q: propagate.symplectic_step(scheme, reference.umeno_grad_v, 0.01, p, q),
                p, q)
            assert abs(det - 1.0) <= 1e-8


def test_criterion_6_timeordered_correctness():
    with criterion(6, "shift-time schemes: static reduction and exact stage times", 5.0):
        parts_static = {"A": (lambda t: 1.0, np.array([[1, 0], [0, -1]], dtype=complex)),
                        "B": (lambda t: 0.75, np.array([[0, 1], [1, 0]], dtype=complex))}
        pm = propagate.spin_parts(0.75)
        psi = propagate.QuantumState(np.array([0.6, 0.8]))
        for g, twin in [(timeordered1(), trotter()), (timeordered2(), strang()),
                        (timeordered4(), suzuki4())]:
            out = propagate.run_timeordered(g, parts_static, 0.2, 0.04, 1, psi)
            ref = propagate.unitary_step(twin, pm, 0.04, psi)
            assert np.linalg.norm(out.vector - ref.vector) <= 1e-12

        s2 = RationalPoly.var("quintuple_order2")
        expected = [s2 * Fraction(1, 2), s2 * Fraction(3, 2),
                    RationalPoly.const(Fraction(1, 2)),
                    1 - s2 * Fraction(3, 2), 1 - s2 * Fraction(1, 2)]
        seen = []
        for _, _, tau in evaluation_offsets(timeordered4()):
            poly = tau if isinstance(tau, RationalPoly) else RationalPoly.const(tau)
            if not seen or seen[-1] != poly:
                seen.append(poly)
        assert seen == expected


def test_criterion_7_perturbational_composition():
    with criterion(7, "weak-transverse-field coefficient equals x*coth(x)", 1.0):
        for x in (0.1, 0.5, 1.0, 2.0):
            extracted = reference.transverse_coupling_coefficient(x)
            assert abs(extracted - x / math.tanh(x)) <= 1e-6


def test_criterion_8_qmc_exactness_ladder():
    with criterion(8, "enumeration / trace / sampling / extrapolation ladder", 600.0):
        single = qmc.IsingModel(sites=1, bonds=(), gamma=1.0, beta=1.0)
        pair = qmc.IsingModel(sites=2, bonds=((0, 1, 1.0),), gamma=1.0, beta=1.0)
        chain6 = qmc.ferromagnetic_chain(6, beta=2.0, gamma=1.0)
        for model, n in [(single, 2), (single, 4), (pair, 2), (pair, 4), (pair, 8),
                         (FRUSTRATED4, 2), (FRUSTRATED4, 4), (chain6, 3)]:
            en = reference.enumeration_reference(model, n)
            tr = qmc.exact_reference(model, n)
            for got, want in [(tr.log_z, en.log_z), (tr.trotter_corr, en.trotter_corr),
                              (tr.diag_energy, en.diag_energy), (tr.sigma_x, en.sigma_x),
                              *zip(tr.bond_zz, en.bond_zz)]:
                # relative, except that a correlation (in [-1, 1]) far below 1
                # is held to 1e-12 absolute: the enumeration resolves no more
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

        cfg = reference.kept_configurations(single, 2, sweeps=60000, therm=5000, seed=7)[::10]
        counts = np.bincount(cfg, minlength=4).astype(float)
        c = qmc.couplings(single, 2)
        weights = np.array([math.exp(2 * c.gamma_n * (1 if code in (0, 3) else -1))
                            for code in range(4)])
        probs = weights / weights.sum()
        expected = probs * counts.sum()
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 16.27                     # 0.1% point of chi^2 with 3 dof

        result = qmc.trotter_extrapolate(pair, [4, 8, 16], sweeps=20000, seed=11)
        quantum = qmc.exact_reference(pair).bond_zz[0]
        assert abs(result.c0 - quantum) <= 3 * result.c0_std_error


def test_criterion_9_annealing_sanity():
    with criterion(9, "slow annealing reaches ground states and beats quenching", 600.0):
        chain = qmc.ferromagnetic_chain(6)
        sched = qmc.anneal_schedule()
        hits = sum(abs(r.energy + 5.0) < 1e-9
                   for r in qmc.anneal_batch(chain, 8, sched, 60, range(20)))
        assert hits >= 19                        # >= 95% of 20 seeds

        frus = FRUSTRATED4
        eg = qmc.ground_energy_enumeration(frus)
        slow = sum(abs(r.energy - eg) < 1e-9
                   for r in qmc.anneal_batch(frus, 8, sched, 60, range(50)))
        quench = sum(abs(r.energy - eg) < 1e-9
                     for r in qmc.anneal_batch(frus, 8, [sched[-1]], 60, range(50)))
        assert quench < slow
