"""The package entry points that ``bench/`` calls directly, called the way it calls them.

The benchmark runs one checkout's ``bench/`` against the package of another,
so a renamed function or a changed argument form breaks the benchmark
without breaking any other test.  Each call below copies a call in
``bench/workloads.py``, ``bench/metrics.py`` or ``bench/tracing.py``, at a
smaller size where the size does not matter.
"""

import inspect
from pathlib import Path

import numpy as np

from expprod import cli, poly, propagate, qmc, schemes

MODELS = Path(__file__).resolve().parents[1] / "scripts" / "models"


def test_dense_parts_and_unitary_step():
    catalog = schemes.catalog()
    a, b = qmc.hamiltonian_parts(qmc.ferromagnetic_chain(8))
    parts = {"A": propagate.HermitianPart(a, "A"), "B": propagate.HermitianPart(b, "B")}
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
    psi0 = psi / np.linalg.norm(psi)
    out = propagate.unitary_step(catalog["suzuki4"], parts, 0.01, propagate.QuantumState(psi0))
    h = propagate.HermitianPart(parts["A"].matrix + parts["B"].matrix)
    exact = h.expfactor(-1j * 0.01) @ psi0
    assert abs(np.linalg.norm(out.vector) - 1.0) <= 1e-10
    assert np.linalg.norm(out.vector - exact) <= 1e-6


def test_driven_reference_run():
    parts = propagate.driven_two_level()
    assert sorted(parts) == ["A", "B"]
    fine = propagate.run_timeordered(schemes.catalog()["timeordered4"], parts,
                                     0.0, 0.05 / 4, 4 * 4, propagate.QuantumState.up(2))
    assert fine.vector.shape == (2,) and abs(np.linalg.norm(fine.vector) - 1.0) <= 1e-12


def test_qmc_entry_points():
    model = {name: cli.load_model(str(MODELS / f"{name}.json")) for name in ("chain6", "pair")}
    assert len(qmc.matrix_trace_bond_zz(model["chain6"], 4)) == len(model["chain6"].bonds)
    assert isinstance(qmc.ground_energy_enumeration(model["chain6"]), float)
    assert isinstance(qmc.exact_reference(model["pair"]).bond_zz[0], float)
    # one kept sweep, as the measuring-share probe runs it
    stats = qmc.metropolis_run(model["chain6"], 4, 3, 2, 42)
    assert len(stats.traces["bond_zz"]) == 1


def test_traced_class_members():
    # the tracer wraps these members through the class __dict__
    for cls, attr in ((poly.RationalPoly, "evaluate"), (propagate.HermitianPart, "__init__")):
        assert inspect.isfunction(cls.__dict__[attr])
