import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from expprod.propagate import (
    UMENO_IC, HermitianPart, LogBranchError, PhasePoint, QuantumState,
    SeparableHamiltonian, TimeDependentParts, convergence, dominant_period, driven_error,
    driven_two_level, drift, error_slope, euler_step,
    hermitian_pair_error, jacobian_determinant, kick, perturbational_composition,
    precession_period, run_precession, run_timeordered,
    run_umeno, sample_marks, spin_error, spin_parts, stage_unitaries, step_count,
    step_operator, symplectic_step, transverse_coupling_coefficient, umeno_hamiltonian,
    unitary_step,
)
from expprod.schemes import (
    CATALOG, Scheme, Stage, hybrid_fourth, hybrid_second, ruth, stage_plan,
    strang, timeordered1, timeordered2, trotter,
)

suzuki4, suzuki6, suzuki8, timeordered4 = (
    CATALOG[name] for name in ("suzuki4", "suzuki6", "suzuki8", "timeordered4"))

GAMMA = 0.75


# ---------------------------------------------------------------------------
# HermitianPart / QuantumState
# ---------------------------------------------------------------------------

def test_hermitian_part_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianPart(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigendecomposition_reconstructs():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = HermitianPart((m + m.conj().T) / 2)
    assert h.reconstruction_error() < 1e-12


def test_expfactor_is_unitary():
    h = spin_parts(GAMMA)["A"]
    u = h.expfactor(-1j * 0.3)
    assert np.linalg.norm(u @ u.conj().T - np.eye(2)) < 1e-14


# ---------------------------------------------------------------------------
# unitary stepping
# ---------------------------------------------------------------------------

def test_zero_dt_is_identity():
    psi = QuantumState.up(2)
    out = unitary_step(strang(), spin_parts(GAMMA), 0.0, psi)
    assert np.allclose(out.vector, psi.vector)


@pytest.mark.parametrize("scheme", [suzuki4(), hybrid_fourth()], ids=["suzuki4", "hybrid_fourth"])
def test_unitary_step_matches_the_stage_factors(scheme):
    # letter stages act in the parts' eigenbases, commutator stages as factors
    rng = np.random.default_rng(3)

    def rand_herm(n):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (m + m.conj().T) / 2

    parts = {"A": HermitianPart(rand_herm(12)), "B": HermitianPart(rand_herm(12))}
    psi = QuantumState(rng.normal(size=12) + 1j * rng.normal(size=12))
    ref = psi.vector
    for m in stage_unitaries(scheme, parts, 0.05):
        ref = m @ ref
    out = unitary_step(scheme, parts, 0.05, psi)
    assert np.linalg.norm(out.vector - ref) < 1e-13 * np.linalg.norm(ref)


def test_precession_returns_after_one_period():
    period = precession_period(GAMMA)
    assert abs(period - 4 * math.pi / 5) < 1e-15  # eigenvalues +-5/4 at gamma=3/4
    parts = spin_parts(GAMMA)
    dt = period / 10 ** 4
    u = np.linalg.matrix_power(step_operator(strang(), parts, dt), 10 ** 4)
    psi0 = QuantumState.up(2).vector
    fidelity = abs(np.vdot(psi0, u @ psi0)) ** 2
    assert fidelity >= 1 - 1e-6


def test_norm_preserved_over_a_million_steps():
    parts = spin_parts(GAMMA)
    u = step_operator(trotter(), parts, 1e-4)
    psi = QuantumState.up(2).vector
    for _ in range(1_000_000):
        psi = u @ psi
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_perturbative_step_norm_growth():
    dt = 1e-4
    norm = run_precession("perturbative", GAMMA, dt, 1, 1)[1][2]
    # ||psi'||^2 = 1 + dt^2 <H^2> with <H^2> = 1 + gamma^2 for the up state
    expected = math.sqrt(1 + dt ** 2 * (1 + GAMMA ** 2))
    assert norm == pytest.approx(expected, abs=1e-12)
    assert norm > 1


def test_perturbative_energy_drifts_upward():
    rows = run_precession("perturbative", GAMMA, 1e-4, 100_000, sample_every=1000)
    energies = [r[1] for r in rows]
    assert energies[0] == pytest.approx(1.0, abs=1e-12)
    drifts = np.diff(energies)
    assert np.all(drifts > 0)


def test_precession_energy_bounded_and_periodic():
    period = precession_period(GAMMA)
    dt = 1e-4
    steps = int(round(10 * period / dt))
    rows = run_precession(trotter(), GAMMA, dt, steps, sample_every=100)
    ts = [r[0] for r in rows][1:]
    es = [r[1] for r in rows][1:]
    deviation = max(abs(e - 1) for e in es)
    # regression constant C = 1.0 frozen from the reference run (measured 0.45)
    assert deviation <= 1.0 * dt
    measured = dominant_period(ts, es)
    assert abs(measured - period) / period < 0.02


# ---------------------------------------------------------------------------
# classical stepping
# ---------------------------------------------------------------------------

def harmonic() -> SeparableHamiltonian:
    return SeparableHamiltonian(
        grad_k=lambda p: p, grad_v=lambda q: q,
        kinetic=lambda p: 0.5 * float(p @ p),
        potential=lambda q: 0.5 * float(q @ q))


def test_drift_is_free_flight():
    h = umeno_hamiltonian()
    x = PhasePoint(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    out = drift(h, 0.1, x)
    assert np.allclose(out.q, x.q + 0.1 * x.p)
    assert np.allclose(out.p, x.p)


def test_kick_matches_potential_gradient():
    h = umeno_hamiltonian()
    x = PhasePoint(np.zeros(2), np.array([2.0, 1.0]))
    out = kick(h, 0.1, x)
    # grad V = (q1 q2^2, q1^2 q2) = (2, 4)
    assert np.allclose(out.p, [-0.2, -0.4])
    assert np.allclose(out.q, x.q)


def test_kick_drift_do_not_commute():
    h = umeno_hamiltonian()
    x = PhasePoint(np.array([0.3, -0.7]), np.array([1.1, 0.4]))
    a = kick(h, 0.2, drift(h, 0.2, x))
    b = drift(h, 0.2, kick(h, 0.2, x))
    assert not np.allclose(a.p, b.p) or not np.allclose(a.q, b.q)


def test_gradients_consistent_with_energy():
    h = umeno_hamiltonian()
    rng = np.random.default_rng(1)
    p, q = rng.normal(size=2), rng.normal(size=2)
    eps = 1e-6
    for i in range(2):
        dq = np.zeros(2)
        dq[i] = eps
        num = (h.potential(q + dq) - h.potential(q - dq)) / (2 * eps)
        assert num == pytest.approx(h.grad_v(q)[i], rel=1e-6, abs=1e-8)
        num_k = (h.kinetic(p + dq) - h.kinetic(p - dq)) / (2 * eps)
        assert num_k == pytest.approx(h.grad_k(p)[i], rel=1e-6, abs=1e-8)


def test_harmonic_energy_error_bounded():
    h = harmonic()
    dt = 1e-3
    x = PhasePoint(np.array([0.0]), np.array([1.0]))
    e0 = h.energy(x)
    worst = 0.0
    for _ in range(100_000):
        x = symplectic_step(strang(), h, dt, x)
        worst = max(worst, abs(h.energy(x) - e0))
    assert worst <= 3e-7


def test_euler_step_grows_harmonic_energy_exactly():
    h = harmonic()
    dt = 1e-2
    x = PhasePoint(np.array([0.3]), np.array([0.8]))
    e0 = h.energy(x)
    x1 = euler_step(h, dt, x)
    assert h.energy(x1) == pytest.approx(e0 * (1 + dt ** 2), rel=1e-12)


@pytest.mark.parametrize("scheme", [trotter(), strang(), suzuki4()],
                         ids=["trotter", "strang", "suzuki4"])
def test_symplectic_jacobian_determinant(scheme):
    for h in (umeno_hamiltonian(), harmonic()):
        rng = np.random.default_rng(42)
        x = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        det = jacobian_determinant(lambda y: symplectic_step(scheme, h, 0.01, y), x)
        assert abs(det - 1.0) < 1e-8


@pytest.mark.parametrize("scheme", [hybrid_second(), hybrid_fourth(), timeordered2()],
                         ids=["hybrid_second", "hybrid_fourth", "timeordered2"])
def test_classical_stepping_refuses_commutators_and_shift_time(scheme):
    x = PhasePoint(np.zeros(2), np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        symplectic_step(scheme, umeno_hamiltonian(), 0.01, x)
    with pytest.raises(ValueError):
        run_umeno(scheme, dt=0.01, steps=10, sample_every=5)


def test_classical_stepping_refuses_an_unmapped_slot():
    # A drifts and B kicks; a slot with any other label has no classical flow
    x = PhasePoint(np.zeros(2), np.array([2.0, 1.0]))
    leapfrog_ac = Scheme(("A", "C"), (Stage("A", Fraction(1, 2)), Stage("C", Fraction(1)),
                                      Stage("A", Fraction(1, 2))), claimed_order=2)
    with pytest.raises(ValueError, match="'C'"):
        symplectic_step(leapfrog_ac, umeno_hamiltonian(), 0.01, x)


def test_umeno_run_reproduces_caption():
    rows = run_umeno(trotter(), dt=1e-4, steps=200_000, sample_every=1000)
    assert rows[0][1] == 2.0  # E = 0 + (1/2) * 4 * 1
    deviation = max(abs(r[1] - 2.0) for r in rows)
    assert deviation < 0.01
    envelope = math.sqrt(2 * (2.0 + deviation))
    assert all(abs(r[2] * r[3]) <= envelope + 1e-9 for r in rows)


def test_umeno_euler_energy_grows():
    rows = run_umeno("euler", dt=1e-4, steps=200_000, sample_every=1000)
    ts = np.array([r[0] for r in rows])
    es = np.array([r[1] for r in rows])
    slope = np.polyfit(ts, es, 1)[0]
    assert slope > 0
    assert es[-1] > es[0]


@pytest.mark.parametrize("name", ["trotter", "strang", "ruth", "suzuki4", "triple_jump4"])
def test_umeno_float_loop_matches_symplectic_step(name):
    # run_umeno inlines the kick/drift maps in floats; the generic composition
    # sampled at steps 0, 300, ..., 1800 and the last step must agree with it
    scheme, h, dt = CATALOG[name](), umeno_hamiltonian(), 1e-3
    x = UMENO_IC
    expected = [(0.0, h.energy(x), x.q[0], x.q[1])]
    for k in range(1, 2001):
        x = symplectic_step(scheme, h, dt, x)
        if k % 300 == 0 or k == 2000:
            expected.append((k * dt, h.energy(x), x.q[0], x.q[1]))
    rows = run_umeno(scheme, dt=dt, steps=2000, sample_every=300)
    np.testing.assert_allclose(rows, expected, rtol=1e-12, atol=0)


def test_sample_marks_end_at_the_last_step():
    assert sample_marks(7, 3) == [0, 3, 6, 7]
    assert sample_marks(6, 3) == [0, 3, 6]
    assert sample_marks(2, 5) == [0, 2]


def test_time_reversibility_of_symmetric_schemes():
    h = umeno_hamiltonian()
    x0 = PhasePoint(np.array([0.4, -0.2]), np.array([1.5, 0.7]))
    for scheme in (strang(), suzuki4()):
        x = symplectic_step(scheme, h, 0.05, x0)
        back = symplectic_step(scheme, h, -0.05, x)
        assert np.linalg.norm(back.p - x0.p) + np.linalg.norm(back.q - x0.q) < 1e-10
    parts = spin_parts(GAMMA)
    psi0 = QuantumState(np.array([0.6, 0.8j]))
    psi = unitary_step(strang(), parts, 0.05, psi0)
    psi = unitary_step(strang(), parts, -0.05, psi)
    assert np.linalg.norm(psi.vector - psi0.vector) < 1e-10


# ---------------------------------------------------------------------------
# empirical order
# ---------------------------------------------------------------------------

def test_low_order_slopes():
    # the default grid: the precession period times 2^-k, k = 6..12, to t_final 1
    assert convergence(strang()).slope == pytest.approx(2.0, abs=0.2)
    assert convergence(ruth()).slope == pytest.approx(3.0, abs=0.2)
    assert convergence(suzuki4()).slope == pytest.approx(4.0, abs=0.2)


def test_high_order_slopes():
    # the default grid: 2^(-k/2), k = 0..8, to t_final 2
    assert convergence(suzuki6()).slope == pytest.approx(6.0, abs=0.2)
    assert convergence(suzuki8()).slope == pytest.approx(8.0, abs=0.3)


def test_convergence_fits_only_points_above_the_floor_and_under_the_cap():
    # dt = 1 is above the spin cap 1/1.25 at an error of 8e-9, and suzuki8's
    # 251 stages put the floor of its 8 steps at dt = 1/4 (8.8e-13) above its
    # error there (1.9e-13), though that error clears 1e-13
    study = convergence(suzuki8(), dts=[1.0, 0.5, 2 ** -1.5, 0.25], t_final=2.0)
    assert study.points_used == 2 and study.t_final == 2.0
    assert 1e-13 < study.errors[-1] < 8.8e-13
    assert study.slope == error_slope(study.dts[1:3], study.errors[1:3])
    assert convergence(strang(), dts=[5.0, 10.0]).slope is None
    with pytest.raises(ValueError, match="unknown system"):
        convergence(strang(), system="dense")


def test_hybrid_fourth_slope_on_random_hermitian_pairs():
    rng = np.random.default_rng(7)

    def rand_herm(n):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        return h / np.linalg.norm(h, 2)

    a, b = rand_herm(3), rand_herm(3)
    dts = [0.4 * 2 ** (-k / 2) for k in range(0, 8)]
    errs = [hermitian_pair_error(hybrid_fourth(), a, b, dt, 1.6) for dt in dts]
    assert error_slope(dts, errs) == pytest.approx(4.0, abs=0.2)


@pytest.mark.parametrize("tree,leaves", [
    (("A", "B"), 2),
    (("B", ("A", "B")), 3),
    ((("A", "B"), ("A", ("A", "B"))), 5),
    (("A", ("A", ("A", ("B", "A")))), 5),
], ids=["AB", "B_AB", "AB_A_AB", "A_A_A_BA"])
@pytest.mark.parametrize("coeff", [Fraction(-1, 2), Fraction(3, 7)])
def test_commutator_stage_matches_expm(tree, leaves, coeff):
    rng = np.random.default_rng(11)

    def rand_herm(n):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (m + m.conj().T) / 2
        return h / np.linalg.norm(h, 2)

    a, b = rand_herm(5), rand_herm(5)
    dt = 0.7
    scheme = Scheme(("A", "B"), (Stage(tree, coeff),),
                    claimed_order=1)
    (factor,) = stage_unitaries(scheme, {"A": a, "B": b}, dt)

    def bracket(t):
        if isinstance(t, str):
            return a if t == "A" else b
        x, y = bracket(t[0]), bracket(t[1])
        return x @ y - y @ x

    reference = scipy.linalg.expm(float(coeff) * (-1j * dt) ** leaves * bracket(tree))
    assert np.linalg.norm(factor.conj().T @ factor - np.eye(5)) < 1e-13
    assert np.linalg.norm(factor - reference) < 1e-13


# ---------------------------------------------------------------------------
# time-ordered stepping
# ---------------------------------------------------------------------------

def static_parts() -> TimeDependentParts:
    parts = spin_parts(GAMMA)
    return TimeDependentParts(a=lambda t: parts["A"].matrix,
                              b=lambda t: parts["B"].matrix)


@pytest.mark.parametrize("g,twin", [
    (timeordered1(), trotter()),
    (timeordered2(), strang()),
    (timeordered4(), suzuki4()),
], ids=["g1", "g2", "g4"])
def test_time_independent_parts_reduce_to_plain_steppers(g, twin):
    psi = QuantumState(np.array([0.6, 0.8]))
    out = run_timeordered(g, static_parts(), 0.3, 0.05, 1, psi)
    ref = unitary_step(twin, spin_parts(GAMMA), 0.05, psi)
    assert np.linalg.norm(out.vector - ref.vector) < 1e-12


def test_g2_driven_stage_arguments_at_midpoint():
    # a hand-built midpoint product must match the G2 step exactly
    parts = driven_two_level()
    t, dt = 0.7, 0.05
    psi = QuantumState.up(2)
    out = run_timeordered(timeordered2(), parts, t, dt, 1, psi)
    mid = t + dt / 2
    a = HermitianPart(parts.sample("A", mid))
    b = HermitianPart(parts.sample("B", mid))
    v = a.expfactor(-1j * dt / 2) @ (b.expfactor(-1j * dt) @ (a.expfactor(-1j * dt / 2) @ psi.vector))
    assert np.linalg.norm(out.vector - v) < 1e-14


def test_non_hermitian_sample_rejected():
    bad = TimeDependentParts(a=lambda t: np.array([[0, 1], [0, 0]], dtype=complex),
                             b=lambda t: np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        run_timeordered(timeordered2(), bad, 0.0, 0.1, 1, QuantumState.up(2))


def _turns_bad(part, start):
    # Hermitian before ``start``, a nilpotent (non-Hermitian) matrix from it on
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    return lambda t: part(t) if t < start else bad


@pytest.mark.parametrize("g", [timeordered1(), timeordered2(), timeordered4()],
                         ids=["g1", "g2", "g4"])
@pytest.mark.parametrize("a_start,b_start", [
    (7.0, 6.0),   # B goes bad first (a later stage than A in g2 and g4)
    (6.0, 7.0),   # A goes bad first (a later stage than B in g1)
    (6.0, 6.0),   # both at once: the earlier stage in application order is named
])
def test_refusal_names_the_first_bad_sample_in_application_order(g, a_start, b_start):
    # the first bad sample lies 600 steps in, past the first chunk of factors
    # (1024 of them at N = 2), and the part that goes bad first need not sit
    # first in a step
    base = driven_two_level()
    parts = TimeDependentParts(a=_turns_bad(base.a, a_start), b=_turns_bad(base.b, b_start))
    t0, dt, steps = 0.0, 0.01, 800
    start = {"A": a_start, "B": b_start}
    expected = next((slot, t0 + k * dt + tau * dt)
                    for k in range(steps) for slot, _, tau in stage_plan(g)
                    if t0 + k * dt + tau * dt >= start[slot])
    with pytest.raises(ValueError) as err:
        run_timeordered(g, parts, t0, dt, steps, QuantumState.up(2))
    assert str(err.value) == f"part {expected[0]} is not Hermitian at t={expected[1]}"


def _random_driven_parts(n: int, seed: int) -> TimeDependentParts:
    rng = np.random.default_rng(seed)

    def herm():
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (m + m.conj().T) / (2 * n)

    a0, a1, b0, b1 = herm(), herm(), herm(), herm()
    return TimeDependentParts(a=lambda t: a0 + math.cos(t) * a1,
                              b=lambda t: b0 + math.sin(2 * t) * b1)


@pytest.mark.parametrize("n", [2, 24])
def test_run_timeordered_across_chunk_boundaries_is_bit_identical(n):
    # a chunk holds _CHUNK_BYTES of factors: 2 chunks and some at n = 2
    # (boundaries fall inside steps, since 15 stages do not divide a chunk), and
    # less than one step per chunk at n = 24
    from expprod.propagate import _CHUNK_BYTES

    g = timeordered4()
    stages = len(stage_plan(g))
    per_chunk = max(1, _CHUNK_BYTES // (16 * n * n))
    steps = 2 * per_chunk // stages + 3
    assert steps * stages > 2 * per_chunk
    parts = _random_driven_parts(n, seed=n)
    t0, dt = 0.3, 0.02
    psi0 = QuantumState(np.eye(n, dtype=complex)[0])
    psi = psi0
    for k in range(steps):
        psi = run_timeordered(g, parts, t0 + k * dt, dt, 1, psi)
    run = run_timeordered(g, parts, t0, dt, steps, psi0)
    assert np.array_equal(run.vector, psi.vector)
    assert np.array_equal(run_timeordered(g, parts, t0, dt, 0, psi0).vector, psi0.vector)


@pytest.mark.parametrize("g", [timeordered1(), timeordered2(), timeordered4()],
                         ids=["g1", "g2", "g4"])
def test_run_timeordered_is_repeated_single_steps(g):
    parts = driven_two_level()
    t0, dt = 0.4, 0.03
    psi = QuantumState.up(2)
    for k in range(6):
        psi = run_timeordered(g, parts, t0 + k * dt, dt, 1, psi)
    run = run_timeordered(g, parts, t0, dt, 6, QuantumState.up(2))
    assert np.array_equal(run.vector, psi.vector)


def test_run_timeordered_segments_from_a_first_step_index():
    # segments that keep t0 and pass their first step index rebuild one run
    # bit for bit
    g, parts = timeordered4(), _random_driven_parts(3, seed=5)
    t0, dt, steps = 0.3, 0.02, 50
    psi0 = QuantumState(np.eye(3, dtype=complex)[0])
    run = run_timeordered(g, parts, t0, dt, steps, psi0)
    marks = sample_marks(steps, 7)
    psi = psi0
    for k, k_next in zip(marks, marks[1:]):
        psi = run_timeordered(g, parts, t0, dt, k_next - k, psi, first=k)
    assert np.array_equal(run.vector, psi.vector)


@pytest.mark.parametrize("g", [timeordered1(), timeordered2(), timeordered4()],
                         ids=["g1", "g2", "g4"])
def test_run_timeordered_asks_for_the_scalar_stage_times(g):
    # the chunk-built stage times are the floats of the scalar expression
    # t0 + k*dt + tau*dt, asked for once per (slot, t) in application order,
    # over more than one chunk of factors (1024 at N = 2) and from step 7
    from expprod.propagate import _CHUNK_BYTES

    base = driven_two_level()
    asked = []

    def recorded(slot, part):
        def sample(t):
            asked.append((slot, t))
            return part(t)
        return sample

    parts = TimeDependentParts(a=recorded("A", base.a), b=recorded("B", base.b))
    plan = stage_plan(g)
    t0, dt, first = 0.3, 0.0137, 7
    steps = 2 * (_CHUNK_BYTES // (16 * 4)) // len(plan) + 3
    run_timeordered(g, parts, t0, dt, steps, QuantumState.up(2), first=first)
    assert asked == [(slot, t0 + k * dt + tau * dt)
                     for k in range(first, first + steps) for slot, _, tau in plan]
    assert all(type(t) is float for _, t in asked)


def test_run_timeordered_needs_a_shift_time_slot():
    with pytest.raises(ValueError):
        run_timeordered(strang(), driven_two_level(), 0.0, 0.1, 2, QuantumState.up(2))


def test_step_count_is_at_least_one():
    assert step_count(1.0, 0.25) == 4
    assert step_count(1.0, 5.0) == step_count(1.0, 10.0) == 1
    # one step past 2 t_final measures the scheme's error there, not roundoff
    assert spin_error(strang(), GAMMA, 5.0, 1.0) > 1e-3
    assert driven_error(timeordered2(), 5.0, 1.0) > 1e-3


def test_g4_driven_slope():
    # the default driven grid: 1/4 ... 1/32 to t_final 1
    study = convergence(timeordered4(), "driven")
    assert study.dts == [1 / 4, 1 / 8, 1 / 16, 1 / 32]
    assert study.slope == pytest.approx(4.0, abs=0.2)


def test_driven_study_runs_one_reference_per_end_time(monkeypatch):
    import expprod.propagate as propagate

    calls = []

    def counted(scheme3, parts, t0, dt, steps, psi, **kw):
        calls.append((scheme3.name, dt))
        return run_timeordered(scheme3, parts, t0, dt, steps, psi, **kw)

    def references(dts):
        # the timeordered2 runs at 1/1024 of a dt of the study
        return sum(name == "timeordered2" and any(dt == d / 1024 for d in dts)
                   for name, dt in calls)

    monkeypatch.setattr(propagate, "run_timeordered", counted)
    convergence(timeordered4(), "driven")
    assert references([1 / 4, 1 / 8, 1 / 16, 1 / 32]) == 1
    # 0.3 ends at 3 * 0.3 = 0.9, 0.25 at 4 * 0.25 = 1.0: one reference each,
    # and each error is taken against the reference of its own end time
    calls.clear()
    dts = [0.3, 0.25]
    study = convergence(timeordered4(), "driven", dts, t_final=1.0)
    assert references(dts) == 2
    parts = driven_two_level()
    for dt, err in zip(dts, study.errors):
        steps = step_count(1.0, dt)
        psi = run_timeordered(timeordered4(), parts, 0.0, dt, steps, QuantumState.up(2))
        ref = run_timeordered(timeordered2(), parts, 0.0, dt / 1024, steps * 1024,
                              QuantumState.up(2))
        assert err == float(np.linalg.norm(psi.vector - ref.vector))


# ---------------------------------------------------------------------------
# perturbational composition
# ---------------------------------------------------------------------------

def test_transverse_coefficient_limits():
    assert transverse_coupling_coefficient(0) == 1.0
    rows = perturbational_composition([0.0, 0.01, 0.1])
    for x, analytic, extracted in rows:
        assert extracted == pytest.approx(analytic, abs=1e-6)
        assert analytic == pytest.approx(1.0, abs=0.01)


def test_transverse_coefficient_at_one():
    c = transverse_coupling_coefficient(1.0)
    assert c == pytest.approx(1.3130352854993312, abs=1e-6)


def test_transverse_coefficient_grows_linearly():
    ratios = [transverse_coupling_coefficient(x) / x for x in (5.0, 10.0, 20.0)]
    assert abs(ratios[-1] - 1.0) < 1e-6
    assert abs(ratios[0] - 1.0) > abs(ratios[1] - 1.0) > abs(ratios[2] - 1.0)


def test_branch_guard_raises_helpfully():
    from expprod.propagate import _principal_log_symmetric

    with pytest.raises(LogBranchError):
        _principal_log_symmetric(np.array([[-1.0, 0.0], [0.0, 1.0]]))
