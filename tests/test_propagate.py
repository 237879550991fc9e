import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from expprod.ncalg import bracket_fold, bracket_leaves, commutator
from expprod.propagate import (
    UMENO_IC, HermitianPart, PhasePoint, QuantumState, SeparableHamiltonian, convergence,
    driven_error, driven_two_level, drift, error_slope, hermitian_pair_error, kick,
    precession_period, run_driven, run_precession, run_timeordered,
    run_umeno, sample_marks, spin_error, spin_parts, stage_unitaries, step_count,
    step_operator, symplectic_step, umeno_hamiltonian, unitary_step,
)
from expprod.propagate import (
    _hermitian_exp, _kick_drift_items, _kick_drift_plan, _not_hermitian, _timeordered_pass,
)
from expprod.schemes import (
    CATALOG, Scheme, Stage, hybrid_fourth, hybrid_second, ruth, stage_plan,
    strang, timeordered1, timeordered2, trotter,
)
from reference import (
    LogBranchError, _principal_log_symmetric, dominant_period, euler_step,
    jacobian_determinant, reconstruction_error, transverse_coupling_coefficient,
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


@pytest.mark.parametrize("big", [1e200, 1e308])
def test_hermitian_check_takes_entries_past_the_norm_range(big):
    # unscaled, these Frobenius norms overflow: the squares warn, and a
    # nilpotent matrix passed because inf > 1e-12 * inf is false
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianPart(np.array([[0, big], [0, 0]]))
    assert HermitianPart(np.array([[big, 1], [1, -big]])).dim == 2
    # a driven part's matrix goes through the same rule, once per run
    nilpotent = np.array([[0, big], [0, 0]], dtype=complex)
    parts = {"A": (math.cos, nilpotent + nilpotent.T),
             "B": (math.sin, big * np.array([[0, 1j], [-1j, 1]]))}
    run_timeordered(timeordered2(), parts, 0.0, 0.1, 0, QuantumState.up(2))
    with pytest.raises(ValueError, match="not Hermitian"):
        run_timeordered(timeordered2(), {**parts, "A": (math.cos, nilpotent)},
                        0.0, 0.1, 1, QuantumState.up(2))


def test_hermitian_check_decides_as_the_unscaled_norms_do():
    # asymmetries around the 1e-12 threshold, at magnitudes whose norms fit
    rng = np.random.default_rng(7)
    m = rng.normal(size=(400, 3, 3)) + 1j * rng.normal(size=(400, 3, 3))
    rel = 10.0 ** rng.uniform(-14, -10, size=(400, 1, 1))
    size = 10.0 ** rng.uniform(-150, 150, size=(400, 1, 1))
    stack = ((m + m.conj().swapaxes(-1, -2)) / 2 + rel * m) * size
    asym = np.linalg.norm(stack - stack.conj().swapaxes(-1, -2), axis=(-2, -1))
    unscaled = asym > 1e-12 * np.maximum(1.0, np.linalg.norm(stack, axis=(-2, -1)))
    assert 50 < unscaled.sum() < 350
    assert np.array_equal(_not_hermitian(stack, 1e-12), unscaled)


def test_eigendecomposition_reconstructs():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = HermitianPart((m + m.conj().T) / 2)
    assert reconstruction_error(h) < 1e-12


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
    # every stage acts in its target's eigenbasis, not as a factor
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


def test_letter_stages_step_in_the_cached_eigenbases_bit_for_bit():
    # the reference: each letter stage applied in its part's cached eigenbasis
    rng = np.random.default_rng(4)
    m = rng.normal(size=(2, 12, 12)) + 1j * rng.normal(size=(2, 12, 12))
    herm = (m + m.conj().swapaxes(-1, -2)) / 2
    fixtures = [spin_parts(GAMMA), {"A": HermitianPart(herm[0]), "B": HermitianPart(herm[1])}]
    letter_only = [s for s in (make() for make in CATALOG.values())
                   if "T" not in s.slots and not any(st.is_commutator() for st in s.stages)]
    assert {"trotter", "suzuki4", "suzuki8"} <= {s.name for s in letter_only}
    for parts in fixtures:
        dim = parts["A"].dim
        psi = QuantumState(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for scheme in letter_only:
            ref = psi.vector
            for target, c, _ in stage_plan(scheme):
                w, v = parts[target].eigenvalues, parts[target].eigenvectors
                ref = v @ (np.exp(-1j * c * 0.05 * w) * (ref.conj() @ v).conj())
            assert np.array_equal(unitary_step(scheme, parts, 0.05, psi).vector, ref), scheme.name


def test_hybrid_fourth_caps_share_one_eigh(monkeypatch):
    # each distinct stage target is diagonalised once per call: the two caps
    # carry one bracket, and the letters read their parts' cached eigh
    parts = spin_parts(GAMMA)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    unitary_step(hybrid_fourth(), parts, 0.1, QuantumState.up(2))
    assert calls == [(2, 2)]
    calls.clear()
    stage_unitaries(hybrid_fourth(), parts, 0.1)
    assert calls == [(2, 2)]


def test_an_unmapped_slot_is_refused_before_any_factor_or_sample(monkeypatch):
    # static and driven stepping read their parts as one slot mapping and
    # refuse a stage label it lacks with one ValueError naming it
    leapfrog_ac = Scheme(("A", "C"), (Stage("A", Fraction(1, 2)), Stage("C", Fraction(1)),
                                      Stage("A", Fraction(1, 2))), claimed_order=2)
    bracket_ac = Scheme(("A", "B"), (Stage(("A", "C"), Fraction(1)),), claimed_order=1)
    g2_act = Scheme(("A", "C", "T"), tuple(Stage("C" if st.target == "B" else st.target, st.coeff)
                                           for st in timeordered2().stages), claimed_order=2)
    matrices = {lab: part.matrix for lab, part in spin_parts(GAMMA).items()}
    asked = []
    driven = {lab: (lambda t, f=f: asked.append(t) or f(t), h.matrix)
              for lab, (f, h) in driven_two_level().items()}
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    for scheme in (leapfrog_ac, bracket_ac):
        with pytest.raises(ValueError, match="slot 'C' has no part"):
            stage_unitaries(scheme, matrices, 0.1)
        with pytest.raises(ValueError, match="slot 'C' has no part"):
            unitary_step(scheme, matrices, 0.1, QuantumState.up(2))
    with pytest.raises(ValueError, match="slot 'C' has no part"):
        run_timeordered(g2_act, driven, 0.0, 0.1, 2, QuantumState.up(2))
    assert calls == [] and asked == []


def test_stacked_stage_factors_are_bit_identical():
    # one stacked exponential per stage target gives every bit of one
    # expfactor per letter stage and one bracket eigh per commutator stage
    rng = np.random.default_rng(8)
    m = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    herm = (m + m.conj().swapaxes(-1, -2)) / 2
    fixtures = [spin_parts(GAMMA), {"A": HermitianPart(herm[0]), "B": HermitianPart(herm[1])}]
    two_slot = [s for s in (make() for make in CATALOG.values()) if "T" not in s.slots]
    assert {"hybrid_second", "hybrid_fourth", "suzuki8"} <= {s.name for s in two_slot}
    for scheme in two_slot:
        plan = stage_plan(scheme)
        for parts in fixtures:
            for dt in (0.7, 0.1, 2 ** -5):
                stack = stage_unitaries(scheme, parts, dt)
                assert stack.shape == (len(plan), *parts["A"].matrix.shape)
                for factor, (target, c, _) in zip(stack, plan):
                    if isinstance(target, str):
                        single = parts[target].expfactor(-1j * c * dt)
                    else:
                        leaves = bracket_leaves(target)
                        h = (-1j) ** (leaves - 1) * bracket_fold(
                            target, lambda lab: parts[lab].matrix, commutator)
                        w, v = np.linalg.eigh(h)
                        single = (v * np.exp(-1j * c * dt ** leaves * w)) @ v.conj().T
                    assert np.array_equal(factor, single), (scheme.name, target, dt)


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


@pytest.mark.parametrize("name", sorted(
    n for n in CATALOG if "T" not in CATALOG[n]().slots) + ["perturbative"])
def test_precession_scalar_loop_matches_the_matrix_loop(name):
    # run_precession steps in Python complexes; the np.dot loop it replaced
    # rounds differently (by up to a few 1e-14 here), the perturbative matrix
    # not at all
    dt, steps, every = 1e-3, 2000, 100
    parts = spin_parts(GAMMA)
    h = parts["A"].matrix + parts["B"].matrix
    if name == "perturbative":
        method, m_step = name, np.eye(2, dtype=complex) - 1j * dt * h
    else:
        method = CATALOG[name]()
        m_step = step_operator(method, parts, dt)
    psi = QuantumState.up(2).vector
    expected = [(0.0, float((psi.conj() @ (h @ psi)).real), 1.0)]
    for k in range(1, steps + 1):
        psi = np.dot(m_step, psi)
        if k % every == 0:
            expected.append((k * dt, float((psi.conj() @ (h @ psi)).real),
                             float(np.linalg.norm(psi))))
    rows = run_precession(method, GAMMA, dt, steps, every)
    if name == "perturbative":
        assert rows == expected
    else:
        np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# classical stepping
# ---------------------------------------------------------------------------

def harmonic() -> SeparableHamiltonian:
    return SeparableHamiltonian(grad_v=lambda q: q, potential=lambda q: 0.5 * float(q @ q))


def test_drift_is_free_flight():
    x = PhasePoint(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    out = drift(0.1, x)
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
    a = kick(h, 0.2, drift(0.2, x))
    b = drift(0.2, kick(h, 0.2, x))
    assert not np.allclose(a.p, b.p) or not np.allclose(a.q, b.q)


def test_gradients_consistent_with_energy():
    h = umeno_hamiltonian()
    rng = np.random.default_rng(1)
    _, q = rng.normal(size=(2, 2))
    eps = 1e-6
    for i in range(2):
        dq = np.zeros(2)
        dq[i] = eps
        num = (h.potential(q + dq) - h.potential(q - dq)) / (2 * eps)
        assert num == pytest.approx(h.grad_v(q)[i], rel=1e-6, abs=1e-8)


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


def _umeno_per_step_loop(method, dt, steps, sample_every):
    """The per-step float loop ``run_umeno`` replaced: each step runs the plan's
    stages one by one, comparing each stage's kind; Euler tests for its method
    and negates dt inside every step."""
    (p1, p2), (q1, q2) = UMENO_IC.p.tolist(), UMENO_IC.q.tolist()
    rows = [(0.0, 0.5 * (p1 * p1 + p2 * p2) + 0.5 * q1 * q1 * q2 * q2, q1, q2)]
    stepper = None if method == "euler" else [(kind, c * dt)
                                              for kind, c in _kick_drift_plan(method)]
    marks = sample_marks(steps, sample_every)
    for k, k_next in zip(marks, marks[1:]):
        for _ in range(k_next - k):
            if stepper is None:
                dp1 = -dt * q1 * q2 * q2
                dp2 = -dt * q1 * q1 * q2
                q1, q2 = q1 + dt * p1, q2 + dt * p2
                p1, p2 = p1 + dp1, p2 + dp2
            else:
                for kind, c in stepper:
                    if kind == "kick":
                        p1 -= c * q1 * q2 * q2
                        p2 -= c * q1 * q1 * q2
                    else:
                        q1 += c * p1
                        q2 += c * p2
        energy = 0.5 * (p1 * p1 + p2 * p2) + 0.5 * q1 * q1 * q2 * q2
        rows.append((k_next * dt, energy, q1, q2))
    return rows


# a drift first and a kick last (a lone drift, then a lone kick), and a kick
# first and last (a pair, then a lone kick)
_DRIFT_FIRST = Scheme(("A", "B"), (Stage("B", Fraction(1)), Stage("A", Fraction(1))),
                      claimed_order=1)
_KICK_FIRST_AND_LAST = Scheme(("A", "B"), (Stage("B", Fraction(1, 2)), Stage("A", Fraction(1)),
                                           Stage("B", Fraction(1, 2))), claimed_order=1)
_UMENO_METHODS = {**{name: CATALOG[name]() for name in
                     ("trotter", "strang", "ruth", "suzuki4", "triple_jump4", "suzuki6")},
                  "drift_first": _DRIFT_FIRST, "kick_first_and_last": _KICK_FIRST_AND_LAST,
                  "euler": "euler"}


@pytest.mark.parametrize("every", [1, 7, 300, 2001])
@pytest.mark.parametrize("name", sorted(_UMENO_METHODS))
def test_run_umeno_keeps_the_bits_of_the_per_step_loop(name, every):
    method = _UMENO_METHODS[name]
    rows = run_umeno(method, dt=1e-3, steps=2000, sample_every=every)
    assert rows == _umeno_per_step_loop(method, 1e-3, 2000, every)


@pytest.mark.parametrize("name,shape", [
    ("trotter", [(True, True)]),
    ("strang", [(False, True), (True, True)]),
    ("ruth", [(True, True)] * 3),
    ("suzuki4", [(False, True)] + [(True, True)] * 5),
    ("drift_first", [(False, True), (True, False)]),
    ("kick_first_and_last", [(True, True), (True, False)]),
])
def test_kick_drift_items_pair_each_kick_with_the_drift_after_it(name, shape):
    items = _kick_drift_items(_UMENO_METHODS[name], 0.5)
    assert [(kick is not None, drift is not None) for kick, drift in items] == shape
    plan = [c * 0.5 for _, c in _kick_drift_plan(_UMENO_METHODS[name])]
    assert [c for item in items for c in item if c is not None] == plan


def test_sample_marks_end_at_the_last_step():
    assert sample_marks(7, 3) == [0, 3, 6, 7]
    assert sample_marks(6, 3) == [0, 3, 6]
    assert sample_marks(2, 5) == [0, 2]


@pytest.mark.parametrize("run,message", [
    (lambda: run_precession(trotter(), GAMMA, 0.01, -5, 1), "steps must be >= 0, got -5"),
    (lambda: run_precession(trotter(), GAMMA, 0.01, 5, 0), "sample_every must be >= 1, got 0"),
    (lambda: run_umeno(trotter(), 0.01, 10, -1), "sample_every must be >= 1, got -1"),
    (lambda: run_driven(timeordered2(), 0.01, -3, 1, 0.0), "steps must be >= 0, got -3"),
    (lambda: run_timeordered(timeordered2(), driven_two_level(), 0.0, 0.01, -4,
                             QuantumState.up(2)), "steps must be >= 0, got -4"),
], ids=["precession", "precession-every", "umeno", "driven", "timeordered"])
def test_runners_refuse_negative_steps_and_sampling_below_one(run, message):
    with pytest.raises(ValueError, match=message):
        run()


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


def test_a_slope_needs_two_distinct_dt():
    # a repeated dt is one point of the fit
    study = convergence(strang(), "spin", [0.1, 0.1])
    assert study.slope is None and study.points_used == 1
    repeated = convergence(strang(), "spin", [0.1, 0.05, 0.1])
    distinct = convergence(strang(), "spin", [0.1, 0.05])
    assert repeated.slope == distinct.slope == pytest.approx(2.0, abs=0.2)
    assert repeated.points_used == distinct.points_used == 2
    with pytest.raises(ValueError, match="2 distinct dt"):
        error_slope([0.1, 0.1, 0.1], [1e-3, 1e-3, 1e-3])


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

def static_parts() -> dict:
    return {lab: (lambda t: 1.0, part) for lab, part in spin_parts(GAMMA).items()}


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
    (fa, ha), (fb, hb) = parts["A"], parts["B"]
    a = HermitianPart(fa(mid) * ha.matrix)
    b = HermitianPart(fb(mid) * hb.matrix)
    v = a.expfactor(-1j * dt / 2) @ (b.expfactor(-1j * dt) @ (a.expfactor(-1j * dt / 2) @ psi.vector))
    assert np.linalg.norm(out.vector - v) < 1e-14


def test_non_hermitian_sample_rejected():
    bad = {"A": (lambda t: 1.0, np.array([[0, 1], [0, 0]], dtype=complex)),
           "B": (lambda t: 1.0, np.eye(2, dtype=complex))}
    with pytest.raises(ValueError, match="not Hermitian"):
        run_timeordered(timeordered2(), bad, 0.0, 0.1, 1, QuantumState.up(2))


def _turns_bad(part, start):
    # the part's scalar before ``start``, nan from it on
    f, h = part
    return lambda t: f(t) if t < start else math.nan, h


@pytest.mark.parametrize("g", [timeordered1(), timeordered2(), timeordered4()],
                         ids=["g1", "g2", "g4"])
@pytest.mark.parametrize("a_start,b_start", [
    (7.0, 6.0),   # B goes bad first (a later stage than A in g2 and g4)
    (6.0, 7.0),   # A goes bad first (a later stage than B in g1)
    (6.0, 6.0),   # both at once: the earlier stage in application order is named
])
def test_refusal_names_the_first_bad_sample_in_application_order(g, a_start, b_start):
    # the first non-finite f(t) lies 600 steps in, past the first chunk of factors
    # (1024 of them at N = 2), and the part that goes bad first need not sit
    # first in a step
    base = driven_two_level()
    parts = {"A": _turns_bad(base["A"], a_start), "B": _turns_bad(base["B"], b_start)}
    t0, dt, steps = 0.0, 0.01, 800
    start = {"A": a_start, "B": b_start}
    expected = next((slot, t0 + k * dt + tau * dt)
                    for k in range(steps) for slot, _, tau in stage_plan(g)
                    if t0 + k * dt + tau * dt >= start[slot])
    with pytest.raises(ValueError) as err:
        run_timeordered(g, parts, t0, dt, steps, QuantumState.up(2))
    assert str(err.value) == (f"part {expected[0]}: f({expected[1]}) = nan "
                              "is not a finite real number")


@pytest.mark.parametrize("value", [1j, np.complex128(1.0), np.ones(2), "1.0", None,
                                   Fraction(1, 2), math.inf])
def test_a_scalar_that_is_no_finite_real_is_refused(value):
    sz = np.diag([1.0, -1.0])
    parts = {"A": (lambda t: 1.0, sz), "B": (lambda t: value if t > 0.1 else 0.5, sz)}
    with pytest.raises(ValueError, match=r"part B: f\(0\.15\d*\) = .* is not a finite real"):
        run_timeordered(timeordered2(), parts, 0.0, 0.1, 2, QuantumState.up(2))


def test_a_driven_part_is_a_pair():
    matrices = {lab: part.matrix for lab, part in spin_parts(GAMMA).items()}
    with pytest.raises(ValueError, match=r"part A must be a pair \(f, H\)"):
        run_timeordered(timeordered2(), matrices, 0.0, 0.1, 1, QuantumState.up(2))
    old_form = {lab: (lambda t, m=m: m) for lab, m in matrices.items()}
    with pytest.raises(ValueError, match="must be a pair"):
        run_timeordered(timeordered2(), old_form, 0.0, 0.1, 1, QuantumState.up(2))


def _random_driven_parts(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def herm():
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (m + m.conj().T) / (2 * n)

    return {"A": (lambda t: 1.0 + 0.5 * math.cos(t), herm()),
            "B": (lambda t: math.sin(2 * t), herm())}


@pytest.mark.parametrize("n,g", [(2, timeordered4()), (24, timeordered2())], ids=["2", "24"])
def test_run_timeordered_across_chunk_boundaries_is_bit_identical(n, g):
    # a chunk is the whole steps whose factors fit in _CHUNK_BYTES: 68 steps of
    # timeordered4's 15 stages at n = 2, 2 of timeordered2's 3 at n = 24.  The
    # run crosses two chunk boundaries, and the marks of one pass fall both on
    # and off chunk starts
    from expprod.propagate import _CHUNK_BYTES

    per_chunk = _CHUNK_BYTES // (16 * len(stage_plan(g)) * n * n)
    steps = 2 * per_chunk + 3
    marks = sample_marks(steps, per_chunk // 2)
    assert {m % per_chunk == 0 for m in marks[1:]} == {True, False}
    parts = _random_driven_parts(n, seed=n)
    t0, dt = 0.3, 0.02
    psi0 = QuantumState(np.eye(n, dtype=complex)[0])
    states = dict(zip(marks, _timeordered_pass(g, parts, t0, dt, marks, psi0.vector)))
    psi = psi0
    for k in range(steps):
        if k in states:
            assert np.array_equal(states[k], psi.vector), k
        psi = run_timeordered(g, parts, t0 + k * dt, dt, 1, psi)
    assert np.array_equal(states[steps], psi.vector)
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


def test_one_pass_reads_every_mark_as_a_whole_run():
    # the state read at each mark of one pass is a whole run to that mark, bit
    # for bit; the 50 steps fill one chunk of 30 (N = 3) and part of a second,
    # and the marks fall inside both
    g, parts = timeordered4(), _random_driven_parts(3, seed=5)
    t0, dt, steps = 0.3, 0.02, 50
    psi0 = QuantumState(np.eye(3, dtype=complex)[0])
    marks = sample_marks(steps, 7)
    states = list(_timeordered_pass(g, parts, t0, dt, marks, psi0.vector))
    assert len(states) == len(marks)
    for k, v in zip(marks, states):
        assert np.array_equal(v, run_timeordered(g, parts, t0, dt, k, psi0).vector), k


def test_run_driven_sets_up_once(monkeypatch):
    # one setup and the chunks of one whole run (68 steps of 15 stages at
    # N = 2: 30 steps fill one chunk, 100 steps two), however many rows
    import expprod.propagate as propagate

    calls = []
    for name in ("_plan", "_parts_map", "_scalar_values"):
        real = getattr(propagate, name)
        monkeypatch.setattr(propagate, name,
                            lambda *a, real=real, name=name, **kw: calls.append(name)
                            or real(*a, **kw))
    assert len(run_driven(timeordered4(), 0.01, 30, 1, 0.3)) == 31
    assert calls == ["_plan", "_parts_map", "_scalar_values"]
    calls.clear()
    assert len(run_driven(timeordered4(), 0.01, 100, 1, 0.3)) == 101
    assert calls == ["_plan", "_parts_map", "_scalar_values", "_scalar_values"]


def test_a_late_non_finite_stage_time_is_refused_before_any_f(monkeypatch):
    # the stage times of step 29 overflow; the trajectory is refused whole,
    # before its first rows are stepped
    import expprod.propagate as propagate

    calls = []
    parts = {lab: (lambda t, f=f: calls.append(t) or f(t), h)
             for lab, (f, h) in driven_two_level().items()}
    monkeypatch.setattr(propagate, "driven_two_level", lambda: parts)
    with pytest.raises(ValueError, match=r"stage time .* = inf at step k = 29 "):
        run_driven(timeordered4(), 1e307, 30, 5, 1e308)
    assert calls == []


def test_a_run_checks_the_stage_times_of_the_steps_it_takes():
    # t0 + k*dt + tau*dt leaves the float range only at k = -1 here, or at
    # k = 0 once t0 is positive: a 0-step run forms no stage time and returns
    # its start state, and a 1-step run is refused before any f is called
    calls = []
    parts = {lab: (lambda t, f=f: calls.append(t) or f(t), h)
             for lab, (f, h) in driven_two_level().items()}
    up = QuantumState.up(2)
    for t0 in (-1.7e308, 1.7e308):
        psi = run_timeordered(timeordered2(), parts, t0, 1e308, 0, up)
        assert np.array_equal(psi.vector, [1, 0])
    with pytest.raises(ValueError, match=r"stage time .* = inf at step k = 0 "):
        run_timeordered(timeordered2(), parts, 1.7e308, 1e308, 1, up)
    assert calls == []


def _per_sample_eigh(g, parts, t0, dt, steps, psi):
    """Reference stepper: every stage factor comes from its own ``eigh`` of
    the sampled matrix f(t) H, applied one at a time."""
    v = psi.vector
    for k in range(steps):
        for slot, c, tau in stage_plan(g):
            f, h = parts[slot]
            sample = f((t0 + k * dt) + tau * dt) * getattr(h, "matrix", h)
            w, vecs = np.linalg.eigh(sample)
            v = np.dot(_hermitian_exp(w, vecs, -1j * c * dt), v)
    return v


@pytest.mark.parametrize("g", [timeordered1(), timeordered2(), timeordered4()],
                         ids=["g1", "g2", "g4"])
@pytest.mark.parametrize("n,parts,dt,steps", [
    (2, driven_two_level(), 0.01, 250),
    (2, _random_driven_parts(2, seed=11), 0.02, 100),
    (24, _random_driven_parts(24, seed=12), 0.02, 30),
], ids=["driven", "random2", "random24"])
def test_run_timeordered_matches_the_per_sample_eigh_loop(g, n, parts, dt, steps):
    psi = QuantumState(np.eye(n, dtype=complex)[-1])
    out = run_timeordered(g, parts, 0.3, dt, steps, psi).vector
    assert np.linalg.norm(out - _per_sample_eigh(g, parts, 0.3, dt, steps, psi)) < 1e-12


def test_run_timeordered_diagonalises_no_sample(monkeypatch):
    # every factor comes from the parts' cached decompositions: no eigh at all
    parts = _random_driven_parts(64, seed=64)
    parts = {lab: (f, HermitianPart(h, lab)) for lab, (f, h) in parts.items()}
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape))
    psi = run_timeordered(timeordered4(), parts, 0.0, 0.05, 4, QuantumState.up(64))
    assert calls == []
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-12


@pytest.mark.parametrize("gap", [0.5, 1.0])
def test_landau_zener_transition_probability(gap):
    # H(t) = (v t/2) sigma_z + (g/2) sigma_x swept from t = -50 to 50 at v = 1:
    # from the lower eigenstate of H(-50), the weight left on the upper
    # eigenstate of H(50) is exp(-pi g^2 / (2 v)) (Landau 1932, Zener 1932)
    v, t_max, dt = 1.0, 50.0, 0.01
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    parts = {"A": (lambda t: v * t / 2, sz), "B": (lambda t: gap / 2, sx)}

    def hamiltonian(t):
        return v * t / 2 * sz + gap / 2 * sx

    start = np.linalg.eigh(hamiltonian(-t_max))[1][:, 0]
    upper = np.linalg.eigh(hamiltonian(t_max))[1][:, 1]
    steps = step_count(2 * t_max, dt)
    psi = run_timeordered(timeordered4(), parts, -t_max, dt, steps, QuantumState(start))
    p_upper = abs(upper.conj() @ psi.vector) ** 2
    assert abs(p_upper - math.exp(-math.pi * gap ** 2 / (2 * v))) < 1e-5  # measured 3-4e-6


@pytest.mark.parametrize("g", [timeordered1(), timeordered2(), timeordered4()],
                         ids=["g1", "g2", "g4"])
def test_run_timeordered_asks_for_the_scalar_stage_times(g):
    # the chunk-built stage times are the floats of the scalar expression
    # t0 + k*dt + tau*dt, asked for once per (slot, t) in application order,
    # over more than two chunks of factors (1024 at N = 2) read at marks
    # every 7 steps, which fall inside chunks
    from expprod.propagate import _CHUNK_BYTES

    base = driven_two_level()
    asked = []

    def recorded(slot, part):
        f, h = part

        def sample(t):
            asked.append((slot, t))
            return f(t)
        return sample, h

    parts = {"A": recorded("A", base["A"]), "B": recorded("B", base["B"])}
    plan = stage_plan(g)
    t0, dt = 0.3, 0.0137
    per_chunk = _CHUNK_BYTES // (16 * 4)
    steps = 2 * per_chunk // len(plan) + 3
    assert steps * len(plan) > 2 * per_chunk
    marks = sample_marks(steps, 7)
    assert any(m * len(plan) % per_chunk for m in marks)
    states = list(_timeordered_pass(g, parts, t0, dt, marks, QuantumState.up(2).vector))
    assert len(states) == len(marks)
    assert asked == [(slot, t0 + k * dt + tau * dt)
                     for k in range(steps) for slot, _, tau in plan]
    assert all(type(t) is float for _, t in asked)


def test_run_timeordered_needs_a_shift_time_slot():
    with pytest.raises(ValueError):
        run_timeordered(strang(), driven_two_level(), 0.0, 0.1, 2, QuantumState.up(2))


def test_step_count_is_at_least_one():
    assert step_count(1.0, 0.25) == 4
    assert step_count(1.0, 5.0) == step_count(1.0, 10.0) == 1
    # one step past 2 t_final measures the scheme's error there, not roundoff
    assert spin_error(strang(), GAMMA, 5.0, 1.0) > 1e-3
    assert driven_error(timeordered2(), [5.0], 1.0)[0] > 1e-3


def test_driven_study_step_cap_is_checked_before_any_step(monkeypatch):
    import expprod.propagate as propagate

    def no_steps(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(propagate, "run_timeordered", no_steps)
    # dt 1/n over t_final 1: n steps plus a 32 n-step reference
    n = propagate.MAX_DRIVEN_STEPS // 33
    with pytest.raises(AssertionError, match="stepped"):
        driven_error(timeordered2(), [1.0 / n], 1.0)[0]
    with pytest.raises(ValueError, match=f"takes {33 * (n + 1)} steps"):
        driven_error(timeordered2(), [1.0 / (n + 1)], 1.0)[0]
    # room for the largest driven grid of the tests: dt 1/4, 1/2 to t_final 99
    assert 396 + 198 + 32 * 396 < propagate.MAX_DRIVEN_STEPS


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
        # the timeordered4 runs at 1/32 of a dt of the study
        return sum(name == "timeordered4" and any(dt == d / 32 for d in dts)
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
        ref = run_timeordered(timeordered4(), parts, 0.0, dt / 32, steps * 32,
                              QuantumState.up(2))
        assert err == float(np.linalg.norm(psi.vector - ref.vector))


def test_driven_reference_is_accurate_on_the_default_grid():
    # finest dt 1/32, t_final 1; the reference is timeordered4 at dt/32
    # (the test above pins that)
    parts, d = driven_two_level(), 1 / 32

    def final_state(step: float, steps: int) -> np.ndarray:
        return run_timeordered(timeordered4(), parts, 0.0, step, steps, QuantumState.up(2)).vector

    ref = final_state(d / 32, 32 * 32)
    assert np.linalg.norm(ref - final_state(d / 64, 32 * 64)) < 5e-12  # measured 3.7e-13
    err = convergence(timeordered4(), "driven").errors[-1]
    fine = float(np.linalg.norm(final_state(d, 32) - final_state(d / 256, 32 * 256)))
    assert abs(err - fine) <= 1e-4 * fine  # measured 2e-6


def test_run_timeordered_refuses_a_non_finite_stage_time():
    calls = []
    parts = {"A": (lambda t: calls.append(t) or 1.0, np.eye(2)),
             "B": (lambda t: calls.append(t) or 1.0, np.eye(2))}
    with pytest.raises(ValueError, match=r"stage time .* = inf at step k = 2"):
        run_timeordered(timeordered2(), parts, 0.0, 1e308, 3, QuantumState.up(2))
    with pytest.raises(ValueError, match=r"stage time .* = nan at step k = 0"):
        run_timeordered(timeordered2(), parts, math.nan, 0.1, 3, QuantumState.up(2))
    assert calls == []  # refused before any f is called


# ---------------------------------------------------------------------------
# perturbational composition
# ---------------------------------------------------------------------------

def test_transverse_coefficient_limits():
    assert transverse_coupling_coefficient(0) == 1.0
    rows = [(x, 1.0 if x == 0 else x / math.tanh(x), transverse_coupling_coefficient(x))
            for x in (0.0, 0.01, 0.1)]
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
    with pytest.raises(LogBranchError):
        _principal_log_symmetric(np.array([[-1.0, 0.0], [0.0, 1.0]]))
