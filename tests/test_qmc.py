import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expprod import qmc
from expprod.ncalg import Copies, product_log, stage_product
from expprod.qmc import (
    FrozenTrotterError, IsingModel, _update_classes, _worldline_sums,
    anneal, anneal_batch, anneal_schedule, classical_action, couplings, diagonal_energy,
    exact_reference, extrapolate_values, ferromagnetic_chain,
    ground_energy_enumeration, hamiltonian_parts, matrix_trace_bond_zz,
    check_kept_sweeps, metropolis_run, trotter_extrapolate,
)
from reference import enumeration_reference, kept_configurations

MODELS = Path(__file__).resolve().parent.parent / "scripts" / "models"
SINGLE = IsingModel(sites=1, bonds=(), gamma=1.0, beta=1.0)
PAIR = IsingModel(sites=2, bonds=((0, 1, 1.0),), gamma=1.0, beta=1.0)
FRUSTRATED4 = IsingModel.from_json(json.loads((MODELS / "frustrated4.json").read_text()))
CHAIN6 = IsingModel.from_json(json.loads((MODELS / "chain6.json").read_text()))
COLD = IsingModel(sites=2, bonds=((0, 1, 1.0),), gamma=0.01, beta=800.0)


# ---------------------------------------------------------------------------
# model and couplings
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        IsingModel(sites=2, bonds=((0, 1, 1.0), (1, 0, 2.0)), gamma=1.0, beta=1.0)
    with pytest.raises(ValueError):
        IsingModel(sites=2, bonds=((0, 2, 1.0),), gamma=1.0, beta=1.0)
    with pytest.raises(ValueError):
        IsingModel(sites=1, bonds=(), gamma=1.0, beta=0.0)
    with pytest.raises(ValueError, match="at least one site"):
        IsingModel(sites=0, bonds=(), gamma=1.0, beta=1.0)


@pytest.mark.parametrize("gamma,beta,weight", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                               (1.0, 1.0, -math.inf)])
def test_model_refuses_non_finite_values(gamma, beta, weight):
    with pytest.raises(ValueError, match="must be finite"):
        IsingModel(sites=2, bonds=((0, 1, weight),), gamma=gamma, beta=beta)


def test_model_json_round_trip():
    doc = json.loads('{"sites": 2, "bonds": [[0, 1, 1.0]], "gamma": 1.0, "beta": 1.0}')
    assert IsingModel.from_json(doc) == PAIR


def test_coupling_values():
    c = couplings(IsingModel(sites=1, bonds=(), gamma=1.0, beta=0.5), 1)
    assert c.gamma_n == pytest.approx(-0.5 * math.log(math.tanh(0.5)), abs=1e-15)
    assert c.gamma_n == pytest.approx(0.3859684164, abs=1e-10)


@pytest.mark.parametrize("u", [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0])
def test_coupling_defining_pair(u):
    model = IsingModel(sites=1, bonds=(), gamma=u, beta=1.0)
    c = couplings(model, 1)
    assert math.exp(c.gamma_n + c.delta_n) == pytest.approx(math.cosh(u), rel=1e-14)
    assert math.exp(-c.gamma_n + c.delta_n) == pytest.approx(math.sinh(u), rel=1e-14)


_U_GRID = [1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.5000001, 0.72, 1.0, 3.0, 10.0, 19.0, 25.0,
           60.0, 100.0, 354.0, 400.0, 1e3]


@pytest.mark.parametrize("u", _U_GRID)
def test_couplings_keep_their_digits_against_mpmath(u):
    # gamma_n = -log(tanh u)/2, delta_n = log(sinh(2u)/2)/2, the sigma_x slope
    # -1/sinh(2u) and offset coth(2u), with u = beta*Gamma/n; enough digits that
    # 1 - tanh(u) ~ 2 e^{-2u} survives.  Below the normal range (the slope from
    # u ~ 354, gamma_n from u ~ 354) a float cannot hold more than the
    # subnormal bits.
    mpmath = pytest.importorskip("mpmath")
    model = IsingModel(sites=1, bonds=(), gamma=u, beta=1.0)
    c = couplings(model, 1)
    with mpmath.workdps(40 + int(u)):
        x = mpmath.mpf(u)
        want = [-mpmath.log(mpmath.tanh(x)) / 2, mpmath.log(mpmath.sinh(2 * x) / 2) / 2,
                -1 / mpmath.sinh(2 * x), 1 / mpmath.tanh(2 * x)]
    for got, exact in zip([c.gamma_n, c.delta_n, c.sigma_x_slope, c.sigma_x_offset], want):
        assert got == pytest.approx(float(exact), rel=1e-14, abs=1e-300)


def test_coupling_diverges_as_layers_lock():
    gammas = [couplings(SINGLE, n).gamma_n for n in (1, 10, 100, 1000)]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] > 3.0


def test_zero_field_is_an_error():
    frozen = IsingModel(sites=1, bonds=(), gamma=0.0, beta=1.0)
    with pytest.raises(FrozenTrotterError):
        couplings(frozen, 4)


# ---------------------------------------------------------------------------
# classical action
# ---------------------------------------------------------------------------

def test_action_uniform_configuration():
    model = IsingModel(sites=3, bonds=((0, 1, 1.0), (1, 2, 0.5)), gamma=1.0, beta=2.0)
    n = 4
    c = couplings(model, n)
    spins = np.ones((3, n), dtype=np.int8)
    expected = (model.beta / n) * n * 1.5 + c.gamma_n * n * 3
    assert classical_action(model, c, spins) == pytest.approx(expected, rel=1e-14)


def test_action_smallest_instance():
    n = 2
    c = couplings(SINGLE, n)
    up = np.array([[1, 1]], dtype=np.int8)
    flip = np.array([[1, -1]], dtype=np.int8)
    assert classical_action(SINGLE, c, up) == pytest.approx(2 * c.gamma_n)
    assert classical_action(SINGLE, c, flip) == pytest.approx(-2 * c.gamma_n)


def test_single_flip_delta_matches_full_recompute():
    model = IsingModel(sites=3, bonds=((0, 1, 1.0), (1, 2, -0.5), (0, 2, 0.25)),
                       gamma=0.8, beta=1.3)
    n = 5
    c = couplings(model, n)
    rng = np.random.default_rng(2)
    spins = rng.integers(0, 2, size=(3, n)).astype(np.int8) * 2 - 1
    base = classical_action(model, c, spins)
    for (i, m) in [(0, 0), (1, 3), (2, 4)]:
        flipped = spins.copy()
        flipped[i, m] *= -1
        new = classical_action(model, c, flipped)
        assert new - base == pytest.approx(_local_delta(model, c, spins, i, m), abs=1e-12)


def _local_delta(model, c, s, i, m):
    n = s.shape[1]
    intra = 0.0
    for a, b, jij in model.bonds:
        if a == i:
            intra += jij * s[b, m]
        elif b == i:
            intra += jij * s[a, m]
    inter = s[i, (m - 1) % n] + s[i, (m + 1) % n]
    local = (model.beta / n) * intra + c.gamma_n * inter
    return -2.0 * s[i, m] * local


def test_action_dimension_mismatch():
    c = couplings(SINGLE, 4)
    with pytest.raises(ValueError):
        classical_action(SINGLE, c, np.ones((1, 3), dtype=np.int8))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_worldline_sums_over_a_stack(n):
    # a (2, 3, sites, n) stack against a loop over each field, spin by spin
    model = IsingModel(sites=3, bonds=((0, 1, 1.0), (1, 2, -0.5), (0, 2, 0.25)),
                       gamma=0.8, beta=1.3)
    stack = np.random.default_rng(n).integers(0, 2, size=(2, 3, 3, n)).astype(np.int8) * 2 - 1
    bond, ring = _worldline_sums(model, stack)
    assert bond.shape == (2, 3, 3) and ring.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        s = stack[idx]
        for b, (i, j, _) in enumerate(model.bonds):
            assert bond[idx + (b,)] == sum(int(s[i, m]) * int(s[j, m]) for m in range(n))
        assert ring[idx] == sum(int(s[i, m]) * int(s[i, (m + 1) % n])
                                for i in range(3) for m in range(n))


# ---------------------------------------------------------------------------
# exact references
# ---------------------------------------------------------------------------

def test_single_spin_sigma_x_closed_form():
    ref = exact_reference(SINGLE)   # n = infinity
    assert ref.sigma_x == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert ref.log_z == pytest.approx(math.log(2 * math.cosh(1.0)), rel=1e-12)


def _assert_same_observables(a, b):
    # correlations lie in [-1, 1]: frustrated4's trotter_corr is ~1e-11 at
    # n = 3, below the enumeration's own resolution, so 1e-12 also counts
    # as an absolute bound
    close = functools.partial(pytest.approx, rel=1e-12, abs=1e-12)
    assert a.log_z == close(b.log_z)
    assert a.bond_zz == close(b.bond_zz)
    assert a.trotter_corr == close(b.trotter_corr)
    assert a.diag_energy == close(b.diag_energy)
    assert a.sigma_x == close(b.sigma_x)


@pytest.mark.parametrize("model,n", [(SINGLE, 2), (SINGLE, 3), (PAIR, 2), (PAIR, 4),
                                     (SINGLE, 8), (PAIR, 8), (FRUSTRATED4, 2),
                                     (FRUSTRATED4, 3), (FRUSTRATED4, 5), (CHAIN6, 2),
                                     (CHAIN6, 3), (COLD, 2), (COLD, 3), (SINGLE, 1),
                                     (PAIR, 1), (FRUSTRATED4, 1)])
def test_enumeration_matches_matrix_product_trace(model, n):
    ref = exact_reference(model, n)
    _assert_same_observables(ref, enumeration_reference(model, n))
    assert matrix_trace_bond_zz(model, n) == ref.bond_zz


def test_exact_reference_reaches_large_trotter_numbers():
    def fields(ref):
        return [ref.log_z, ref.bond_zz[0], ref.diag_energy, ref.sigma_x]

    quantum = fields(exact_reference(PAIR))
    v64, v256 = fields(exact_reference(PAIR, 64)), fields(exact_reference(PAIR, 256))
    assert all(abs(b - q) < abs(a - q) for q, a, b in zip(quantum, v64, v256))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 256])
def test_exact_reference_is_finite_on_a_cold_model(n):
    # beta * J = 800: the unshifted layer weights e^{800} overflow
    ref = exact_reference(COLD, n)
    fields = [ref.log_z, ref.trotter_corr, ref.diag_energy, ref.sigma_x, *ref.bond_zz]
    assert all(math.isfinite(v) for v in fields)
    assert -1 - 1e-12 <= ref.bond_zz[0] <= 1 + 1e-12


@pytest.mark.parametrize("gamma,weight,beta", [
    (1e308, 1.0, 1.0), (1.0, 1e308, 1.0), (1.0, 1.0, 1e308), (1e100, 1.0, 1e100)])
def test_exact_reference_refuses_a_model_outside_the_float_range(gamma, weight, beta):
    # n = None does not go through couplings; e^{-beta H} has its own bound
    model = IsingModel(2, ((0, 1, weight),), gamma, beta)
    with pytest.raises(ValueError, match="float range"):
        exact_reference(model)


def test_exact_reference_at_the_float_range_bound_is_finite():
    # max(1, beta) * (Gamma * sites + |J|) = 3e149, inside MAX_MAGNITUDE
    ref = exact_reference(IsingModel(2, ((0, 1, 1.0),), 1.0, 1e149))
    assert all(math.isfinite(v) for v in [ref.log_z, ref.diag_energy, ref.sigma_x, *ref.bond_zz])


def _kron_parts(model):
    """H = A + B from Kronecker products of single-site Pauli matrices."""
    def site(op, k):
        out = np.array([[1.0]])
        for m in range(model.sites):
            out = np.kron(out, op if m == k else np.eye(2))
        return out

    pz = np.array([[1.0, 0.0], [0.0, -1.0]])
    px = np.array([[0.0, 1.0], [1.0, 0.0]])
    dim = 2 ** model.sites
    a = np.zeros((dim, dim))
    for i, j, jij in model.bonds:
        a -= jij * site(pz, i) @ site(pz, j)
    b = np.zeros((dim, dim))
    for i in range(model.sites):
        b -= model.gamma * site(px, i)
    return a, b


_TABLE_MODELS = pytest.mark.parametrize("model", [
    SINGLE, PAIR, FRUSTRATED4, CHAIN6, ferromagnetic_chain(8),
    IsingModel(sites=3, bonds=((0, 1, -0.3), (1, 2, 0.7)), gamma=0.0, beta=2.0),
    IsingModel(sites=5, bonds=((0, 4, 1.5), (1, 3, -2.0)), gamma=0.3, beta=1.0),
], ids=["single", "pair", "frustrated4", "chain6", "chain8", "zero_field", "sparse5"])


@_TABLE_MODELS
def test_hamiltonian_parts_bit_identical_to_kron_build(model):
    for got, want in zip(hamiltonian_parts(model), _kron_parts(model)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@_TABLE_MODELS
def test_ground_energy_enumeration_matches_a_loop_over_layers(model):
    best = math.inf
    for code in range(1 << model.sites):
        layer = np.array([1 if (code >> i) & 1 else -1 for i in range(model.sites)])
        best = min(best, diagonal_energy(model, layer))
    assert ground_energy_enumeration(model) == best


def test_finite_n_approaches_quantum_monotonically():
    quantum = exact_reference(PAIR).bond_zz[0]
    values = [exact_reference(PAIR, n).bond_zz[0] for n in (2, 4, 8)]
    assert values[0] > values[1] > values[2] > quantum


def test_enumeration_cap():
    big = IsingModel(sites=5, bonds=(), gamma=1.0, beta=1.0)
    with pytest.raises(ValueError):
        enumeration_reference(big, 6)


def test_diagonalization_cap():
    big = IsingModel(sites=13, bonds=(), gamma=1.0, beta=1.0)
    with pytest.raises(ValueError):
        exact_reference(big)
    with pytest.raises(ValueError):
        exact_reference(big, 4)


# ---------------------------------------------------------------------------
# Metropolis sampling
# ---------------------------------------------------------------------------

def test_decoupled_spins_have_zero_correlation():
    model = IsingModel(sites=2, bonds=((0, 1, 0.0),), gamma=1.0, beta=1.0)
    stats = metropolis_run(model, 8, sweeps=8000, therm=1000, seed=3)
    obs = stats.bond_zz[0]
    assert abs(obs.mean) <= 3 * obs.std_error


def test_pair_matches_exact_reference_within_3_sigma():
    stats = metropolis_run(PAIR, 16, sweeps=20000, therm=4000, seed=42)
    finite = matrix_trace_bond_zz(PAIR, 16)[0]
    quantum = exact_reference(PAIR).bond_zz[0]
    obs = stats.bond_zz[0]
    assert abs(obs.mean - finite) <= 3 * obs.std_error
    assert abs(obs.mean - quantum) <= 3 * obs.std_error


def test_detailed_balance_chi2_on_four_configurations():
    cfg = kept_configurations(SINGLE, 2, sweeps=60000, therm=5000, seed=7)[::10]
    counts = np.bincount(cfg, minlength=4).astype(float)
    c = couplings(SINGLE, 2)
    weights = np.array([math.exp(2 * c.gamma_n * (1 if code in (0, 3) else -1))
                        for code in range(4)])
    probs = weights / weights.sum()
    expected = probs * counts.sum()
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 3 dof; 16.27 is the 0.1% point
    assert chi2 < 16.27


def test_one_layer_samples_the_classical_weights():
    # at n = 1 the layer is its own ring neighbour, so the inter-layer term
    # is constant: configuration weights are e^{beta J s0 s1}
    stats = metropolis_run(PAIR, 1, sweeps=40000, therm=2000, seed=3)
    cfg = kept_configurations(PAIR, 1, sweeps=40000, therm=2000, seed=3)[::10]
    counts = np.bincount(cfg, minlength=4).astype(float)
    weights = np.array([math.exp(PAIR.beta * (1 if code in (0, 3) else -1))
                        for code in range(4)])
    probs = weights / weights.sum()
    expected = probs * counts.sum()
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 3 dof; 16.27 is the 0.1% point
    assert chi2 < 16.27
    assert stats.accumulated_action == stats.final_action


def test_kept_configurations_decode_to_the_run_traces_beyond_63_spins():
    # 2 sites x 32 layers = 64 spins: bit 63 must not wrap to a negative index
    sites, n = PAIR.sites, 32
    codes = kept_configurations(PAIR, n, sweeps=50, therm=0, seed=1)
    assert len(codes) == 50
    assert all(0 <= code < 2 ** 64 for code in codes) and max(codes) >= 2 ** 63
    fields = np.array([[(code >> bit) & 1 for bit in range(sites * n)] for code in codes],
                      dtype=np.int8).reshape(-1, sites, n) * 2 - 1
    bond, ring = _worldline_sums(PAIR, fields)
    traces = metropolis_run(PAIR, n, sweeps=50, therm=0, seed=1).traces
    assert (bond / n).mean(axis=1).tobytes() == traces["bond_zz"].tobytes()
    assert (ring / (sites * n)).tobytes() == traces["trotter_corr"].tobytes()


def test_determinism_bit_identical():
    a = metropolis_run(PAIR, 8, sweeps=3000, therm=500, seed=9)
    b = metropolis_run(PAIR, 8, sweeps=3000, therm=500, seed=9)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_run_record_does_not_grow_with_n():
    # the JSON record holds per-bond and scalar statistics, nothing per layer
    small, large = (metropolis_run(PAIR, n, 200, 40, 1).to_json() for n in (4, 64))
    assert small.keys() == large.keys()
    for doc in (small, large):
        assert all(len(v) <= len(PAIR.bonds) for v in doc.values() if isinstance(v, list))


def test_kept_sweeps_rule():
    check_kept_sweeps(3, 1)
    for sweeps, therm in ((2, 1), (1, 0), (5, -1)):
        with pytest.raises(ValueError, match="at least 2 sweeps after thermalization"):
            check_kept_sweeps(sweeps, therm)
    with pytest.raises(ValueError, match="at least 2 sweeps after thermalization"):
        trotter_extrapolate(PAIR, [4, 6, 8], 1, 0)


def test_accumulated_action_matches_full_recompute():
    stats = metropolis_run(PAIR, 8, sweeps=10000, therm=0, seed=5)
    assert stats.final_action == pytest.approx(stats.accumulated_action, abs=1e-9)
    # odd n: the last layer is a class of its own
    stats = metropolis_run(FRUSTRATED4, 5, sweeps=2000, therm=0, seed=5)
    assert stats.final_action == pytest.approx(stats.accumulated_action, abs=1e-9)


_CLASS_MODELS = pytest.mark.parametrize("model", [
    PAIR, FRUSTRATED4, CHAIN6, ferromagnetic_chain(5), SINGLE,
    IsingModel(sites=3, bonds=(), gamma=1.0, beta=1.0),
], ids=["pair", "frustrated4", "chain6", "chain5", "site", "bondless3"])


@_CLASS_MODELS
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_update_classes_partition_the_spins_into_uncoupled_sets(model, n):
    classes = _update_classes(model, n)
    spins = np.concatenate(classes)
    assert sorted(spins.tolist()) == list(range(model.sites * n))
    links = {frozenset((i * n + m, j * n + m)) for i, j, _ in model.bonds for m in range(n)}
    links |= {frozenset((i * n + m, i * n + (m + 1) % n))
              for i in range(model.sites) for m in range(n)}
    for cls in classes:
        members = cls.tolist()
        assert all(frozenset((p, q)) not in links
                   for k, p in enumerate(members) for q in members[k + 1:])


def _configuration_weights(model, n):
    """Normalised e^{action} of every configuration, indexed like kept_configurations,
    with log Z checked against enumeration_reference."""
    nspin = model.sites * n
    codes = np.arange(1 << nspin)
    stack = (((codes[:, None] >> np.arange(nspin)) & 1) * 2 - 1).astype(np.int8)
    bond, ring = _worldline_sums(model, stack.reshape(-1, model.sites, n))
    coup = couplings(model, n)
    action = (model.beta / n) * (bond @ np.array([w for *_, w in model.bonds])) \
        + coup.gamma_n * ring
    shift = action.max()
    weights = np.exp(action - shift)
    log_z = shift + math.log(weights.sum()) + nspin * coup.delta_n
    assert log_z == pytest.approx(enumeration_reference(model, n).log_z, rel=1e-12)
    return weights / weights.sum()


@pytest.mark.parametrize("n,chi2_limit", [(2, 37.70), (3, 103.44)])
def test_sampled_configurations_match_enumeration_weights(n, chi2_limit):
    # chi^2 of every configuration's count against its exact weight
    model = IsingModel(sites=2, bonds=((0, 1, 0.8),), gamma=1.0, beta=1.5)
    probs = _configuration_weights(model, n)
    cfg = kept_configurations(model, n, sweeps=30000, therm=1000, seed=13)
    counts = np.bincount(cfg[::5], minlength=len(probs)).astype(float)
    expected = probs * counts.sum()
    assert expected.min() >= 5
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # the 0.1% points of chi^2 with 15 and 63 dof
    assert chi2 < chi2_limit


def test_measurement_blocks_do_not_change_the_run(monkeypatch):
    # a block of 7 fields: the 300 kept sweeps are read in 43 blocks
    whole = metropolis_run(FRUSTRATED4, 3, sweeps=400, therm=100, seed=4)
    monkeypatch.setattr(qmc, "_BLOCK_BYTES", 7 * FRUSTRATED4.sites * 3)
    blocked = metropolis_run(FRUSTRATED4, 3, sweeps=400, therm=100, seed=4)
    assert json.dumps(blocked.to_json()) == json.dumps(whole.to_json())
    for name, trace in whole.traces.items():
        assert blocked.traces[name].tolist() == trace.tolist()


def test_sigma_x_estimator_certified_against_exact():
    # the linear estimator through the trotter correlator must agree with
    # diagonalization as n grows (certified against the exact ladder)
    model = IsingModel(sites=2, bonds=((0, 1, 1.0),), gamma=1.5, beta=0.8)
    quantum = exact_reference(model).sigma_x
    v8 = exact_reference(model, 8).sigma_x
    v10 = exact_reference(model, 10).sigma_x
    assert abs(v10 - quantum) < abs(v8 - quantum) < 0.02


def test_run_stats_errors_from_twenty_bins():
    stats = metropolis_run(PAIR, 4, sweeps=4100, therm=100, seed=1)
    assert stats.trotter_corr.bins == 20
    assert stats.trotter_corr.std_error > 0


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_exact_extrapolation_hits_diagonalization():
    result = trotter_extrapolate(PAIR, [8, 10, 12], sweeps=0, seed=0)
    quantum = exact_reference(PAIR).bond_zz[0]
    assert abs(result.c0 - quantum) < 1e-7
    assert max(map(abs, result.residuals)) < 1e-12   # three points: the fit interpolates


_STRANG = [("A", Fraction(1, 2)), ("B", Fraction(1)), ("A", Fraction(1, 2))]


def test_trotter_trace_is_a_strang_trace_and_strang_is_even():
    # e^{-A/2} (e^A e^B) e^{A/2} is Strang's product, so Tr (e^A e^B)^n = Tr S^n;
    # log S has no even degree, so a trace's Trotter error has no odd power of 1/n
    conjugated = [("A", Fraction(-1, 2)), ("A", Fraction(1)), ("B", Fraction(1)),
                  ("A", Fraction(1, 2))]
    log = product_log(_STRANG, 8)
    assert product_log(conjugated, 8) == log
    assert all(not log.homogeneous(d) for d in range(2, 9, 2))
    assert all(log.homogeneous(d) for d in range(3, 9, 2))


@pytest.mark.parametrize("weights,order", [
    ((Fraction(-1, 3), Fraction(4, 3)), 4),
    ((Fraction(1, 24), Fraction(-16, 15), Fraction(81, 40)), 6),
    ((Fraction(-1, 360), Fraction(16, 45), Fraction(-729, 280), Fraction(1024, 315)), 8),
])
def test_multi_product_of_strang_powers_is_exact_through_its_order(weights, order):
    # sum_k w_k S(x/k)^k over k = 1, 2, ..., w_k = prod_{j != k} k^2 / (k^2 - j^2)
    # (the Richardson weights of an even fit at n = k), against e^{x(A+B)},
    # whose every word of degree d is 1/d!
    powers = [stage_product(Copies((Fraction(1, k),) * k, _STRANG), order + 1)
              for k in range(1, len(weights) + 1)]

    def exact_words(d):
        return [sum(w * s.terms.get(word, 0) for w, s in zip(weights, powers))
                == Fraction(1, math.factorial(d))
                for word in itertools.product((0, 1), repeat=d)]

    assert all(all(exact_words(d)) for d in range(order + 1))
    assert not all(exact_words(order + 1))


def test_three_point_c0_weights_are_richardson_weights():
    ns = [6, 8, 10]
    for i, n in enumerate(ns):
        unit = [float(k == i) for k in range(3)]
        want = math.prod(n * n / (n * n - m * m) for m in ns if m != n)
        assert extrapolate_values(ns, unit).c0 == pytest.approx(want, abs=1e-12)


_OBSERVABLES = ["bond_zz", "sigma_x", "diag_energy"]


@functools.lru_cache(maxsize=None)
def _reference(model, n):
    return exact_reference(model, n)


def _reference_value(model, n, observable):
    return float(np.mean(getattr(_reference(model, n), observable)))


@pytest.mark.parametrize("model", [PAIR, CHAIN6], ids=["pair", "chain6"])
@pytest.mark.parametrize("n_list,bound", [
    ((6, 8, 10), 1e-4), ((16, 24, 32), 1e-6), ((64, 128, 256), 1e-10),
])
def test_exact_extrapolation_bounds(model, n_list, bound):
    for observable in _OBSERVABLES:
        values = [_reference_value(model, n, observable) for n in n_list]
        c0 = extrapolate_values(n_list, values).c0
        # chain6's layer energy at 6,8,10 reads 3.0e-4 off
        tol = 5e-4 if (model is CHAIN6 and observable == "diag_energy"
                       and n_list == (6, 8, 10)) else bound
        assert abs(c0 - _reference_value(model, None, observable)) <= tol, observable


@pytest.mark.parametrize("model", [PAIR, CHAIN6], ids=["pair", "chain6"])
def test_a_kept_one_over_n_column_fits_to_nothing(model):
    # an interpolation in 1, 1/n, 1/n^2 at large n: only the 1/n^4 term leaks
    # into the 1/n coefficient (worst measured: 1.8e-5 of the 1/n^2 one)
    ns = np.array([64.0, 128.0, 256.0])
    design = np.vander(1.0 / ns, 3, increasing=True)
    for observable in _OBSERVABLES:
        _, per_n, per_n2 = np.linalg.solve(
            design, [_reference_value(model, int(n), observable) for n in ns])
        assert abs(per_n) <= 3e-5 * abs(per_n2), observable


def test_extrapolation_rejects_bad_n_lists():
    with pytest.raises(ValueError):
        extrapolate_values([4, 4, 8], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        extrapolate_values([4, 8], [0.1, 0.2])


def test_sampled_bond_zz_error_bins_the_bond_averaged_trace():
    # chain6's bonds are correlated within one chain: their errors do not add
    # in quadrature, so the error is that of the bond-averaged trace
    n_list = [4, 6, 8]
    result = trotter_extrapolate(CHAIN6, n_list, sweeps=2000, seed=1)
    for k, n in enumerate(n_list):
        trace = metropolis_run(CHAIN6, n, 2000, 400, 1 + k).traces["bond_zz"]
        bins = trace.reshape(20, -1).mean(axis=1)
        assert result.values[k] == pytest.approx(bins.mean(), rel=1e-12)
        assert result.errors[k] == pytest.approx(bins.std(ddof=1) / math.sqrt(20), rel=1e-12)


def test_mc_extrapolation_within_combined_errors():
    result = trotter_extrapolate(PAIR, [4, 8, 16], sweeps=20000, seed=11)
    quantum = exact_reference(PAIR).bond_zz[0]
    assert abs(result.c0 - quantum) <= 3 * result.c0_std_error


# ---------------------------------------------------------------------------
# annealing
# ---------------------------------------------------------------------------

def test_schedule_must_decrease():
    with pytest.raises(ValueError):
        anneal(FRUSTRATED4, 4, [1.0, 1.0], 10, 0)
    # an empty schedule is refused like every other one, not by an IndexError
    with pytest.raises(ValueError, match="no field"):
        anneal(FRUSTRATED4, 4, [], 10, 0)


def test_zero_gamma_in_a_schedule_is_refused_without_a_warning():
    # a warning would fail the test (filterwarnings = error), not match the refusal
    with pytest.raises(FrozenTrotterError, match="Gamma = 0"):
        anneal(ferromagnetic_chain(3), 4, [1.0, 0.5, 0.0], 20, 0)


def test_ground_energy_enumeration_chain():
    assert ground_energy_enumeration(ferromagnetic_chain(6)) == -5.0
    layer = np.ones(6)
    assert diagonal_energy(ferromagnetic_chain(6), layer) == -5.0


@pytest.mark.parametrize("n", [8, 5])
def test_anneal_batch_is_bit_identical_to_per_seed_runs(n):
    sched = anneal_schedule(2.5, 1e-3, 5)
    batch = anneal_batch(FRUSTRATED4, n, sched, 10, [3, 0, 7])
    for seed, got in zip([3, 0, 7], batch):
        alone = anneal(FRUSTRATED4, n, sched, 10, seed)
        assert got.seed == alone.seed == seed
        assert got.energy == alone.energy
        assert got.stage_energies == alone.stage_energies
        assert got.configuration.tobytes() == alone.configuration.tobytes()


def test_chain_annealing_reaches_ground_state():
    results = anneal_batch(ferromagnetic_chain(6), 8, anneal_schedule(), 60, range(10))
    hits = sum(abs(r.energy - (-5.0)) < 1e-9 for r in results)
    assert hits >= 9


def test_frustrated_instance_majority_and_quench_gap():
    frus = FRUSTRATED4
    eg = ground_energy_enumeration(frus)
    assert eg == -5.0
    sched = anneal_schedule()
    seeds = range(20)
    slow = sum(abs(r.energy - eg) < 1e-9 for r in anneal_batch(frus, 8, sched, 60, seeds))
    quench = sum(abs(r.energy - eg) < 1e-9
                 for r in anneal_batch(frus, 8, [sched[-1]], 60, seeds))
    assert slow > len(seeds) // 2     # majority of seeds
    assert slow > quench               # slow beats instant quench
