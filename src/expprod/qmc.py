"""World-line quantum Monte Carlo for the transverse-field Ising model.

The quantum partition function maps onto a classical Ising system with one
extra periodic axis of n layers: intra-layer couplings are scaled by beta/n
and the transverse field becomes a ferromagnetic inter-layer coupling
gamma_n = -log(tanh(beta*Gamma/n))/2.  ``couplings`` returns the one record
of this map (u = beta*Gamma/n, gamma_n, delta_n and the sigma_x line), which
every estimator and reference reads.  One evaluator reads the mapped
system: for a (..., sites, n) stack of spin fields it sums, in integers,
each bond over the layers and each spin times its ring neighbour; the
action and the sampled observables come from it, with one Ising energy
-sum_b J_b zz_b summed in bond order.  At n = 1 a layer is its own ring
neighbour, so the ring term is a constant that no flip changes.

Sampling is checkerboard Metropolis over a replica axis.  The spins split
into classes, a greedy colour of the site graph times a layer class (even
and odd layers; at odd n >= 3 also layer n - 1 alone; at n = 1 the one
layer), and no two spins of a class share a bond or a ring link, so a
sweep updates the classes in turn, each as one numpy step.  At n >= 2 a
Swendsen-Wang move along the Trotter axis follows, one site colour at a
time, so that world-lines decorrelate in a few sweeps at large n.  Every
replica draws its uniforms from its own generator, so a seed's chain is
the same alone or in a batch (``anneal_batch``); ``metropolis_run`` and
``anneal`` are batches of one.  One exact reference anchors every
estimator: a symmetric eigendecomposition of the symmetrised transfer
matrix at finite n, or of the Hamiltonian at n = infinity, read out through
one density matrix.  A least-squares fit in 1/n^2 and 1/n^4 extrapolates
away the finite-n systematic error, which the symmetric split makes even
in 1/n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class IsingModel:
    """Transverse-field Ising instance: sites, weighted bonds, field, temperature."""

    sites: int
    bonds: tuple[tuple[int, int, float], ...]
    gamma: float
    beta: float

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("a model needs at least one site")
        seen = set()
        for i, j, _ in self.bonds:
            if not (0 <= i < self.sites and 0 <= j < self.sites and i != j):
                raise ValueError(f"bond ({i},{j}) outside the site range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate bond {key}")
            seen.add(key)
        if not all(math.isfinite(v) for v in (self.gamma, self.beta, *(w for *_, w in self.bonds))):
            raise ValueError("transverse field, inverse temperature and bond weights must be finite")
        if self.gamma < 0:
            raise ValueError("transverse field must be >= 0")
        if self.beta <= 0:
            raise ValueError("inverse temperature must be positive")

    @classmethod
    def from_json(cls, doc) -> "IsingModel":
        """The model of a parsed JSON document: sites and bond ends must be JSON
        integers, the rest JSON numbers (a bool is neither), or ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("a model must be a JSON object")
        bonds = doc["bonds"]
        if not (isinstance(bonds, list)
                and all(isinstance(b, list) and len(b) == 3 for b in bonds)):
            raise ValueError("bonds must be a list of [i, j, weight] triples")
        return cls(sites=_json_number(doc["sites"], "sites", int),
                   bonds=tuple((_json_number(i, "a bond end", int),
                                _json_number(j, "a bond end", int),
                                _json_number(w, "a bond weight")) for i, j, w in bonds),
                   gamma=_json_number(doc["gamma"], "gamma"),
                   beta=_json_number(doc["beta"], "beta"))

    def to_json(self) -> dict:
        return {"sites": self.sites,
                "bonds": [[i, j, jij] for i, j, jij in self.bonds],
                "gamma": self.gamma, "beta": self.beta}

    def with_gamma(self, gamma: float) -> "IsingModel":
        return IsingModel(self.sites, self.bonds, gamma, self.beta)

    @cached_property
    def bond_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays of the bonds' first and second sites, in bond order."""
        ends = np.array([(i, j) for i, j, _ in self.bonds], dtype=np.intp).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]


def _json_number(value, name: str, kind: type = float):
    """``value`` as ``kind``: a JSON integer for ``int``, any JSON number for ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return kind(value)


# u = beta*Gamma/n in [1/MAX_MAGNITUDE, MAX_MAGNITUDE] and max(1, beta) * sum |J|
# at most MAX_MAGNITUDE keep every number a run forms, and its square, finite;
# at n = None, max(1, beta) * (Gamma * sites + sum |J|) at most MAX_MAGNITUDE
# does the same for e^{-beta H}.
MAX_MAGNITUDE = 1e150


class FrozenTrotterError(ValueError):
    """Gamma = 0 makes the inter-layer coupling infinite (layers lock)."""


@dataclass(frozen=True)
class TrotterCouplings:
    """The Trotter map at n: u = beta*Gamma/n, gamma_n, delta_n and the line
    <sigma_x> = sigma_x_slope * trotter_corr + sigma_x_offset, which comes from
    differentiating log Z of the mapped system in Gamma through gamma_n and delta_n."""

    n: int
    u: float
    gamma_n: float
    delta_n: float
    sigma_x_slope: float
    sigma_x_offset: float

    def sigma_x(self, trotter_corr):
        """<sigma_x> per site from the ring correlation (a float or an array)."""
        return self.sigma_x_slope * trotter_corr + self.sigma_x_offset


def couplings(model: IsingModel, n: int) -> TrotterCouplings:
    """gamma_n = -log(tanh u)/2, delta_n = log(sinh(2u)/2)/2, sigma_x slope
    -1/sinh(2u) and offset coth(2u), with u = beta*Gamma/n.

    gamma_n is atanh(e^{-2u}) from u = 1/2 on, where tanh(u) rounds toward 1,
    delta_n is u - log 2 + log(1 - e^{-4u})/2 and the slope is 2 e^{-2u} /
    (e^{-4u} - 1), so none loses its digits or overflows however large u is.
    A model outside the float range (``MAX_MAGNITUDE``) is a ValueError.
    """
    if n < 1:
        raise ValueError("Trotter number must be >= 1")
    if model.gamma == 0:
        raise FrozenTrotterError(
            "Gamma = 0: inter-layer coupling diverges; treat layers as locked")
    u = model.beta * model.gamma / n
    bonds = max(1.0, model.beta) * sum(abs(w) for *_, w in model.bonds)
    if not (1 / MAX_MAGNITUDE <= u <= MAX_MAGNITUDE and bonds <= MAX_MAGNITUDE):
        raise ValueError(f"the model leaves the float range at n = {n}: u = beta*Gamma/n = {u:g} "
                         f"must lie in [{1 / MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}] and "
                         f"max(1, beta) * sum |J| = {bonds:g} may not exceed {MAX_MAGNITUDE:g}")
    gamma_n = math.atanh(math.exp(-2 * u)) if u > 0.5 else -0.5 * math.log(math.tanh(u))
    delta_n = u - math.log(2.0) + 0.5 * math.log(-math.expm1(-4 * u))
    return TrotterCouplings(n=n, u=u, gamma_n=gamma_n, delta_n=delta_n,
                            sigma_x_slope=2.0 * math.exp(-2 * u) / math.expm1(-4 * u),
                            sigma_x_offset=1.0 / math.tanh(2 * u))


def _ising_energy(model: IsingModel, zz) -> np.ndarray:
    """-sum_b J_b zz_b over the last axis of a (..., bonds) stack of bond
    products, summed in bond order."""
    zz = np.asarray(zz)
    energy = np.zeros(zz.shape[:-1])
    for b, (_, _, jij) in enumerate(model.bonds):
        energy -= jij * zz[..., b]
    return energy


def _worldline_sums(model: IsingModel, spins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bond layer sums sum_m s_i^m s_j^m, shape (..., bonds), and the ring
    sum sum_{i,m} s_i^m s_i^(m+1), shape (...), of a (..., sites, n) stack of
    +-1 int8 spin fields, exact in int64; at n = 1 the ring sum is sites."""
    i, j = model.bond_ends
    pairs = np.take(spins, i, axis=-2) * np.take(spins, j, axis=-2)
    bond = np.einsum("...bm->...b", pairs, dtype=np.int64)
    ring = np.einsum("...im->...", spins * np.roll(spins, -1, axis=-1), dtype=np.int64)
    return bond, ring


def classical_action(model: IsingModel, coup: TrotterCouplings,
                     spins: np.ndarray) -> float:
    """Log-weight of a sites x n spin field (the constant delta_n term is dropped).

    action = (beta/n) sum_m sum_bonds J_ij s_i^m s_j^m
             + gamma_n sum_m sum_i s_i^m s_i^(m+1)
    """
    if spins.shape != (model.sites, coup.n):
        raise ValueError("configuration dimensions do not match model and n")
    bond, ring = _worldline_sums(model, spins)
    return -(model.beta / coup.n) * float(_ising_energy(model, bond)) + coup.gamma_n * float(ring)


@dataclass
class ObservableStats:
    mean: float
    std_error: float
    bins: int


@dataclass
class RunStats:
    """Binned means and standard errors of the sampled observables.

    ``traces`` holds the per-sweep series behind them (one entry per kept
    sweep): the bond-averaged ``bond_zz``, ``trotter_corr``, ``diag_energy``,
    ``sigma_x`` and the exact ``config_index`` of the spin field.  It is not
    part of the JSON record.
    """

    sweeps: int
    therm: int
    n: int
    seed: int
    acceptance: float
    bond_zz: list[ObservableStats]
    trotter_corr: ObservableStats
    diag_energy: ObservableStats
    sigma_x: ObservableStats
    final_action: float
    accumulated_action: float
    traces: dict[str, np.ndarray] = field(repr=False, compare=False)

    def to_json(self) -> dict:
        def obs(o: ObservableStats):
            return {"mean": o.mean, "std_error": o.std_error, "bins": o.bins}

        return {
            "sweeps": self.sweeps, "therm": self.therm, "n": self.n,
            "seed": self.seed, "acceptance": self.acceptance,
            "bond_zz": [obs(o) for o in self.bond_zz],
            "trotter_corr": obs(self.trotter_corr),
            "diag_energy": obs(self.diag_energy),
            "sigma_x": obs(self.sigma_x),
            "final_action": self.final_action,
            "accumulated_action": self.accumulated_action,
        }


def _binned(trace: np.ndarray) -> ObservableStats:
    """Mean and error of 20 equal bins (one per entry of a shorter trace)."""
    m = len(trace)
    nbins = min(20, max(1, m))
    size = m // nbins
    trimmed = trace[m - nbins * size:]
    means = trimmed.reshape(nbins, size).mean(axis=1)
    mean = float(means.mean())
    if nbins > 1:
        err = float(means.std(ddof=1) / math.sqrt(nbins))
    else:
        err = float("inf")
    return ObservableStats(mean=mean, std_error=err, bins=nbins)


def _site_colours(model: IsingModel) -> list[np.ndarray]:
    """Greedy colouring of the site graph, as one index array per colour:
    sites in site order, each taking the smallest colour that none of its
    earlier neighbours holds, so no bond joins two sites of a colour."""
    colour = np.zeros(model.sites, dtype=np.intp)
    adjacent: list[set[int]] = [set() for _ in range(model.sites)]
    for i, j, _ in model.bonds:
        adjacent[i].add(j)
        adjacent[j].add(i)
    for i in range(model.sites):
        taken = {int(colour[j]) for j in adjacent[i] if j < i}
        colour[i] = next(c for c in range(model.sites) if c not in taken)
    return [np.flatnonzero(colour == c) for c in range(int(colour.max()) + 1)]


def _update_classes(model: IsingModel, n: int) -> list[np.ndarray]:
    """The checkerboard classes of flat spin indices i*n + m, in update order.

    A class is a ``_site_colours`` colour times a layer class: even and odd
    layers at even n; at odd n >= 3 the even and odd layers below n - 1 and
    layer n - 1 alone; at n = 1 the one layer.  No two spins of a class
    share a bond or a ring link, so each class updates at once.  Layer
    classes are the outer loop, colours the inner.
    """
    top = n - n % 2
    layers = [np.arange(0, top, 2), np.arange(1, top, 2)] if n > 1 else []
    if n % 2:
        layers.append(np.array([n - 1]))
    return [(sites[:, None] * n + lay).ravel() for lay in layers for sites in _site_colours(model)]


class _Sampler:
    """Checkerboard Metropolis and a Trotter-axis cluster move, over a replica axis.

    ``state`` holds one spin field per replica, shape (replicas, sites*n)
    int8, with the spins in class order: the ``_update_classes`` one after
    the other, so each class is one contiguous slice.  A sweep draws
    3*sites*n uniforms per replica in one call, each replica from its own
    generator.  It updates the classes in turn: a spin flips when its
    uniform is below exp(min(delta, 0)), delta being the change of the
    action.  At n >= 2 the cluster move follows (``_cluster_move``).  No
    update reads another replica's spins, so a replica's chain does not
    depend on the batch it runs in.  ``accept`` and ``attempt`` count the
    single-spin flips; ``action_delta`` sums every move's change.
    """

    def __init__(self, model: IsingModel, n: int, rngs: Sequence[np.random.Generator]):
        if not rngs:
            raise ValueError("the sampler needs at least one replica")
        couplings(model, n)  # refuses n < 1, a zero field and the float range before any table
        self.model = model
        self.n = n
        self.rngs = list(rngs)
        classes = _update_classes(model, n)
        order = np.concatenate(classes)           # position -> flat spin i*n + m
        self.position = np.argsort(order)         # flat spin -> position
        # each flat spin's links: its bond partners in its layer (padded
        # with itself at coupling 0), then its two ring neighbours
        partners: list[list[tuple[int, float]]] = [[] for _ in range(model.sites)]
        for i, j, jij in model.bonds:
            partners[i].append((j, jij))
            partners[j].append((i, jij))
        degree = max(map(len, partners))
        padded = [row + [(i, 0.0)] * (degree - len(row)) for i, row in enumerate(partners)]
        shape = (model.sites, degree)
        site = np.array([[j for j, _ in row] for row in padded], dtype=np.intp).reshape(shape)
        coupling = np.array([[w for _, w in row] for row in padded]).reshape(shape)
        flat = np.arange(model.sites * n).reshape(model.sites, n)
        links = np.concatenate([
            flat[site].transpose(0, 2, 1).reshape(model.sites * n, degree),
            np.roll(flat, 1, axis=1).reshape(-1, 1), np.roll(flat, -1, axis=1).reshape(-1, 1),
        ], axis=1)
        # links as positions, rows in class order; weights are -2 times the
        # couplings, so a flip changes the action by spin * (weights . links)
        links = self.position[links[order]]
        self.weights = np.zeros(links.shape)
        self.weights[:, :degree] = (-2.0 * model.beta / n) * np.repeat(coupling, n, axis=0)[order]
        bounds = np.cumsum([0] + [len(c) for c in classes])
        self.classes = [(slice(a, b), links[a:b], self.weights[a:b])
                        for a, b in zip(bounds, bounds[1:])]
        # the cluster move's tables: each site's world-line as positions in
        # layer order, and per colour its sites, world-lines and bond links
        self.lines = self.position[flat]
        self.next_layer = np.roll(np.arange(n), -1)
        self.colours = [(sites, self.lines[sites], links[self.lines[sites]][..., :degree],
                         self.weights[self.lines[sites]][..., :degree])
                        for sites in _site_colours(model)]
        self.set_gamma(model.gamma)
        self.state = np.stack([rng.integers(0, 2, size=model.sites * n).astype(np.int8)[order]
                               for rng in self.rngs]) * 2 - 1
        replicas, size = self.state.shape
        self.rand = np.empty((replicas, 3 * size))
        self.moved = np.empty(self.state.shape)     # delta of each flip, 0 elsewhere
        # one slot per (replica, site, run of joined layers) in the cluster move
        self.slot = (np.arange(replicas * model.sites) * n).reshape(replicas, model.sites, 1)
        self.accept = 0
        self.attempt = 0
        self.action_delta = np.zeros(replicas)

    @property
    def spins(self) -> np.ndarray:
        """The replicas' spin fields, shape (replicas, sites, n)."""
        return self.state[:, self.position].reshape(-1, self.model.sites, self.n)

    def set_gamma(self, gamma: float) -> None:
        self.model = self.model.with_gamma(gamma)
        self.coup = couplings(self.model, self.n)
        # at n = 1 a layer is its own ring neighbour: s*s = 1 whatever the flip
        self.weights[:, -2:] = -2.0 * self.coup.gamma_n if self.n > 1 else 0.0

    def sweep(self) -> None:
        s, rand, moved = self.state, self.rand, self.moved
        size = s.shape[1]
        before = s.copy()
        for rng, row in zip(self.rngs, rand):
            rng.random(out=row)
        for cls, links, weights in self.classes:
            spin = s[:, cls]
            delta = spin * (s[:, links] * weights).sum(axis=-1)
            flip = rand[:, cls] < np.exp(np.minimum(delta, 0.0))
            np.negative(spin, out=spin, where=flip)
            np.multiply(delta, flip, out=moved[:, cls])
        # each spin is tried once, so the spins that differ flipped
        self.accept += int(np.count_nonzero(s != before))
        self.attempt += s.size
        self.action_delta += moved.sum(axis=1)
        if self.n > 1:
            self._cluster_move(rand[:, size:2 * size], rand[:, 2 * size:])

    def _cluster_move(self, join_rand: np.ndarray, flip_rand: np.ndarray) -> None:
        """Swendsen-Wang along the Trotter axis (Swendsen & Wang, PRL 58, 86 (1987)).

        Each ring link between equal spins joins them when its uniform is
        below 1 - e^{-2 gamma_n}, which carries the whole ring term.  Then,
        one site colour at a time, each run of joined layers flips when its
        uniform is below exp(min(delta, 0)), delta being the change of the
        intra-layer action.  A flipped run keeps every joined link's ends
        equal, so one set of links serves every colour.
        """
        s = self.state
        lines = s[:, self.lines]
        ring = lines * lines[..., self.next_layer]
        broken = (ring < 0) | (join_rand.reshape(lines.shape) >= -math.expm1(-2 * self.coup.gamma_n))
        # layer m's run counts the broken links below it; when the link from
        # layer n - 1 to layer 0 holds, the last run is the first one
        breaks = broken.cumsum(axis=-1)
        slot = breaks - broken
        slot %= np.maximum(breaks[..., -1:], 1)
        slot += self.slot
        for sites, line, links, weights in self.colours:
            spin = s[:, line]
            delta = spin * (s[:, links] * weights).sum(axis=-1)
            at = slot[:, sites]
            total = np.bincount(at.ravel(), weights=delta.ravel(), minlength=flip_rand.size)
            flip = (flip_rand < np.exp(np.minimum(total, 0.0)).reshape(flip_rand.shape)).ravel()[at]
            np.negative(spin, out=spin, where=flip)
            s[:, line] = spin
            self.action_delta += (delta * flip).sum(axis=(1, 2))
        # a ring link changes sign when exactly one of its ends flipped
        flipped = s[:, self.lines] != lines
        cut = flipped != flipped[..., self.next_layer]
        self.action_delta -= 2 * self.coup.gamma_n * (ring * cut).sum(axis=(1, 2))


# kept spin fields are read in blocks of at most this many bytes
_BLOCK_BYTES = 1 << 20


def check_kept_sweeps(sweeps: int, therm: int) -> None:
    """Refuse a binned run of a negative ``therm`` or fewer than 2 kept
    sweeps: one kept sweep is one bin, whose error bar is infinite."""
    if therm < 0 or sweeps - therm < 2:
        raise ValueError("a binned run needs therm >= 0 and at least 2 sweeps "
                         "after thermalization")


def metropolis_run(model: IsingModel, n: int, sweeps: int, therm: int,
                   seed: int) -> RunStats:
    """Sample the mapped system; one sweep is one flip attempt per spin and,
    at n >= 2, one cluster move (``_Sampler``).

    One replica of ``_Sampler`` driven by ``default_rng(seed)``, so the seed
    fully determines the run.  Kept spin fields are copied into a block of at
    most ``_BLOCK_BYTES``, and ``_worldline_sums`` reads each full block once.
    Statistical errors come from 20 equal bins of the post-thermalization
    trace, which is also returned whole in ``RunStats.traces``.  One kept
    sweep is allowed, for timing; a run whose errors are reported passes
    ``check_kept_sweeps`` first.
    """
    if not sweeps > therm >= 0:
        raise ValueError("need sweeps > therm >= 0")
    sampler = _Sampler(model, n, [np.random.default_rng(seed)])
    start_action = classical_action(model, sampler.coup, sampler.spins[0])
    keep = sweeps - therm
    block = np.empty((max(1, min(keep, _BLOCK_BYTES // (model.sites * n))), model.sites, n),
                     dtype=np.int8)
    bond = np.empty((keep, len(model.bonds)), dtype=np.int64)
    ring = np.empty(keep, dtype=np.int64)
    configs: list[int] = []
    for k in range(sweeps):
        sampler.sweep()
        if k < therm:
            continue
        r = k - therm
        row = r % len(block)
        block[row] = sampler.spins[0]
        if row == len(block) - 1 or r == keep - 1:
            rows = slice(r - row, r + 1)
            fields = block[:row + 1]
            bond[rows], ring[rows] = _worldline_sums(model, fields)
            # spin (i, m) is bit i*n + m; Python ints, so exact at any size
            bits = np.packbits(fields.reshape(len(fields), -1) > 0, axis=1, bitorder="little")
            configs.extend(int.from_bytes(word.tobytes(), "little") for word in bits)
    bond_tr = bond / n
    tc_tr = ring / (model.sites * n)
    de_tr = _ising_energy(model, bond_tr)
    sx_tr = sampler.coup.sigma_x(tc_tr)
    traces = {
        "bond_zz": bond_tr.mean(axis=1) if model.bonds else np.zeros(keep),
        "trotter_corr": tc_tr, "diag_energy": de_tr, "sigma_x": sx_tr,
        "config_index": np.array(configs, dtype=np.int64 if model.sites * n <= 63 else object),
    }
    return RunStats(
        sweeps=sweeps, therm=therm, n=n, seed=seed,
        acceptance=sampler.accept / sampler.attempt,
        bond_zz=[_binned(zz) for zz in bond_tr.T],
        trotter_corr=_binned(tc_tr),
        diag_energy=_binned(de_tr),
        sigma_x=_binned(sx_tr),
        final_action=classical_action(model, sampler.coup, sampler.spins[0]),
        accumulated_action=start_action + float(sampler.action_delta[0]),
        traces=traces,
    )


# ---------------------------------------------------------------------------
# Exact references
# ---------------------------------------------------------------------------

def _basis_spins(sites: int) -> np.ndarray:
    """The +-1 spin table: row s holds sigma_z of every site in basis state s.

    Site 0 is the most significant bit of s, as in a Kronecker product
    written left to right; bit 0 is spin up (+1).
    """
    bits = (np.arange(1 << sites)[:, None] >> np.arange(sites - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def diagonal_energy(model: IsingModel, layers: np.ndarray) -> np.ndarray:
    """Ising energy -sum J_ij s_i s_j of each layer of a (..., sites) stack;
    over the ``_basis_spins`` table, the diagonal of A."""
    i, j = model.bond_ends
    return _ising_energy(model, np.take(layers, i, axis=-1) * np.take(layers, j, axis=-1))


def hamiltonian_parts(model: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """Dense A (diagonal Ising) and B (transverse field) with H = A + B."""
    spins = _basis_spins(model.sites)
    a = np.diag(diagonal_energy(model, spins))
    b = np.zeros_like(a)
    b -= model.gamma * (spins @ spins.T == model.sites - 2)  # one spin apart
    return a, b


@dataclass
class ExactObservables:
    log_z: float
    bond_zz: list[float]
    trotter_corr: float | None
    diag_energy: float
    sigma_x: float


def exact_reference(model: IsingModel, n: int | None = None) -> ExactObservables:
    """Exact observables at Trotter number n, or of e^{-beta H} at n = None.

    One symmetric eigendecomposition V diag(w) V^T serves both: of H = A + B
    at n = None, with weights e^{-beta (w - w_min)}; of the symmetrised
    transfer matrix S = e^{-beta A/2n} e^{-beta B/n} e^{-beta A/2n} at finite
    n, with A and B shifted to be >= 0 so that no entry overflows, and
    weights (w / w_max)^n, since Z_n = Tr S^n.  The density matrix
    rho = V diag(weights) V^T / sum(weights) gives bond_zz and diag_energy
    from its diagonal and sigma_x at n = None from its one-flip entries.  At
    finite n, trotter_corr is Tr[S^{n-1} e^{-beta A/2n} (e^{-beta B/n} o C)
    e^{-beta A/2n}] / Tr S^n with C[s, s'] = sum_i s_i s'_i / sites, and
    sigma_x follows from it.  Capped at 2^sites <= 4096; a model outside the
    float range (``MAX_MAGNITUDE``) is a ValueError.
    """
    if model.sites > 12:
        raise ValueError("exact reference capped at 2^sites <= 4096")
    spins = _basis_spins(model.sites)
    overlap = spins @ spins.T  # sites - 2 * (number of differing spins)
    if n is None:
        scale = max(1.0, model.beta) * (model.gamma * model.sites
                                        + sum(abs(w) for *_, w in model.bonds))
        if scale > MAX_MAGNITUDE:
            raise ValueError(f"the model leaves the float range: max(1, beta) * "
                             f"(Gamma * sites + sum |J|) = {scale:g} may not exceed "
                             f"{MAX_MAGNITUDE:g}")
        a, b = hamiltonian_parts(model)
        w, v = np.linalg.eigh(a + b)
        weights = np.exp(-model.beta * (w - w.min()))
        log_scale = -model.beta * w.min()
    else:
        coup = couplings(model, n)
        # per site e^{-u} e^{u sigma_x} = [[c, s], [s, c]], so e^{-beta B/n} is
        # e^{u sites} flip, flip = c^(equal spins) s^(differing spins)
        c, s = (1 + math.exp(-2 * coup.u)) / 2, -math.expm1(-2 * coup.u) / 2
        flip = c ** ((model.sites + overlap) / 2) * s ** ((model.sites - overlap) / 2)
        a_diag = diagonal_energy(model, spins)
        half = np.exp(-(model.beta / (2 * n)) * (a_diag - a_diag.min()))
        w, v = np.linalg.eigh(half[:, None] * flip * half)
        top = w.max()
        ratio = np.clip(w / top, 0.0, None)  # S is positive definite
        weights = ratio ** n
        log_scale = model.beta * (model.gamma * model.sites - a_diag.min()) + n * math.log(top)
    total = float(weights.sum())
    rho = (v * weights) @ v.T / total
    occupation = np.diag(rho)
    bond_zz = [float(occupation @ (spins[:, i] * spins[:, j])) for i, j, _ in model.bonds]
    diag_energy = float(_ising_energy(model, bond_zz))
    if n is None:
        trotter_corr = None
        sigma_x = float(rho[overlap == model.sites - 2].sum()) / model.sites
    else:
        corr = half[:, None] * (flip * overlap / model.sites) * half
        trotter_corr = float(np.sum((v * ratio ** (n - 1)) @ v.T * corr)) / (top * total)
        sigma_x = coup.sigma_x(trotter_corr)
    return ExactObservables(log_z=log_scale + math.log(total), bond_zz=bond_zz,
                            trotter_corr=trotter_corr, diag_energy=diag_energy,
                            sigma_x=sigma_x)


def matrix_trace_bond_zz(model: IsingModel, n: int) -> list[float]:
    """Finite-n <sigma_z sigma_z> per bond, read from ``exact_reference``."""
    return exact_reference(model, n).bond_zz


# ---------------------------------------------------------------------------
# Trotter extrapolation
# ---------------------------------------------------------------------------

@dataclass
class ExtrapolationResult:
    c0: float
    c2: float
    c4: float
    c0_std_error: float
    residuals: list[float]
    n_list: list[int]
    values: list[float]
    errors: list[float]


def _check_trotter_numbers(n_list: Sequence[int]) -> list[int]:
    """The Trotter numbers of a fit: at least 3, distinct, each >= 1."""
    ns = [int(n) for n in n_list]
    if len(ns) < 3:
        raise ValueError("need at least 3 Trotter numbers to extrapolate")
    if len(set(ns)) != len(ns):
        raise ValueError("Trotter numbers must be distinct")
    if min(ns) < 1:
        raise ValueError(f"Trotter numbers must be >= 1, got {min(ns)}")
    return ns


def extrapolate_values(n_list: Sequence[int], values: Sequence[float],
                       errors: Sequence[float] | None = None) -> ExtrapolationResult:
    """Least-squares fit value(n) = c0 + c2/n^2 + c4/n^4 with error propagation.

    Tr (e^{-eps A} e^{-eps B})^n is Tr S^n for the symmetric Strang kernel S,
    whose log has only odd degrees, so a finite-n trace has no odd power of
    1/n.  One pseudo-inverse of the design in 1/n^2 gives the coefficients
    and c0's error.  At three Trotter numbers the fit interpolates and c0 is
    the multi-product (Richardson) sum of w_i value(n_i),
    w_i = prod_{j != i} n_i^2 / (n_i^2 - n_j^2).
    """
    ns = _check_trotter_numbers(n_list)
    y = np.asarray(values, dtype=float)
    design = np.vander(1.0 / np.asarray(ns, dtype=float) ** 2, 3, increasing=True)
    pinv = np.linalg.pinv(design)
    coeffs = pinv @ y
    errs = [0.0] * len(ns) if errors is None else [float(e) for e in errors]
    return ExtrapolationResult(
        c0=float(coeffs[0]), c2=float(coeffs[1]), c4=float(coeffs[2]),
        c0_std_error=float(np.sqrt(np.sum((pinv[0] * errs) ** 2))),
        residuals=(y - design @ coeffs).tolist(), n_list=ns, values=y.tolist(), errors=errs)


def trotter_extrapolate(model: IsingModel, n_list: Sequence[int], sweeps: int,
                        seed: int, observable: str = "bond_zz") -> ExtrapolationResult:
    """Extrapolate a QMC observable to n -> infinity.

    ``sweeps = 0`` uses the exact finite-n reference instead of sampling
    (no statistical error); otherwise one independent chain per n, its error
    binned from the observable's trace (bond-averaged for ``bond_zz``, which
    a model without bonds does not have).
    """
    if observable == "bond_zz" and not model.bonds:
        raise ValueError("bond_zz needs a model with at least one bond")
    if sweeps:
        check_kept_sweeps(sweeps, sweeps // 5)
    ns = _check_trotter_numbers(n_list)
    for n in ns:
        couplings(model, n)  # every n is refused before the first chain or eigendecomposition
    values, errors = [], []
    for k, n in enumerate(ns):
        if sweeps == 0:
            values.append(float(np.mean(getattr(exact_reference(model, n), observable))))
        else:
            run = metropolis_run(model, n, sweeps, sweeps // 5, seed + k)
            stats = _binned(run.traces[observable])
            values.append(stats.mean)
            errors.append(stats.std_error)
    return extrapolate_values(ns, values, errors if sweeps else None)


# ---------------------------------------------------------------------------
# Annealing
# ---------------------------------------------------------------------------

# the field a schedule's Gamma = 0 runs at
GAMMA_FLOOR = 1e-6


@dataclass
class AnnealResult:
    energy: float
    configuration: np.ndarray
    gamma_floor_hit: bool
    stage_energies: list[float]
    seed: int


def anneal_batch(model: IsingModel, n: int, gamma_schedule: Sequence[float],
                 sweeps_per_stage: int, seeds: Sequence[int]) -> list[AnnealResult]:
    """Quantum annealing on the mapped system, one replica per seed.

    The field is ramped down stagewise.  The schedule must be strictly
    decreasing; a final Gamma of 0 is clamped to ``GAMMA_FLOOR`` (the
    inter-layer coupling diverges at 0).  Each result holds its chain's best
    layer: its diagonal energy and configuration.  Replica r owns
    ``default_rng(seeds[r])`` and no update reads another replica's spins,
    so a seed's result is bit-identical whether it runs alone or in a batch.
    """
    if sweeps_per_stage < 1:
        raise ValueError("anneal needs at least 1 sweep per stage")
    sched = [float(g) for g in gamma_schedule]
    if any(b >= a for a, b in zip(sched, sched[1:])):
        raise ValueError("gamma schedule must be strictly decreasing")
    floor_hit = False
    clamped = []
    for g in sched:
        if g <= 0:
            warnings.warn("gamma schedule reached 0; clamping to the floor")
            g = GAMMA_FLOOR
            floor_hit = True
        clamped.append(g)
    couplings(model.with_gamma(clamped[-1]), n)  # the smallest u; the sampler checks the first
    sampler = _Sampler(model.with_gamma(clamped[0]), n,
                       [np.random.default_rng(seed) for seed in seeds])
    stage_energies = []
    for g in clamped:
        sampler.set_gamma(g)
        for _ in range(sweeps_per_stage):
            sampler.sweep()
        energies = diagonal_energy(model, sampler.spins.transpose(0, 2, 1))
        stage_energies.append(energies.min(axis=1))
    best = energies.argmin(axis=1)
    fields = sampler.spins
    return [AnnealResult(energy=float(energies[r, best[r]]),
                         configuration=fields[r, :, best[r]].copy(),
                         gamma_floor_hit=floor_hit,
                         stage_energies=[float(e[r]) for e in stage_energies], seed=seed)
            for r, seed in enumerate(seeds)]


def anneal(model: IsingModel, n: int, gamma_schedule: Sequence[float],
           sweeps_per_stage: int, seed: int) -> AnnealResult:
    """``anneal_batch`` over the one seed."""
    (result,) = anneal_batch(model, n, gamma_schedule, sweeps_per_stage, [seed])
    return result


def ground_energy_enumeration(model: IsingModel) -> float:
    """Brute-force minimum of the diagonal energy over all 2^sites layers."""
    return float(diagonal_energy(model, _basis_spins(model.sites)).min())


def anneal_schedule(g_start: float = 2.5, g_end: float = 1e-4,
                    stages: int = 14) -> list[float]:
    """Geometric field ramp; the tiny end value freezes the Trotter direction."""
    if stages < 2:
        raise ValueError("an anneal schedule needs at least 2 stages")
    if not all(math.isfinite(g) and g > 0 for g in (g_start, g_end)):
        raise ValueError(f"anneal schedule ends must be finite and positive, got {g_start}:{g_end}")
    ratio = (g_end / g_start) ** (1.0 / (stages - 1))
    return [g_start * ratio ** k for k in range(stages)]


def ferromagnetic_chain(sites: int, beta: float = 8.0, gamma: float = 2.5) -> IsingModel:
    bonds = tuple((i, i + 1, 1.0) for i in range(sites - 1))
    return IsingModel(sites=sites, bonds=bonds, gamma=gamma, beta=beta)

