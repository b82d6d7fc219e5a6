"""Multivariate Hawkes simulation with planted coordinated groups.

The process has per-account base rates mu_v and an excitation matrix
alpha[v, u] (influence of u's events on v) under an exponential kernel
exp(-beta * dt). Sampling uses Ogata thinning: between events the total
ungated intensity only decays, so its value just after the last step is a
valid upper bound for proposals.

Planted scenarios gate each account's event production per sequence in two
ways. A participation draw decides who is active at all: coordinated
accounts join the same "campaign" sequences together, normal accounts join
independently. Participants are then restricted to an active window, whose
offset the coordinated block shares (synchronised activity). Joint
participation drives the co-appearance counts apart; the shared window
gives the temporal-overlap filter its signal. The planted scenario's rates,
branching ratios, kernel decay, window width and participation
probabilities are the module constants below; only the block sizes, the
signal strength, the seed, the sequence count and the horizon vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import Dataset

__all__ = ["HawkesParams", "Participation", "simulate", "make_planted_scenario"]


# the planted scenario (``make_planted_scenario``)
BASE_RATE = 1.6e-5             # base intensity of every account, per second
BACKGROUND_BRANCHING = 0.05    # branching ratio spread over all other accounts
COORD_BRANCHING = 0.2          # extra in-block branching per unit of strength
SELF_BRANCHING = 0.3           # every account re-triggers itself (bursts)
BETA = 2e-3                    # kernel decay rate, per second
WINDOW_WIDTH = 86_400.0        # active-window width: one day
PARTICIPATION_PROB = 0.25      # chance that an account joins a sequence
CAMPAIGN_PROB = 0.3            # fraction of sequences that are campaigns


@dataclass
class Participation:
    """Per-sequence participant sampling.

    Members of the campaign set join campaign sequences with ``in_prob`` and
    the rest with ``out_prob``; every other account joins any sequence with
    ``base_prob``. All draws are independent across accounts, so equal
    probabilities mean no correlation at all.
    """

    base_prob: float             # participation probability of non-members
    members: np.ndarray          # (V,) bool, campaign set
    campaign_prob: float = 0.0   # fraction of sequences that are campaigns
    in_prob: float = 1.0
    out_prob: float = 0.0


@dataclass
class HawkesParams:
    mu: np.ndarray              # (V,) base intensities, > 0
    alpha: np.ndarray           # (V, V) triggering intensities, >= 0
    beta: float                 # kernel decay rate, > 0
    horizon: float              # simulate on [0, horizon]
    accounts: list              # account keys, index-aligned with mu
    planted_labels: dict | None = None   # account key -> group index
    window_width: float | None = None    # active-window width; None = always on
    window_shared: np.ndarray | None = None  # (V,) bool: these share one window offset
    participation: Participation | None = None

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.mu.ndim != 1 or self.alpha.shape != (len(self.mu), len(self.mu)):
            raise ValueError("mu must be (V,) and alpha (V, V)")
        if np.any(self.mu <= 0):
            raise ValueError("base intensities must be strictly positive")
        if np.any(self.alpha < 0):
            raise ValueError("triggering intensities must be non-negative")
        if self.beta <= 0 or self.horizon <= 0:
            raise ValueError("beta and horizon must be positive")
        if len(self.accounts) != len(self.mu):
            raise ValueError("accounts must align with mu")

    @property
    def n_accounts(self) -> int:
        return len(self.mu)

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.alpha / self.beta))))


def _draw_gates(params: HawkesParams, rng):
    """Per-sequence gating: (participant mask, window starts, window ends).

    Draw order is fixed (participation, then windows) for reproducibility.
    """
    V = params.n_accounts
    part = params.participation
    if part is None:
        active = np.ones(V, dtype=bool)
    else:
        campaign = rng.uniform() < part.campaign_prob
        probs = np.full(V, part.base_prob)
        probs[part.members] = part.in_prob if campaign else part.out_prob
        active = rng.uniform(size=V) < probs

    if params.window_width is None:
        return active, np.zeros(V), np.full(V, params.horizon)
    width = min(params.window_width, params.horizon)
    span = params.horizon - width
    shared = np.zeros(V, dtype=bool) if params.window_shared is None else params.window_shared
    starts = np.empty(V)
    if shared.any():
        starts[shared] = rng.uniform(0.0, span)
    starts[~shared] = rng.uniform(0.0, span, size=int((~shared).sum()))
    return active, starts, starts + width


def _simulate_one(params: HawkesParams, rng) -> tuple:
    """One thinning run; returns its account indices and its increasing times."""
    V = params.n_accounts
    active, w_lo, w_hi = _draw_gates(params, rng)
    mu, alpha, beta, T = params.mu, params.alpha, params.beta, params.horizon
    marks, times = [], []
    t = 0.0
    excite = np.zeros(V)  # sum of alpha[v, u] exp(-beta (t - t_i)) at current t
    while True:
        bound = float(mu.sum() + excite.sum())  # ungated total, decays until next jump
        t_prop = t + rng.exponential(1.0 / bound)
        if t_prop > T:
            break
        decay = np.exp(-beta * (t_prop - t))
        excite = excite * decay
        t = t_prop
        gate = active & (w_lo <= t) & (t <= w_hi)
        rates = np.where(gate, mu + excite, 0.0)
        total = float(rates.sum())
        if total > 0 and rng.uniform() * bound <= total:
            u = int(rng.choice(V, p=rates / total))
            marks.append(u)
            times.append(t)
            excite = excite + alpha[:, u]
    return marks, times


def simulate(params: HawkesParams, n_sequences: int, seed: int) -> Dataset:
    """Sample ``n_sequences`` independent realizations on [0, horizon].

    Deterministic given ``seed`` (one spawned RNG stream per sequence).
    Runs that produce no events are dropped. Requires a stationary process
    (spectral radius of alpha/beta < 1).
    """
    rho = params.spectral_radius()
    if rho >= 1.0:
        raise ValueError(f"non-stationary parameters: spectral radius {rho:.3f} >= 1")
    seq, account, t = [], [], []
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_sequences)):
        marks, times = _simulate_one(params, np.random.default_rng(stream))
        seq += [i] * len(marks)
        account += marks
        t += times
    return Dataset.from_columns([f"synth-{i:05d}" for i in range(n_sequences)], seq, account, t,
                                params.accounts, labels=dict(params.planted_labels or {}))


def make_planted_scenario(
    n_normal: int,
    n_coord: int,
    strength: float,
    seed: int,
    n_sequences: int = 120,
    horizon: float = 259_200.0,      # 3 days in seconds
) -> tuple:
    """Build Hawkes parameters with a planted coordinated block and simulate.

    Normal accounts join each sequence independently with
    ``PARTICIPATION_PROB`` and draw their own active window. Coordinated
    accounts pile onto the same campaign sequences (with probability rising
    in ``strength``), share one window offset there, and excite each other
    with extra branching ``strength * COORD_BRANCHING`` (capped for
    stationarity). ``strength == 0`` is the no-signal control: couplings,
    participation and windows all match the normal accounts, with every
    draw independent.
    """
    if n_coord < 2:
        raise ValueError("need at least 2 coordinated accounts")
    if strength < 0:
        raise ValueError("strength must be non-negative")
    V = n_normal + n_coord
    accounts = [f"acct{v:04d}" for v in range(V)]
    labels = {a: (1 if v >= n_normal else 0) for v, a in enumerate(accounts)}
    mu = np.full(V, BASE_RATE)
    a0 = BACKGROUND_BRANCHING * BETA / (V - 1)
    alpha = np.full((V, V), a0)
    np.fill_diagonal(alpha, 0.0)
    coord = np.arange(n_normal, V)
    if strength > 0:
        rho_extra = min(0.6, strength * COORD_BRANCHING)
        alpha[np.ix_(coord, coord)] += rho_extra * BETA / (n_coord - 1)
    alpha[np.diag_indices(V)] = SELF_BRANCHING * BETA

    members = np.zeros(V, dtype=bool)
    members[coord] = True
    mix = 1.0 - np.exp(-0.5 * strength)  # 0 at no signal, -> 1 as strength grows
    participation = Participation(
        base_prob=PARTICIPATION_PROB,
        members=members,
        campaign_prob=CAMPAIGN_PROB,
        in_prob=PARTICIPATION_PROB + (1.0 - PARTICIPATION_PROB) * mix,
        out_prob=PARTICIPATION_PROB * (1.0 - mix),
    )
    params = HawkesParams(
        mu=mu,
        alpha=alpha,
        beta=BETA,
        horizon=horizon,
        accounts=accounts,
        planted_labels=labels,
        window_width=WINDOW_WIDTH,
        window_shared=members if strength > 0 else None,
        participation=participation,
    )
    data = simulate(params, n_sequences, seed)
    return params, data
