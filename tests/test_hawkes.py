import numpy as np
from scipy import integrate, stats

from coact.hawkes import HawkesParams, intensity, make_planted_scenario, simulate


def small_params():
    # ungated: no participation draw, no active windows; spectral radius 0.6
    return HawkesParams(
        mu=np.array([0.4, 0.25, 0.3]),
        alpha=np.array([[0.5, 0.3, 0.0], [0.2, 0.4, 0.3], [0.0, 0.3, 0.6]]),
        beta=1.5,
        horizon=120.0,
        accounts=["a", "b", "c"],
    )


def compensator(p, times, marks, v, lo, hi):
    """Integral of account v's intensity over [lo, hi], in closed form."""
    before = times < hi
    t, u = times[before], marks[before]
    start = np.maximum(lo, t)
    excite = p.alpha[v, u] / p.beta * (np.exp(-p.beta * (start - t)) - np.exp(-p.beta * (hi - t)))
    return p.mu[v] * (hi - lo) + excite.sum()


def test_time_rescaled_gaps_are_unit_exponential():
    # time-rescaling theorem (Brown et al., Neural Computation 2002): each
    # account's compensator between its own events is Exp(1) distributed
    p = small_params()
    (s,) = simulate(p, n_sequences=1, seed=7).sequences
    events = s.events
    times = np.array([e.t for e in events])
    marks = np.array([p.accounts.index(e.account) for e in events])
    assert 200 <= len(events) <= 600

    gaps, intervals = [], []
    for v in range(p.n_accounts):
        own = np.concatenate([[0.0], times[marks == v]])
        for lo, hi in zip(own[:-1], own[1:]):
            gaps.append(compensator(p, times, marks, v, lo, hi))
            intervals.append((v, lo, hi))

    for v, lo, hi in intervals[::60]:
        inside = list(times[(times > lo) & (times < hi)])
        numeric, _ = integrate.quad(
            lambda x: intensity(p, p.accounts[v], x, [e for e in events if e.t < x]),
            lo, hi, points=inside or None, limit=200)
        assert abs(numeric - compensator(p, times, marks, v, lo, hi)) < 1e-8

    assert stats.kstest(gaps, "expon").pvalue > 0.01


def test_planted_scenario_is_reproducible_from_its_seed():
    _, first = make_planted_scenario(8, 4, 1.0, seed=3, n_sequences=15)
    _, again = make_planted_scenario(8, 4, 1.0, seed=3, n_sequences=15)
    _, other = make_planted_scenario(8, 4, 1.0, seed=4, n_sequences=15)
    assert first.n_events() > 0
    assert first == again
    assert first != other
