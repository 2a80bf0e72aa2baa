"""Monte Carlo engine: exact channel draws scored by the exact per-trial SINRs.

The hops are complex Gaussian per element, h_br ~ CN(0, omega_br I_Q) and
h_r ~ CN(0, omega_r I_Q) over the Q active elements.  A trial needs only the
cascade gain |h_r^H h_br|^2 and the thermal weight ||h_r||^2, and projecting
h_r on the direction of h_br gives both exactly:

    |h_r^H h_br|^2 = omega_br omega_r G E,    ||h_r||^2 = omega_r (E + G_perp)

with G = ||h_br||^2 / omega_br ~ Gamma(Q), E ~ Exp(1) and G_perp ~ Gamma(Q-1)
independent (G_perp = 0 at Q = 1): three variates per receiver instead of 4Q
normals.  G E is the Gamma x Exp product behind the closed forms'
K-distribution (Jakeman & Pusey, IEEE TAP 1976), so the engines share that
identity; the tests keep them independent by checking this sampler against
the element-wise draw (per-element hops, coherent sums) on every receiver's
gain and norm marginals and on outage counts.  No other closed-form shortcut
(mean-field norms, mean-SINR thresholds, quadrature) is used here.

Reproducibility: trials are partitioned into fixed blocks of 2**15; block b
draws from a Philox stream keyed by (seed, b) in a fixed order: (1) with
shared_hbr, one G for all receivers; (2) for each receiver n, f, e in turn,
its own G (independent BS-RIS vectors only), then E, then G_perp (np.zeros at
Q = 1, consuming no variates); (3) the residual-interference powers,
standard_exponential((BLOCK, 2)).  Trial i therefore regenerates bit-exactly
from (seed, i) alone: block i // 2**15, row i % 2**15, independent of the
total trial count and of which other cells share the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
from .analytic import SopEstimate
from .model import SystemParams

__all__ = [
    "BLOCK",
    "ChannelDraw",
    "DRAW_FIELDS",
    "empirical_sinr_cdfs",
    "estimate_sop",
    "estimate_sop_grid",
    "sample_draw",
    "sinr_samples",
]

BLOCK = 1 << 15

# SystemParams fields _draw_block reads: together with the seed and
# shared_hbr they fix the law of every (seed, block) draw
DRAW_FIELDS = ("n_active", "d_br", "d_rn", "d_rf", "d_re", "alpha_p", "beta0",
               "omega_ipu", "omega_ipe")


@dataclass(frozen=True)
class ChannelDraw:
    """A batch of exact channel realizations (arrays of equal length).

    cascaded_gain_*: squared magnitude of the coherent on-group sum for the
                     near user, far user and external eavesdropper links
    norm_*:          on-group RIS-to-receiver norm ||h||^2 (thermal-noise weight)
    ip_user, ip_eve: residual-interference channel powers (exponential)
    """

    cascaded_gain_n: np.ndarray
    cascaded_gain_f: np.ndarray
    cascaded_gain_e: np.ndarray
    norm_n: np.ndarray
    norm_f: np.ndarray
    norm_e: np.ndarray
    ip_user: np.ndarray
    ip_eve: np.ndarray


# the per-trial arrays of a ChannelDraw
_ARRAYS = ("cascaded_gain_n", "cascaded_gain_f", "cascaded_gain_e", "norm_n", "norm_f",
           "norm_e", "ip_user", "ip_eve")


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=[int(seed), int(block_index)])
    return np.random.Generator(np.random.Philox(seed=ss))


def _draw_block(params: SystemParams, seed: int, block_index: int, shared_hbr: bool):
    """One full block of exact draws, in the canonical generation order."""
    q = params.n_active
    rng = _block_rng(seed, block_index)
    omega_br = model.mean_channel_gain(params.d_br, params.alpha_p, params.beta0)

    def projected(distance, g):
        # h_r projected on h_br: gain omega_br omega_r G E, norm omega_r (E + G_perp)
        omega_r = model.mean_channel_gain(distance, params.alpha_p, params.beta0)
        if g is None:
            g = rng.standard_gamma(q, BLOCK)
        e = rng.standard_exponential(BLOCK)
        g_perp = rng.standard_gamma(q - 1, BLOCK) if q > 1 else np.zeros(BLOCK)
        return omega_br * omega_r * g * e, omega_r * (e + g_perp)

    shared = rng.standard_gamma(q, BLOCK) if shared_hbr else None
    gain_n, norm_n = projected(params.d_rn, shared)
    gain_f, norm_f = projected(params.d_rf, shared)
    gain_e, norm_e = projected(params.d_re, shared)
    ip = rng.standard_exponential((BLOCK, 2))
    ip_user = params.omega_ipu * ip[:, 0]
    ip_eve = params.omega_ipe * ip[:, 1]
    return ChannelDraw(
        cascaded_gain_n=gain_n,
        cascaded_gain_f=gain_f,
        cascaded_gain_e=gain_e,
        norm_n=norm_n,
        norm_f=norm_f,
        norm_e=norm_e,
        ip_user=ip_user,
        ip_eve=ip_eve,
    )


def _iter_blocks(params, trials, seed, shared_hbr):
    """The first `trials` trials, one block-keyed draw (the last one cut) at a time."""
    for block_index in range(-(-trials // BLOCK)):
        draw = _draw_block(params, seed, block_index, shared_hbr)
        take = min(BLOCK, trials - block_index * BLOCK)
        if take < BLOCK:
            draw = replace(draw, **{name: getattr(draw, name)[:take] for name in _ARRAYS})
        yield draw


def sample_draw(
    params: SystemParams, trials: int, seed: int, *, shared_hbr: bool = False
) -> ChannelDraw:
    """Draw `trials` exact channel realizations.

    shared_hbr reuses one BS-RIS vector across the three receiver cascades
    (correlated wiretap); the default draws an independent BS-RIS vector per
    receiver, matching the closed-form independence assumption.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    parts = list(_iter_blocks(params, trials, seed, shared_hbr))
    if len(parts) == 1:
        return parts[0]
    cat = {name: np.concatenate([getattr(p, name) for p in parts]) for name in _ARRAYS}
    return ChannelDraw(**cat)


def _outage_count(params, scenario, sic, draw: ChannelDraw) -> int:
    outage = False
    for legit, eve, rate in model.SCENARIOS[scenario]:
        gamma_legit = model.sinr(legit, params, draw, sic)
        gamma_eve = model.sinr(eve, params, draw, sic)
        outage = outage | (gamma_legit < 2.0 ** getattr(params, rate) * (1.0 + gamma_eve) - 1.0)
    return int(np.count_nonzero(outage))


def estimate_sop_grid(cases, trials: int, seed: int) -> list[SopEstimate]:
    """Estimate many (params, scenario, sic) cells, one shared draw stream per draw law.

    Cases of any draw law are accepted: they are grouped internally by the
    DRAW_FIELDS that shape the raw channel draws (geometry, active elements,
    residual gains), and each group is scored over one stream.  Estimates
    (provenance 'monte-carlo', with their trials and binomial standard
    error) come back in input order, each bit-identical to an individual
    estimate_sop call with the same seed, because both consume the same
    (seed, block)-keyed streams.
    """
    if not cases:
        return []
    if trials < 1:
        raise ValueError("trials must be >= 1")
    laws: dict[tuple, list[int]] = {}
    for j, (p, scenario, sic) in enumerate(cases):
        if scenario not in model.SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if sic not in model.SIC_MODES:
            raise ValueError(f"sic must be one of {model.SIC_MODES}")
        laws.setdefault(tuple(getattr(p, name) for name in DRAW_FIELDS), []).append(j)
    counts = np.zeros(len(cases), dtype=np.int64)
    for group in laws.values():
        for draw in _iter_blocks(cases[group[0]][0], trials, seed, False):
            for j in group:
                counts[j] += _outage_count(*cases[j], draw)
    p_hat = counts / trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / trials)
    return [SopEstimate(float(v), "monte-carlo", int(trials), float(e))
            for v, e in zip(p_hat, stderr)]


def estimate_sop(params: SystemParams, scenario: str, sic: str, trials: int,
                 seed: int) -> SopEstimate:
    """Monte Carlo secrecy outage probability for one operating point.

    Outage on a trial means the legitimate SINR falls below
    2**rate * (1 + eavesdropper SINR) - 1, with legitimate and wiretap
    cascades drawn independently within the trial.
    """
    return estimate_sop_grid([(params, scenario, sic)], trials, seed)[0]


def empirical_sinr_cdfs(params: SystemParams, requests, trials: int, seed: int) -> list[np.ndarray]:
    """Empirical CDFs of several SINR families over one shared draw stream.

    requests: list of (which, sic, thresholds) with which a key of
    model.SINR_FAMILIES.  Returns, per
    request, P[SINR <= x] for each threshold x.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prepared = []
    for which, sic, thresholds in requests:
        if which not in model.SINR_FAMILIES:
            raise ValueError(f"unknown SINR family {which!r}")
        prepared.append((which, sic, np.asarray(thresholds, dtype=float)))
    counts = [np.zeros(len(t), dtype=np.int64) for _, _, t in prepared]
    for draw in _iter_blocks(params, trials, seed, False):
        for j, (which, sic, thresholds) in enumerate(prepared):
            gamma = np.sort(model.sinr(which, params, draw, sic))
            counts[j] += np.searchsorted(gamma, thresholds, side="right")
    return [c / trials for c in counts]


def sinr_samples(params: SystemParams, which: str, trials: int, seed: int, *,
                 sic: str = "psic") -> np.ndarray:
    """Exact SINR samples of one family (names as in empirical_sinr_cdfs)."""
    if which not in model.SINR_FAMILIES:
        raise ValueError(f"unknown SINR family {which!r}")
    draw = sample_draw(params, trials, seed)
    return np.asarray(model.sinr(which, params, draw, sic), dtype=float)
