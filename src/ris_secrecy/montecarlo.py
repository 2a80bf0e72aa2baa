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
total trial count and of which cells share the stream or, at equal
SystemParams, its per-block SINR and outage arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from . import model
from .model import SopEstimate, SystemParams

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


# every ChannelDraw field is a per-trial array
_ARRAYS = tuple(f.name for f in fields(ChannelDraw))


def _checked_run(trials, seed) -> None:
    """Raise unless trials >= 1 and 0 <= seed < 2**64 are integers (numpy's too, not bools)."""
    for name, value, low, high in (("trials", trials, 1, np.inf), ("seed", seed, 0, 2**64)):
        integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integral and low <= int(value) < high):
            raise ValueError(f"{name} must be an integer in [{low}, {high}), not {value!r}")


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=[int(seed), int(block_index)])
    return np.random.Generator(np.random.Philox(seed=ss))


def _draw_block(params: SystemParams, seed: int, block_index: int, shared_hbr: bool):
    """One full block of exact draws, in the canonical generation order."""
    q = params.n_active
    rng = _block_rng(seed, block_index)
    omega_br = model.mean_channel_gain(params.d_br, params.alpha_p, params.beta0)

    def projected(distance, g):
        # h_r projected on h_br, in place: gain omega_br omega_r G E, norm omega_r (E + G_perp)
        omega_r = model.mean_channel_gain(distance, params.alpha_p, params.beta0)
        if g is None:
            gain = rng.standard_gamma(q, BLOCK)
            gain *= omega_br * omega_r
        else:
            gain = g * (omega_br * omega_r)
        e = rng.standard_exponential(BLOCK)
        gain *= e
        norm = rng.standard_gamma(q - 1, BLOCK) if q > 1 else np.zeros(BLOCK)
        norm += e
        norm *= omega_r
        return gain, norm

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
    _checked_run(trials, seed)
    parts = list(_iter_blocks(params, trials, seed, shared_hbr))
    if len(parts) == 1:
        return parts[0]
    cat = {name: np.concatenate([getattr(p, name) for p in parts]) for name in _ARRAYS}
    return ChannelDraw(**cat)


def _outage_counts(params, cells, draw: ChannelDraw) -> list[int]:
    """Outage counts of one operating point's (scenario, sic) cells on one draw;
    each SINR under the SIC mode it reads, and each outage event, is evaluated once."""

    @functools.cache
    def gamma(family, sic):
        return model.sinr(family, params, draw, sic)

    @functools.cache
    def fired(legit, eve, rate, sic_legit, sic_eve):
        return gamma(legit, sic_legit) < model.secrecy_threshold(params, rate, gamma(eve, sic_eve))

    reads = {(f, s): fam.sic_for(s) for f, fam in model.SINR_FAMILIES.items() for s in model.SIC_MODES}
    counts = []
    for scenario, sic in cells:
        masks = [fired(legit, eve, rate, reads[legit, sic], reads[eve, sic])
                 for legit, eve, rate in model.SCENARIOS[scenario]]
        # reduce counts a one-event cell's mask as is, with no copy
        counts.append(int(np.count_nonzero(functools.reduce(np.logical_or, masks))))
    return counts


def estimate_sop_grid(cases, trials: int, seed: int) -> list[SopEstimate]:
    """Estimate many (params, scenario, sic) cells, one shared draw stream per draw law.

    Cases of any draw law are accepted: they are grouped internally by the
    DRAW_FIELDS that shape the raw channel draws (geometry, active elements,
    residual gains), and each group is scored over one stream, one operating
    point (equal SystemParams) at a time: each SINR family and outage event
    is scored once per point per block.  Estimates (provenance 'monte-carlo',
    with trials and binomial standard error) come back in input order, each
    bit-identical to a lone estimate_sop call with the same seed.
    """
    _checked_run(trials, seed)
    if not cases:
        return []
    laws: dict[tuple, dict[SystemParams, list[int]]] = {}
    for j, (p, scenario, sic) in enumerate(cases):
        if scenario not in model.SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if sic not in model.SIC_MODES:
            raise ValueError(f"sic must be one of {model.SIC_MODES}")
        laws.setdefault(tuple(getattr(p, name) for name in DRAW_FIELDS), {}).setdefault(p, []).append(j)
    counts = np.zeros(len(cases), dtype=np.int64)
    for points in laws.values():
        for draw in _iter_blocks(next(iter(points)), trials, seed, False):
            for p, group in points.items():
                counts[group] += _outage_counts(p, [cases[j][1:] for j in group], draw)
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


def _checked(requests):
    """The requests, once every (which, sic, ...) names a SINR family and a SIC mode."""
    for which, sic, *_ in requests:
        if which not in model.SINR_FAMILIES:
            raise ValueError(f"unknown SINR family {which!r}")
        model.SINR_FAMILIES[which].sic_for(sic)  # raises on an unknown SIC mode
    return requests


def empirical_sinr_cdfs(params: SystemParams, requests, trials: int, seed: int) -> list[np.ndarray]:
    """Empirical CDFs of several SINR families over one shared draw stream: per
    (which, sic, thresholds) request, which a key of model.SINR_FAMILIES,
    P[SINR <= x] for each threshold x."""
    _checked_run(trials, seed)
    prepared = [(which, sic, np.asarray(t, dtype=float)) for which, sic, t in _checked(requests)]
    counts = [np.zeros(len(t), dtype=np.int64) for _, _, t in prepared]
    for draw in _iter_blocks(params, trials, seed, False):
        for j, (which, sic, thresholds) in enumerate(prepared):
            gamma = np.sort(model.sinr(which, params, draw, sic))
            counts[j] += np.searchsorted(gamma, thresholds, side="right")
    return [c / trials for c in counts]


def sinr_samples(params: SystemParams, requests, trials: int, seed: int) -> list[np.ndarray]:
    """Exact SINR samples of several families over one shared draw: per (which, sic)
    request, as in empirical_sinr_cdfs, the SINR of each of the first `trials` trials."""
    _checked(requests)
    draw = sample_draw(params, trials, seed)
    return [model.sinr(which, params, draw, sic) for which, sic in requests]
