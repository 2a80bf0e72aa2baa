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

Reproducibility: trials are partitioned into fixed blocks of 2**13, so each
per-trial array (64 KiB) stays below glibc's 128 KiB mmap threshold and in L2;
block b draws from an SFC64 stream keyed by SeedSequence([seed, b]) in a fixed
order: (1) with shared_hbr, one G for all receivers; (2) for each receiver n,
f, e in turn, its own G (independent BS-RIS vectors only), then E, then G_perp;
(3) the residual-interference powers, standard_exponential((BLOCK, 2)).  A Gamma
variate of shape k <= ERLANG_MAX = 6 consumes k rows of BLOCK uniforms, as the
Erlang -ln prod_i (1 - U_i) (Devroye 1986, IX.3; none for G_perp at Q = 1), and
a larger shape one standard_gamma row.  Trial i regenerates bit-exactly
from (seed, i) alone: block i // 2**13, row i % 2**13, independent of the
total trial count and of which cells share the stream or, at equal
model.LAW_FIELDS, its per-block SINR and outage arrays.  estimate_sop_grid is
the one walk over a stream: per block it scores outage cells and CDF probes
from one SINR array per family and SIC read, so a caller that needs both
(cli.validate_point) draws each (draw law, seed, block) once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import model
from .model import SopEstimate, SystemParams

__all__ = ["BLOCK", "ChannelDraw", "DRAW_FIELDS", "empirical_sinr_cdfs", "estimate_sop",
           "estimate_sop_grid", "sample_draw", "sinr_samples"]

BLOCK = 1 << 13
# largest Gamma shape drawn as an Erlang product: per variate on 2**13-row blocks (x86-64 Xeon,
# AVX-512) it took 4.0-16.7 ns at k = 1..6 against standard_gamma's 5.9-19.3, 19.1 vs 18.4 at 7
ERLANG_MAX = 6

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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([int(seed), int(block_index)])))


def _gamma(rng: np.random.Generator, k: int) -> np.ndarray:
    """BLOCK Gamma(k) variates: up to ERLANG_MAX -ln prod_i (1 - U_i) over k rows of uniforms,
    one row at a time, each factor exact in [2**-53, 1] (zeros at k = 0, drawing nothing)."""
    if k > ERLANG_MAX:
        return rng.standard_gamma(k, BLOCK)
    if k == 0:
        return np.zeros(BLOCK)
    prod, u = 1.0 - rng.random(BLOCK), np.empty(BLOCK)
    for _ in range(k - 1):
        prod *= np.subtract(1.0, rng.random(out=u), out=u)
    return np.negative(np.log(prod, out=prod), out=prod)


def _draw_block(params: SystemParams, seed: int, block_index: int, shared_hbr: bool):
    """One full block of exact draws, in the canonical generation order."""
    q = params.n_active
    rng = _block_rng(seed, block_index)
    omega_br = model.mean_channel_gain(params.d_br, params.alpha_p, params.beta0)

    def projected(distance, g):
        # h_r projected on h_br, in place: gain omega_br omega_r G E, norm omega_r (E + G_perp)
        omega_r = model.mean_channel_gain(distance, params.alpha_p, params.beta0)
        gain = _gamma(rng, q) if g is None else g.copy()
        gain *= omega_br * omega_r
        e = rng.standard_exponential(BLOCK)
        gain *= e
        norm = _gamma(rng, q - 1)
        norm += e
        norm *= omega_r
        return gain, norm

    shared = _gamma(rng, q) if shared_hbr else None
    (gain_n, norm_n), (gain_f, norm_f), (gain_e, norm_e) = [
        projected(distance, shared) for distance in (params.d_rn, params.d_rf, params.d_re)]
    ip = rng.standard_exponential((BLOCK, 2))
    return ChannelDraw(gain_n, gain_f, gain_e, norm_n, norm_f, norm_e,
                       params.omega_ipu * ip[:, 0], params.omega_ipe * ip[:, 1])


def _iter_blocks(params, trials, seed, shared_hbr):
    """The first `trials` trials, one block-keyed draw (the last one cut) at a time."""
    for block_index in range(-(-trials // BLOCK)):
        draw = _draw_block(params, seed, block_index, shared_hbr)
        take = min(BLOCK, trials - block_index * BLOCK)
        yield draw if take == BLOCK else replace(draw, **{name: getattr(draw, name)[:take]
                                                          for name in _ARRAYS})


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


def _outage_counts(params, cells, draw: ChannelDraw) -> list:
    """Counts of one operating point's cells on one draw: per (scenario, sic) outage
    cell the trials in outage, per (family, sic, points) probe the trials with SINR
    <= each point.  Each SINR under the SIC mode it reads, its sorted copy and each
    outage event is evaluated once, whichever cells read it."""

    @functools.cache
    def gamma(family, sic):
        return model.sinr(family, params, draw, sic)

    @functools.cache
    def ranked(family, sic):
        return np.sort(gamma(family, sic))

    @functools.cache
    def fired(legit, eve, rate, sic_legit, sic_eve):
        return gamma(legit, sic_legit) < model.secrecy_threshold(params, rate, gamma(eve, sic_eve))

    reads = {(f, s): fam.sic_for(s) for f, fam in model.SINR_FAMILIES.items() for s in model.SIC_MODES}
    counts = []
    for name, sic, *points in cells:
        if points:
            counts.append(np.searchsorted(ranked(name, reads[name, sic]), points[0], side="right"))
            continue
        masks = [fired(legit, eve, rate, reads[legit, sic], reads[eve, sic])
                 for legit, eve, rate in model.SCENARIOS[name]]
        # reduce counts a one-event cell's mask as is, with no copy
        counts.append(int(np.count_nonzero(functools.reduce(np.logical_or, masks))))
    return counts


def estimate_sop_grid(cases, trials: int, seed: int) -> list:
    """Score outage cells (params, scenario, sic) and CDF probes (params, family, sic,
    points), family a key of model.SINR_FAMILIES, over one draw stream per draw law.

    Cases of any draw law are accepted: they are grouped internally by the
    DRAW_FIELDS that shape the raw channel draws (geometry, active elements,
    residual gains), and each group is scored over one stream, one law
    (model.LAW_FIELDS) at a time, on one representative point: points differing
    only in M and P are scored once, and each SINR family and outage event once
    per law per block, for cells and probes alike.  In input order: per cell a
    SopEstimate (provenance 'monte-carlo', with trials and binomial standard
    error), bit-identical to a lone estimate_sop call with the same seed whatever
    else the grid holds; per probe the array of P[SINR <= x] at its points.
    """
    _checked_run(trials, seed)
    draws: dict[tuple, dict[tuple, tuple[SystemParams, list[int]]]] = {}
    for j, (p, name, sic, *points) in enumerate(cases):
        # the registries raise on an unknown scenario, family or SIC mode before any draw
        model.SINR_FAMILIES[name if points else model.SCENARIOS[name][0][0]].sic_for(sic)
        laws = draws.setdefault(tuple(getattr(p, field) for field in DRAW_FIELDS), {})
        laws.setdefault(tuple(getattr(p, field) for field in model.LAW_FIELDS), (p, []))[1].append(j)
    cells = [(name, sic, *(np.asarray(x, dtype=float) for x in points)) for _, name, sic, *points in cases]
    counts = [0] * len(cases)
    for laws in draws.values():
        for draw in _iter_blocks(next(iter(laws.values()))[0], trials, seed, False):
            for p, group in laws.values():
                for j, c in zip(group, _outage_counts(p, [cells[j] for j in group], draw)):
                    counts[j] += c
    n = int(trials)
    return [c / n if len(cell) == 3 else  # a probe's cell is (family, sic, points)
            SopEstimate(c / n, "monte-carlo", n, math.sqrt(c / n * (1.0 - c / n) / n))
            for cell, c in zip(cells, counts)]


def estimate_sop(params: SystemParams, scenario: str, sic: str, trials: int,
                 seed: int) -> SopEstimate:
    """Monte Carlo secrecy outage probability for one operating point.

    Outage on a trial means the legitimate SINR falls below
    2**rate * (1 + eavesdropper SINR) - 1, with legitimate and wiretap
    cascades drawn independently within the trial.
    """
    return estimate_sop_grid([(params, scenario, sic)], trials, seed)[0]


def empirical_sinr_cdfs(params: SystemParams, requests, trials: int, seed: int) -> list[np.ndarray]:
    """Empirical CDFs of several SINR families over one shared draw stream: per
    (which, sic, thresholds) request, which a key of model.SINR_FAMILIES,
    P[SINR <= x] for each threshold x; estimate_sop_grid's probes."""
    return estimate_sop_grid([(params, *request) for request in requests], trials, seed)


def sinr_samples(params: SystemParams, requests, trials: int, seed: int) -> list[np.ndarray]:
    """Exact SINR samples of several families over one shared draw: per (which, sic)
    request, as in empirical_sinr_cdfs, the SINR of each of the first `trials` trials."""
    for which, sic in requests:
        model.SINR_FAMILIES[which].sic_for(sic)  # raises on an unknown family or SIC mode
    draw = sample_draw(params, trials, seed)
    return [model.sinr(which, params, draw, sic) for which, sic in requests]
