"""First-principles Monte Carlo engine.

Channels are drawn as circularly symmetric complex Gaussians element by
element, cascades are formed as coherent sums over the active RIS group,
and outage is decided from the exact per-draw SINRs.  Nothing here reuses
the closed-form route's distributional shortcuts (mean-field norms,
mean-SINR thresholds, K-distribution identities) - that independence is the
point of the engine.

Reproducibility: trials are partitioned into fixed blocks of 2**15; block b
draws from a Philox stream keyed by (seed, b), and the within-block
generation order is fixed.  Trial i therefore regenerates bit-exactly from
(seed, i) alone: block i // 2**15, row i % 2**15, independent of the total
trial count, scheduling or worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .analytic import SopEstimate
from .model import SystemParams

__all__ = [
    "BLOCK",
    "ChannelDraw",
    "DRAW_FIELDS",
    "McResult",
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
    seed: int
    first_trial: int = 0

    @property
    def trials(self) -> int:
        return self.cascaded_gain_n.shape[0]


@dataclass(frozen=True)
class McResult:
    """Monte Carlo secrecy estimate with enough metadata to re-run it."""

    sop: SopEstimate
    throughput: float
    trials: int
    seed: int
    stderr: float
    scenario: str
    sic: str


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=[int(seed), int(block_index)])
    return np.random.Generator(np.random.Philox(seed=ss))


def _draw_block(params: SystemParams, seed: int, block_index: int, shared_hbr: bool):
    """One full block of exact draws, in the canonical generation order."""
    q = params.n_active
    rng = _block_rng(seed, block_index)
    omega_br = model.mean_channel_gain(params.d_br, params.alpha_p, params.beta0)
    omega_rn = model.mean_channel_gain(params.d_rn, params.alpha_p, params.beta0)
    omega_rf = model.mean_channel_gain(params.d_rf, params.alpha_p, params.beta0)
    omega_re = model.mean_channel_gain(params.d_re, params.alpha_p, params.beta0)

    def cn_matrix(omega):
        # per-element CN(0, omega) entries
        return np.sqrt(omega / 2.0) * (
            rng.standard_normal((BLOCK, q)) + 1j * rng.standard_normal((BLOCK, q))
        )

    def cascade(omega_r, h_br):
        if h_br is None:
            h_br = cn_matrix(omega_br)
        h_r = cn_matrix(omega_r)
        s = np.sum(np.conj(h_r) * h_br, axis=1)  # coherent on-group sum
        gain = (s.real * s.real + s.imag * s.imag).astype(float)
        norm = np.sum(h_r.real * h_r.real + h_r.imag * h_r.imag, axis=1)
        return gain, norm

    shared = cn_matrix(omega_br) if shared_hbr else None
    gain_n, norm_n = cascade(omega_rn, shared)
    gain_f, norm_f = cascade(omega_rf, shared)
    gain_e, norm_e = cascade(omega_re, shared)
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
        seed=int(seed),
        first_trial=block_index * BLOCK,
    )


def _iter_blocks(params, trials, seed, shared_hbr):
    done = 0
    block_index = 0
    while done < trials:
        draw = _draw_block(params, seed, block_index, shared_hbr)
        take = min(BLOCK, trials - done)
        yield draw, take
        done += take
        block_index += 1


def _slice_draw(draw: ChannelDraw, take: int) -> ChannelDraw:
    if take == BLOCK:
        return draw
    return ChannelDraw(
        cascaded_gain_n=draw.cascaded_gain_n[:take],
        cascaded_gain_f=draw.cascaded_gain_f[:take],
        cascaded_gain_e=draw.cascaded_gain_e[:take],
        norm_n=draw.norm_n[:take],
        norm_f=draw.norm_f[:take],
        norm_e=draw.norm_e[:take],
        ip_user=draw.ip_user[:take],
        ip_eve=draw.ip_eve[:take],
        seed=draw.seed,
        first_trial=draw.first_trial,
    )


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
    parts = [
        _slice_draw(draw, take) for draw, take in _iter_blocks(params, trials, seed, shared_hbr)
    ]
    if len(parts) == 1:
        return parts[0]
    cat = {
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in (
            "cascaded_gain_n",
            "cascaded_gain_f",
            "cascaded_gain_e",
            "norm_n",
            "norm_f",
            "norm_e",
            "ip_user",
            "ip_eve",
        )
    }
    return ChannelDraw(seed=int(seed), first_trial=0, **cat)


def _outage_count(params, scenario, sic, draw: ChannelDraw) -> int:
    outage = False
    for legit, eve, rate in model.SCENARIOS[scenario]:
        gamma_legit = model.sinr(legit, params, draw, sic)
        gamma_eve = model.sinr(eve, params, draw, sic)
        outage = outage | (gamma_legit < 2.0 ** getattr(params, rate) * (1.0 + gamma_eve) - 1.0)
    return int(np.count_nonzero(outage))


def estimate_sop_grid(
    cases,
    trials: int,
    seed: int,
    *,
    shared_hbr: bool = False,
) -> list[McResult]:
    """Estimate many (params, scenario, sic) cells over one shared draw stream.

    All cases must share the DRAW_FIELDS that shape the raw channel draws
    (geometry, active elements, residual gains); power, amplification,
    noise, split, rates, varpi and the group count may differ per cell.
    Each returned estimate is bit-identical to an individual estimate_sop
    call with the same seed, because both consume the same
    (seed, block)-keyed streams.
    """
    if not cases:
        return []
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ref = cases[0][0]
    for p, scenario, sic in cases:
        if scenario not in model.SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}")
        if sic not in model.SIC_MODES:
            raise ValueError(f"sic must be one of {model.SIC_MODES}")
        for name in DRAW_FIELDS:
            if getattr(p, name) != getattr(ref, name):
                raise ValueError(f"cases disagree on draw-shaping field {name}")
    counts = np.zeros(len(cases), dtype=np.int64)
    for draw, take in _iter_blocks(ref, trials, seed, shared_hbr):
        sliced = _slice_draw(draw, take)
        for j, (p, scenario, sic) in enumerate(cases):
            counts[j] += _outage_count(p, scenario, sic, sliced)
    results = []
    for (p, scenario, sic), count in zip(cases, counts):
        p_hat = count / trials
        stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / trials))
        rate = model.scenario_rate(p, scenario)
        results.append(
            McResult(
                sop=SopEstimate(
                    value=float(p_hat),
                    provenance="monte-carlo",
                    trials=int(trials),
                    stderr=stderr,
                ),
                throughput=(1.0 - float(p_hat)) * rate,
                trials=int(trials),
                seed=int(seed),
                stderr=stderr,
                scenario=scenario,
                sic=sic,
            )
        )
    return results


def estimate_sop(
    params: SystemParams,
    scenario: str,
    sic: str,
    trials: int,
    seed: int,
    *,
    shared_hbr: bool = False,
) -> McResult:
    """Monte Carlo secrecy outage probability for one operating point.

    Outage on a trial means the legitimate SINR falls below
    2**rate * (1 + eavesdropper SINR) - 1, with legitimate and wiretap
    cascades drawn independently within the trial.
    """
    return estimate_sop_grid([(params, scenario, sic)], trials, seed, shared_hbr=shared_hbr)[0]


def empirical_sinr_cdfs(
    params: SystemParams,
    requests,
    trials: int,
    seed: int,
    *,
    shared_hbr: bool = False,
) -> list[np.ndarray]:
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
    for draw, take in _iter_blocks(params, trials, seed, shared_hbr):
        sliced = _slice_draw(draw, take)
        for j, (which, sic, thresholds) in enumerate(prepared):
            gamma = np.sort(model.sinr(which, params, sliced, sic))
            counts[j] += np.searchsorted(gamma, thresholds, side="right")
    return [c / trials for c in counts]


def sinr_samples(
    params: SystemParams,
    which: str,
    trials: int,
    seed: int,
    *,
    sic: str = "psic",
    shared_hbr: bool = False,
) -> np.ndarray:
    """Exact SINR samples of one family (names as in empirical_sinr_cdfs)."""
    if which not in model.SINR_FAMILIES:
        raise ValueError(f"unknown SINR family {which!r}")
    draw = sample_draw(params, trials, seed, shared_hbr=shared_hbr)
    return np.asarray(model.sinr(which, params, draw, sic), dtype=float)
