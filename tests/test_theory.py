"""The relay's simulated pair error rate against closed-form bounds.

The relay detects the pair (x_A, x_B) jointly by ML from

    y_r = sqrt(es) * (a * h_ar * x_A + b * h_br * x_B) + z_r,

with h_ar ~ CN(0, var_ar), h_br ~ CN(0, var_br) and z_r ~ CN(0, 1).  Its
rate of pair errors, (relay_a, relay_b) != (ia, ib), lies between:

* below, a genie that gives the relay one source's symbol: the other
  source's single-user M-PSK symbol error rate over Rayleigh fading at
  average SNR es * |a|^2 * var_ar (or es * |b|^2 * var_br), in the exact
  MGF form (Simon & Alouini, *Digital Communication over Fading Channels*,
  2005), for the weaker source;
* above, the union over wrong pairs of the pairwise error probabilities
  1/2 * (1 - sqrt(g / (1 + g))), with
  g = es * (|a|^2 var_ar |dx_A|^2 + |b|^2 var_br |dx_B|^2) / 4.

Unlike the golden digests and the fast-versus-exhaustive checks, these
bounds share no code with the simulator, so they catch a model error that
both sides of a relative check would share: a wrong noise variance, a
missing sqrt(es), or a link variance applied to the wrong source.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from marc_pnc.channel import PROFILE_PRESETS, FadingProfile
from marc_pnc.montecarlo import BATCH_SIZE, SweepSpec, draw_batch, transmit
from marc_pnc.numerics import philox_stream

BATCHES = 8  # 262,144 frames a cell
PROFILES = {"equal": PROFILE_PRESETS["equal"], "ar-strong": FadingProfile.from_db(ar=10.0)}


def relay_pair_error_rate(spec: SweepSpec, snr_db: float) -> float:
    scheme = spec.scheme_at(snr_db)
    wrong = 0
    for batch in range(BATCHES):
        d = draw_batch(philox_stream(spec.seed, batch), spec.profile, spec.m, BATCH_SIZE)
        rx = transmit(d, *scheme)
        wrong += np.count_nonzero((rx.relay_a != d.ia) | (rx.relay_b != d.ib))
    return wrong / (BATCHES * BATCH_SIZE)


def psk_ser_rayleigh(m: int, snr: float) -> float:
    """Exact M-PSK symbol error rate over Rayleigh fading at average SNR ``snr``."""
    g = math.sin(math.pi / m) ** 2
    integral, _ = quad(lambda t: 1.0 / (1.0 + g * snr / math.sin(t) ** 2), 0.0, (m - 1) * math.pi / m)
    return integral / math.pi


def pair_union_bound(m: int, wa: float, wb: float) -> float:
    """Union bound on the pair error rate, with ``wa = es |a|^2 var_ar`` and
    ``wb = es |b|^2 var_br``, averaged over the M^2 transmitted pairs."""
    pts = np.exp(2j * np.pi * np.arange(m) / m)
    dist = np.abs(pts[:, None] - pts[None, :]) ** 2  # [sent, decided]
    g = (wa * dist[:, :, None, None] + wb * dist[None, None, :, :]) / 4.0
    pep = 0.5 * (1.0 - np.sqrt(g / (1.0 + g)))
    return float(pep.sum() - 0.5 * m * m) / (m * m)  # drop the M^2 right pairs, where g = 0


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
def test_relay_pair_error_rate_lies_between_genie_and_union_bounds(profile, m, snr_db):
    spec = SweepSpec((snr_db,), 1, PROFILES[profile], m=m, seed=11)
    k = spec.constants_at(snr_db)
    wa = k.es * abs(k.a) ** 2 * spec.profile.var_ar
    wb = k.es * abs(k.b) ** 2 * spec.profile.var_br
    lower = psk_ser_rayleigh(m, min(wa, wb))
    upper = pair_union_bound(m, wa, wb)
    rate = relay_pair_error_rate(spec, snr_db)
    assert lower < rate < upper, f"{lower:.4g} < {rate:.4g} < {upper:.4g}"
