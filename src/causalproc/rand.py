"""Seeded random instances: unitaries, states and channels.

Everything takes an explicit numpy Generator so tests stay reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from . import _EXPORTS
from .channels import ChannelOperator, cj_from_kraus, input_signals
from .labeled import SystemLabel

__all__ = _EXPORTS["rand"]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary matrix.

    QR of a complex Ginibre matrix with the phases of R's diagonal moved into
    Q (Mezzadri, math-ph/0609050). For d > 1 the draw is bitwise what SciPy's
    ``stats.unitary_group.rvs(d, random_state=rng)`` returns, and it leaves
    ``rng`` in the same state.
    """
    if d == 1:
        return np.exp(2j * np.pi * rng.random()) * np.ones((1, 1))
    z = 1 / math.sqrt(2) * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    q, r = np.linalg.qr(z)
    ph = r.diagonal()
    q *= (ph / abs(ph))[np.newaxis, :]
    return q


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix from the Ginibre ensemble."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_cptp(d_in: int, d_out: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus matrices of a random channel of Kraus rank d_in, via a Haar random
    Stinespring isometry; a ValueError when a dimension below 1 leaves none."""
    if d_in < 1 or d_out < 1:
        raise ValueError(f"a {d_in}->{d_out} channel has no isometry with Kraus rank {d_in}")
    v = haar_unitary(d_out * d_in, rng)[:, :d_in]
    return [v[e * d_out : (e + 1) * d_out, :] for e in range(d_in)]


def random_signalling_channel(
    in_system: SystemLabel,
    out_system: SystemLabel,
    probe_input,
    rng: np.random.Generator,
) -> ChannelOperator:
    """Random CPTP channel whose output demonstrably depends on probe_input.

    ``in_system`` may be a tuple of labels; ``probe_input`` names the one whose
    influence is required. Resamples, up to 50 times, until it clearly signals.
    """
    ins = in_system if isinstance(in_system, tuple) else (in_system,)
    outs = out_system if isinstance(out_system, tuple) else (out_system,)
    d_in = int(np.prod([s.dim for s in ins]))
    d_out = int(np.prod([s.dim for s in outs]))
    for _ in range(50):
        kraus = random_cptp(d_in, d_out, rng)
        ch = cj_from_kraus(kraus, ins, outs)
        if input_signals(ch, probe_input, 1e-6):
            return ch
    raise RuntimeError("could not sample a signalling channel")

