"""Channels as CJ operators and channel-level influence checks.

The CJ operator of a channel E from A to B is  Σ_ij E(|i><j|) ⊗ |i><j| on
B ⊗ A*, which is basis-independent and positive semidefinite; E is
trace-preserving iff the partial trace over B is the identity on A*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .hs import _marginal_residual
from .labeled import (
    LabeledOperator,
    LinearMap,
    SystemLabel,
    _as_key,
    _positivity,
    _trace_residual,
    cj_operator,
    dual,
)

__all__ = _EXPORTS["channels"]


@dataclass(frozen=True)
class ChannelOperator:
    """CJ operator of a channel, living on output systems ⊗ dual input systems.

    ``outputs`` and ``inputs`` are primal labels; ``op`` carries the outputs as
    primal systems and the inputs as dual systems.
    """

    op: LabeledOperator
    outputs: tuple[SystemLabel, ...]
    inputs: tuple[SystemLabel, ...]

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        want = sorted([s.key for s in self.outputs] + [dual(s).key for s in self.inputs])
        have = sorted(s.key for s in self.op.systems)
        if want != have:
            raise ValueError(f"operator systems {have} do not match channel legs {want}")

    def cptp_residuals(self) -> dict[str, float]:
        """Residuals of complete positivity (min eigenvalue) and trace preservation,
        read by ``labeled._positivity`` and ``labeled._trace_residual`` on the
        stored entries where the operator is routed on them; a NaN or infinite
        entry reports a NaN eigenvalue."""
        herm, _, min_eig, _, _ = _positivity(self.op, 0.0, "eigh")
        return {"hermitian": herm, "min_eigenvalue": min_eig, "trace_preserving": _trace_residual(self.op, self.outputs)}


def cj_from_kraus(kraus, in_systems, out_systems) -> ChannelOperator:
    """Channel operator Σ_K |vec K><vec K| from Kraus matrices.

    Each Kraus matrix maps the composite in-space to the composite out-space;
    ``in_systems``/``out_systems`` may be single labels or sequences.
    """
    if isinstance(in_systems, SystemLabel):
        in_systems = (in_systems,)
    if isinstance(out_systems, SystemLabel):
        out_systems = (out_systems,)
    in_systems, out_systems = tuple(in_systems), tuple(out_systems)
    d_in = int(np.prod([s.dim for s in in_systems]))
    d_out = int(np.prod([s.dim for s in out_systems]))
    m = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for k in kraus:
        k = np.asarray(k)
        if k.shape != (d_out, d_in):
            raise ValueError(f"Kraus shape {k.shape}, expected {(d_out, d_in)}")
        v = k.reshape(-1)
        m += np.outer(v, v.conj())
    systems = out_systems + tuple(dual(s) for s in in_systems)
    return ChannelOperator(LabeledOperator(systems, m), out_systems, in_systems)


def channel_from_unitary(u: LinearMap) -> ChannelOperator:
    """CJ operator of conjugation by an isometry/unitary, with its labels."""
    return ChannelOperator(cj_operator(u), u.codomain, u.domain)


def channel_influence_residual(ch: ChannelOperator, in_ref, out_ref) -> float:
    """Residual of the no-influence condition from one input to one output.

    The input does not influence the chosen output iff the CJ operator traced
    over all other outputs is identity on that input's dual factor: read off
    the operator's one kept type-norm table (``hs._marginal_residual``).
    """
    out_key, in_name = _as_key(out_ref, ch.outputs), _as_key(in_ref, ch.inputs)[0]
    return _marginal_residual(ch.op, [s.key for s in ch.outputs if s.key != out_key], (in_name, True))


def influence_residuals(ch: ChannelOperator) -> dict[tuple[str, str], float]:
    """``channel_influence_residual`` for every input and output of dimension
    above one, keyed by (input name, output name)."""
    outs, ins = [o for o in ch.outputs if o.dim > 1], [i for i in ch.inputs if i.dim > 1]
    return {(i.name, o.name): channel_influence_residual(ch, i, o) for o in outs for i in ins}


def input_signals(ch: ChannelOperator, in_ref, tol: float = 1e-9) -> bool:
    """True iff the channel output depends on the given input at all.

    Tests  ρ ≠ (1/d) Tr_{X*}[ρ] ⊗ 1_{X*}  on the full CJ operator's table; a
    NaN residual signals."""
    return not _marginal_residual(ch.op, [], (_as_key(in_ref, ch.inputs)[0], True)) <= tol
