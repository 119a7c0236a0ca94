"""Channels as CJ operators and channel-level influence checks.

The CJ operator of a channel E from A to B is  Σ_ij E(|i><j|) ⊗ |i><j| on
B ⊗ A*, which is basis-independent and positive semidefinite; E is
trace-preserving iff the partial trace over B is the identity on A*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hs import _marginal_residual
from .labeled import (
    LabeledOperator,
    LinearMap,
    SystemLabel,
    _as_key,
    _blocks,
    _entries,
    _hermitian_entries,
    _hermitian_part,
    _sum_duplicates,
    _traced_entries,
    cj_operator,
    dual,
    partial_trace,
    product,
    transpose_systems,
)

__all__ = [
    "ChannelOperator",
    "cj_from_kraus",
    "channel_from_unitary",
    "apply_channel",
    "channel_no_influence",
    "channel_influence_residual",
    "influence_residuals",
    "input_signals",
]


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
        """Residuals of complete positivity (min eigenvalue) and trace preservation.
        An operator routed on its stored entries is read on them: its
        Hermitian part's spectrum is the union of its connected blocks', and
        ‖Tr_out − 1‖ is taken on the partial trace's entries."""
        op, d, entries = self.op, math.prod(s.dim for s in self.inputs), _entries(self.op)
        if entries is None:
            herm, h = _hermitian_part(op.matrix)
            blocks = [h[None]]
            off = partial_trace(op, self.outputs).matrix - np.eye(d)
        else:
            herm, h_index, h = _hermitian_entries(*entries, op.dim)
            blocks = _blocks(h_index, h, op.dim)
            index, values = _traced_entries(op, {s.key for s in self.outputs})
            off = _sum_duplicates(np.concatenate([index, np.arange(d) * (d + 1)]), np.concatenate([values, -np.ones(d)]))[1]
        return {
            "hermitian": herm,
            "min_eigenvalue": min(float(np.linalg.eigvalsh(b).min()) for b in blocks),
            "trace_preserving": float(np.linalg.norm(off)),
        }


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


def apply_channel(ch: ChannelOperator, state: LabeledOperator) -> LabeledOperator:
    """Apply the channel to a state on (a superset of) its input systems.

    Input systems of the channel are contracted; other systems of the state
    pass through untouched.
    """
    st = transpose_systems(state, [s.key for s in state.systems])
    joined = product([ch.op, st])
    return partial_trace(joined, [dual(s).key for s in ch.inputs])


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


def channel_no_influence(ch: ChannelOperator, in_ref, out_ref, tol: float = 1e-9) -> bool:
    """True iff the input system cannot influence the output system."""
    return channel_influence_residual(ch, in_ref, out_ref) <= tol


def input_signals(ch: ChannelOperator, in_ref, tol: float = 1e-9) -> bool:
    """True iff the channel output depends on the given input at all.

    Tests  ρ ≠ (1/d) Tr_{X*}[ρ] ⊗ 1_{X*}  on the full CJ operator's table.
    """
    return _marginal_residual(ch.op, [], (_as_key(in_ref, ch.inputs)[0], True)) > tol
