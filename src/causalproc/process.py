"""Process operators over event nodes: construction, validation, conditioning.

A node X has an in-space X.in and an out-space X.out; the process operator
lives on the tensor product of every node's in-space with the dual of its
out-space. An instrument element at X is held as tau, the transposed CJ
operator of the element, on X's two factors of sigma. ``conditional_process``
weighs its outcome by the trace rule

    P(tau) = Tr[ sigma (tau ⊗ ⊗_{Y≠X} 1_{Y.in} ⊗ 1_{Y.out*} / d_{Y.out}) ],

the weight when every other node discards its input and prepares the
maximally mixed state, and divides Tr_X[sigma tau] by it. Validation reads
positivity from ``labeled._positivity`` and the allowed types from
``hs._forbidden_types``, and the signalling residual is
``hs._signalling_cut``'s: this module keeps the thresholds and assembles the
verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .channels import ChannelOperator
from .hs import _forbidden_types, _signalling_cut
from .labeled import (
    LabeledOperator,
    LinearMap,
    SystemLabel,
    _positivity,
    _rank_one_factor,
    cj_operator,
    distance,
    partial_trace,
    product,
    reorder,
    tensor,
)

# Default bound on the tuples of local maps and the candidate functions that
# classical validation and enumeration may scan. It is defined here, not in
# classical.py, so the CLI parser reads it without importing that module.
ENUMERATION_BUDGET = 2**24

__all__ = _EXPORTS["process"]


@dataclass(frozen=True)
class QuantumNode:
    """An event node with an input space and an output space."""

    name: str
    d_in: int
    d_out: int

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("node dimensions must be positive")

    @property
    def in_system(self) -> SystemLabel:
        return SystemLabel(f"{self.name}.in", self.d_in)

    @property
    def out_system(self) -> SystemLabel:
        return SystemLabel(f"{self.name}.out", self.d_out)

    @property
    def out_dual(self) -> SystemLabel:
        return SystemLabel(f"{self.name}.out", self.d_out, dual=True)


@dataclass(frozen=True)
class ProcessOperator:
    """Operator on ⊗_i (X_i.in ⊗ X_i.out*)."""

    nodes: tuple[QuantumNode, ...]
    op: LabeledOperator

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def node(self, name: str) -> QuantumNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r}")

    @property
    def dim(self) -> int:
        return self.op.dim

    def expected_trace(self) -> float:
        return float(np.prod([n.d_out for n in self.nodes]))

    @property
    def channel(self) -> ChannelOperator:
        """The operator read as a channel from the node out-spaces to the node in-spaces."""
        return ChannelOperator(self.op, tuple(n.in_system for n in self.nodes), tuple(n.out_system for n in self.nodes))


def canonical_systems(nodes) -> list[SystemLabel]:
    return [s for n in nodes for s in (n.in_system, n.out_dual)]


def process_operator(nodes, op: LabeledOperator) -> ProcessOperator:
    """Wrap an operator as a process over the given nodes.

    Systems are reordered to the canonical interleaved order (X1.in, X1.out*,
    X2.in, ...). The operator is not validated here.
    """
    nodes = tuple(nodes)
    names = [n.name for n in nodes]
    if len(set(names)) != len(names):
        raise ValueError("node names must be unique")
    want = canonical_systems(nodes)
    have = {s.key: s.dim for s in op.systems}
    for lbl in want:
        if have.get(lbl.key) != lbl.dim:
            raise ValueError(f"operator is missing system {lbl!r} or has wrong dimension")
    if len(op.systems) != len(want):
        raise ValueError("operator has extra systems beyond the node spaces")
    return ProcessOperator(nodes, reorder(op, [s.key for s in want]))


@dataclass(frozen=True)
class ValidationVerdict:
    """Per-condition numbers of ``validate_process`` and their verdicts.
    ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian part; for a
    dense operator of low rank it is -δ, the lower bound certified by a pivoted
    Cholesky factor, and it is NaN where the "cholesky" method certifies or
    where a NaN or infinite entry refutes positivity without an eigensolver."""

    valid: bool
    hermitian_residual: float
    hermitian_ok: bool
    psd_ok: bool
    min_eigenvalue: float
    psd_method: str
    trace: float
    expected_trace: float
    trace_ok: bool
    forbidden_norm: float
    forbidden_threshold: float
    type_ok: bool
    offending_types: tuple[str, ...]
    tol: float


def validate_process(sigma: ProcessOperator, tol: float = 1e-9) -> ValidationVerdict:
    """Check positivity, total trace, and the allowed-type support condition.

    The Hermitian residual, positivity, ‖σ‖ and Tr σ come from the one positivity
    reader, ``labeled._positivity`` ("eigh" up to 2048 dimensions, "cholesky"
    above); the forbidden norm and the offending types from the type table's
    reader ``hs._forbidden_types``, where a NaN norm counts as nonzero. A NaN
    or infinite entry passes no check."""
    method = "cholesky" if sigma.op.dim > 2048 else "eigh"
    herm, psd_ok, min_eig, norm, trace = _positivity(sigma.op, tol, method)
    threshold = tol * max(1.0, norm)  # infinite for an infinite entry, which then passes no check
    herm_ok = herm <= threshold < math.inf

    expected = sigma.expected_trace()
    trace_ok = abs(trace - expected) <= tol * max(1.0, expected)

    fnorm, offenders = _forbidden_types(sigma.op, sigma.nodes, threshold)
    type_ok = fnorm <= threshold < math.inf

    valid = bool(herm_ok and psd_ok and trace_ok and type_ok)
    return ValidationVerdict(
        valid=valid,
        hermitian_residual=herm,
        hermitian_ok=bool(herm_ok),
        psd_ok=bool(psd_ok),
        min_eigenvalue=min_eig,
        psd_method=method,
        trace=float(trace.real),
        expected_trace=expected,
        trace_ok=bool(trace_ok),
        forbidden_norm=fnorm,
        forbidden_threshold=threshold,
        type_ok=bool(type_ok),
        offending_types=offenders,
        tol=tol,
    )


def signalling_residual(sigma: ProcessOperator, from_nodes) -> float:
    """Residual of 'the nodes in from_nodes cannot signal to the rest'.

    Zero iff every type of sigma that no node of the from-set witnesses is
    trivial on all of the from-set's factors. The residual is the norm of the
    other unwitnessed types, relative to max(1, norm of all unwitnessed types),
    read off the type table by ``hs._signalling_cut``.
    """
    if not (names := set(from_nodes)) or not names < set(sigma.node_names):
        raise ValueError("from_nodes must be a nonempty proper subset of the nodes")
    return _signalling_cut(sigma.op, [n for n in sigma.nodes if n.name in names])


def is_isometric(sigma: ProcessOperator, tol: float = 1e-9) -> bool:
    """True iff sigma is v v† for one vector v, within ``tol``.

    Process operators of isometries and unitaries have exactly this form. v is
    read off sigma by ``labeled._rank_one_factor`` and compared by ``distance``.
    """
    op, v = sigma.op, _rank_one_factor(sigma.op)
    return distance(op, cj_operator(LinearMap(v.reshape(op.dim, 1), (), op.systems))) <= tol


@dataclass(frozen=True)
class InstrumentElement:
    """One outcome of a local intervention, as a transposed CJ operator.

    ``tau`` lives on the node's in-space (primal) and out-space (dual), i.e.
    the same factors the process operator uses for that node.
    """

    node_name: str
    tau: LabeledOperator


def measure_prepare_element(node: QuantumNode, effect: np.ndarray, prep: np.ndarray) -> InstrumentElement:
    """Element that measures POVM effect on the input and prepares a fresh state.

    tau = effect ⊗ prep^T, on (node.in, node.out*).
    """
    effect = np.asarray(effect, dtype=complex)
    prep = np.asarray(prep, dtype=complex)
    tau = tensor(
        LabeledOperator((node.in_system,), effect),
        LabeledOperator((node.out_dual,), prep.T),
    )
    return InstrumentElement(node.name, tau)


def conditional_process(
    sigma: ProcessOperator,
    node_name: str,
    element: InstrumentElement,
    tol: float = 1e-9,
) -> ProcessOperator:
    """Process on the remaining nodes, conditioned on one outcome at a node.

    The result is validated, and an error is raised if conditioning broke
    validity (possible when the other nodes can signal to the conditioned one).
    """
    if element.node_name != node_name:
        raise ValueError("element belongs to a different node")
    node = sigma.node(node_name)
    rest = tuple(n for n in sigma.nodes if n.name != node_name)
    if not rest:
        raise ValueError("cannot condition away the only node")

    joined = product([sigma.op, element.tau])
    m = partial_trace(joined, [node.in_system.key, node.out_dual.key])
    rest_trace = float(np.prod([n.d_out for n in rest]))
    lam = float(partial_trace(m, m.systems).matrix[0, 0].real) / rest_trace
    if lam <= tol:
        raise ValueError("conditioning on an outcome of (near-)zero weight")
    result = process_operator(rest, m * (1.0 / lam))
    verdict = validate_process(result, tol)
    if not verdict.valid:
        raise ValueError(
            "conditioning produced an invalid operator "
            f"(forbidden norm {verdict.forbidden_norm:.3e}, min eig {verdict.min_eigenvalue:.3e})"
        )
    return result
