"""Process operators with cyclic causal structure: construction, validation,
Markov factorization and discovery, comb and separability analysis, classical
(deterministic and stochastic) processes, and JSON/CLI plumbing.

The namespace is lazy (PEP 562): ``import causalproc`` loads no submodule.
A public name, or a submodule such as ``causalproc.hs``, imports its module
on first access and is then kept here, so each CLI command loads only the
modules it runs. ``_EXPORTS`` is the one declaration of the public API: each
submodule's ``__all__`` is its entry in the table, and ``__all__`` here joins
them in table order.
"""

# submodule -> the public names it defines, in the order they are exported
_EXPORTS = {
    "labeled": (
        "LabeledOperator", "LinearMap", "SystemLabel", "cj_operator", "compose_maps", "distance",
        "dual", "embed", "identity_map", "identity_operator", "is_unitary", "partial_trace",
        "permute_map", "product", "reorder", "split_system", "tensor", "tensor_maps",
    ),
    "hs": ("project_trivial", "type_norms"),
    "channels": (
        "ChannelOperator", "channel_from_unitary", "channel_influence_residual", "cj_from_kraus",
        "influence_residuals", "input_signals",
    ),
    "rand": (
        "haar_unitary", "random_cptp", "random_signalling_channel", "random_state",
    ),
    "process": (
        "InstrumentElement", "ProcessOperator", "QuantumNode", "ValidationVerdict",
        "conditional_process", "is_isometric", "measure_prepare_element",
        "process_operator", "signalling_residual", "validate_process",
    ),
    "graphs": (
        "CompatibilityVerdict", "DirectedGraph", "FaithfulnessReport", "MarkovFactorization",
        "UnitaryProcess", "causal_structure_unitary", "compatibility_check", "complete_graph",
        "directed_graph", "discover", "faithfulness_check", "make_unitary_process", "markov_check",
    ),
    "combs": (
        "CombVerdict", "SeparabilityVerdict", "UnitarySeparabilityVerdict",
        "bipartite_separability", "comb_check", "comb_search", "unitary_causal_separability",
    ),
    "classical": (
        "ClassicalMarkov", "ClassicalNode", "ClassicalProcess", "ClassicalValidationVerdict",
        "DeterministicProcess", "PolytopeVerdict", "ReversibleExtension",
        "causal_structure_deterministic", "classical_joint_probabilities", "classical_markov_check",
        "enumerate_deterministic_processes", "find_process_outside_hull", "polytope_membership",
        "quantize", "reversible_extension", "validate_classical", "validate_deterministic",
    ),
    "exemplars": (
        "BlockDecomposition", "DecompositionReport", "MethodsCounterexample",
        "af_causal_graph", "bw_decomposition", "decomposition_report", "make_af",
        "make_af_deterministic", "make_bw_extension", "make_classical_switch",
        "make_methods_counterexample", "make_mix_example", "make_reduced_switch", "make_switch",
        "random_unitary_chain", "reduced_switch_causal_graph", "switch_causal_graph",
        "switch_decomposition", "verify_decomposition",
    ),
    "fileio": (
        "FORMAT_VERSION", "LoadedProcessFile", "ProcessFileError", "dict_to_process",
        "process_to_dict", "read_process_file", "write_process_file",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which binds the submodule here and which
    # ``python -X importtime`` lists (``importlib.import_module`` it does not)
    __import__(f"{__name__}.{module}")
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
