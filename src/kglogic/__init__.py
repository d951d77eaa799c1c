"""Exact, training-free knowledge-graph logic engine.

Counting-modal rules are parsed into a hash-consed arena, compiled into
integer message-passing networks, and executed bit-exactly over triple
stores; a direct model checker serves as the ground-truth oracle, color
refinement and unraveling trees provide indistinguishability checks, and a
synthetic benchmark generator plus a filtered ranking harness round out the
toolkit.

Importing the package loads no submodule: each public name below is imported
from its module the first time it is read (PEP 562), so a command pays only
for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_NAMES = {
    "bisim": "ColorMap UnravelNode canonical_form color_refine trees_isomorphic unravel",
    "checker": "OpCounter TruthTable check_sentence_pair model_check",
    "compiler": "CompiledNet compile_formula explain net_from_text net_to_text",
    "engine": "FeatureMatrix forward forward_lanes forward_rounds init_features readout",
    "errors": "EvaluationError FormulaSyntaxError KGLogicError TripleFileError",
    "evalrank": "RankReport evaluate_queries rank_metrics run_dataset score_queries "
    "score_query table2_run",
    "formulas": "FormulaArena canonical_formula constants_in diamond_depth "
    "enumerate_subformulas format_formula is_negation_free parse relations_in",
    "labeling": "Labeling el_label ground_constants ground_queries query_label",
    "store": "INVERSE_SUFFIX TripleStore augment_inverses load_store",
    "synthgen": "SUPPORT_RELATIONS U_QUERY_ONLY_TEXT SynthConfig SynthDataset "
    "gen_dataset load_dataset write_dataset",
}
# public name -> the module that defines it
_HOME = {
    name: module for module, names in _MODULE_NAMES.items() for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
