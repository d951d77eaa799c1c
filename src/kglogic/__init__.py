"""Exact, training-free knowledge-graph logic engine.

Counting-modal rules are parsed into a hash-consed arena, compiled into
integer message-passing networks, and executed bit-exactly over triple
stores; a direct model checker serves as the ground-truth oracle, color
refinement and unraveling trees provide indistinguishability checks, and a
synthetic benchmark generator plus a filtered ranking harness round out the
toolkit.
"""

from .bisim import ColorMap, UnravelNode, canonical_form, color_refine, trees_isomorphic, unravel
from .checker import OpCounter, TruthTable, check_sentence_pair, model_check
from .compiler import CompiledNet, compile_formula, explain, net_from_text, net_to_text
from .engine import (
    FeatureMatrix,
    forward,
    forward_lanes,
    forward_rounds,
    init_features,
    readout,
)
from .errors import EvaluationError, FormulaSyntaxError, KGLogicError, TripleFileError
from .evalrank import (
    RankReport,
    evaluate_queries,
    rank_metrics,
    run_dataset,
    score_queries,
    score_query,
    table2_run,
)
from .formulas import (
    FormulaArena,
    canonical_formula,
    constants_in,
    diamond_depth,
    enumerate_subformulas,
    format_formula,
    is_negation_free,
    parse,
    relations_in,
)
from .labeling import Labeling, el_label, ground_constants, ground_queries, query_label
from .store import INVERSE_SUFFIX, TripleStore, augment_inverses, load_store
from .synthgen import (
    SUPPORT_RELATIONS,
    U_QUERY_ONLY_TEXT,
    SynthConfig,
    SynthDataset,
    gen_dataset,
    load_dataset,
    write_dataset,
)

__version__ = "0.1.0"
