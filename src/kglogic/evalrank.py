"""Ranking harness: engine-backed scoring under labeling modes, filtered metrics.

Scores are binary, so ties are pervasive; ranks use the expected-rank
convention (uniform tie-breaking), which makes hit@k the probability that the
target lands within the top k.

A query's score is its positive set (the tails scoring 1), so its filtered
metrics cost O(|positives| + |known|) plus the reciprocal-rank sum over the
target's tie group, never an n-length score list.  Scoring runs a split's
groundings as the lanes of engine passes of at most PASS_LANES lanes each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable, Optional, Sequence

from .checker import check_constant_free, era_combinator, model_check
from .compiler import CompiledNet, compile_formula
from .engine import forward_lanes
from .errors import EvaluationError
from .formulas import FormulaArena, constants_in, diamond_depth, format_formula, parse
from .labeling import DEFAULT_ERA_PAIR, LABELING_MODES, MODE_TO_LABELING, QUERY_CONSTANT
from .labeling import Labeling, check_degree, el_label, ground_queries
from .store import TripleStore
from .synthgen import SUPPORT_RELATIONS, SynthDataset, load_dataset, rule_text

# lanes per engine pass; a query's lanes share one pass, so a query with more
# lanes than this runs alone.  Sized above the 3,600-4,300 lanes of a
# 600-instance U test split in el mode, so that split runs in one pass.
PASS_LANES = 8192
# the k of every hit@k that ranking reports
K_LIST = (1, 10)


def score_query(
    store: TripleStore,
    arena: FormulaArena,
    formula: Optional[int],
    labeling_mode: str,
    d: int,
    query: tuple[int, str],
    era_pair: Optional[tuple[int, int, str]] = None,
) -> list[int]:
    """Score every entity as a candidate tail for the query (h, relation).

    none:  combine constant-free head/tail formulas per the required era pair.
    query: one grounding, binding the query constant to h.
    el:    also bind out-degree-labeled constants; abstract constants range
           over the labeled entities within the formula's diamond depth of
           forward hops from h.  Both labeled modes score 1 on the union of
           the root column over the groundings (score_queries' lanes).
    """
    if labeling_mode not in LABELING_MODES:
        raise EvaluationError(f"unknown labeling mode {labeling_mode!r}")
    store.check_entity(query[0])
    positives = _positives(store, arena, formula, labeling_mode, d, [query], era_pair)
    return _dense(positives[0], store.n_entities)


def _dense(positives: set[int], n: int) -> list[int]:
    return [1 if v in positives else 0 for v in range(n)]


def _positives(
    store: TripleStore,
    arena: FormulaArena,
    formula: Optional[int],
    labeling_mode: str,
    d: int,
    queries: Sequence[tuple[int, str]],
    era_pair: Optional[tuple[int, int, str]],
) -> list[set[int]]:
    """The entities scoring 1 for each query (h, relation) under one mode.

    The labeled modes are score_queries.  In `none` mode both sentences are
    model-checked once, even for no queries, so that an invalid pair fails
    alike on every split; heads on the same side of g1 share one positive set.
    """
    if labeling_mode != "none":
        return score_queries(store, arena, formula, labeling_mode, d, queries)
    if formula is not None and constants_in(arena, formula):
        raise EvaluationError(
            "constant-bearing formula requires query or el labeling"
        )
    if era_pair is None:
        raise EvaluationError("labeling mode 'none' needs an era pair")
    g1, g2, combinator = era_pair
    check_constant_free(arena, g1, g2)
    g1_row = model_check(store, arena, g1).row_set(g1)
    g2_row = model_check(store, arena, g2).row_set(g2)
    combine = era_combinator(combinator)
    sides = [
        {t for t in range(store.n_entities) if combine(b1, 1 if t in g2_row else 0)}
        for b1 in (0, 1)
    ]
    return [sides[1 if h in g1_row else 0] for h, _rel in queries]


def score_queries(
    store: TripleStore,
    arena: FormulaArena,
    formula: Optional[int],
    labeling_mode: str,
    d: int,
    queries: Sequence[tuple[int, str]],
) -> list[set[int]]:
    """The entities scoring 1 for each query (h, relation), in lane passes.

    Every grounding of every query is one lane of a `forward_lanes` pass
    (query or el labeling, as in score_query); a query's positives are the
    entities whose root column holds in any of its lanes.  Consecutive queries
    share a pass while their lanes fit in PASS_LANES.  The EL labeling is
    built once for all queries.
    """
    if labeling_mode not in ("query", "el"):
        raise EvaluationError(
            f"score_queries needs query or el labeling, not {labeling_mode!r}"
        )
    if formula is None:
        raise EvaluationError(f"labeling mode {labeling_mode!r} needs a formula")
    heads = [h for h, _rel in queries]
    for h in heads:
        store.check_entity(h)
    consts = constants_in(arena, formula)
    if labeling_mode == "query" and consts - {QUERY_CONSTANT}:
        extra = sorted(consts - {QUERY_CONSTANT})[0]
        raise EvaluationError(
            f"formula uses @{extra}; query labeling only binds @{QUERY_CONSTANT}"
        )
    if labeling_mode == "el":
        check_degree(d)  # here too, as a split without queries returns early
    net = compile_formula(arena, formula)
    if not heads:
        return []
    # query labeling is entity labeling that labels nothing beyond h
    lab = Labeling() if labeling_mode == "query" else el_label(store, d, heads[0])
    groundings = ground_queries(consts, lab, store, heads, diamond_depth(arena, formula))
    # lane i binds @name to v when bit i of masks[name][v] is set; query q of
    # the pass owns lanes ends[q - 1] (0 for q = 0) up to ends[q]
    positives: list[set[int]] = []
    masks: dict[str, dict[int, int]] = {name: {} for name in consts}
    ends: list[int] = []
    lanes = 0
    for bindings in groundings:
        if lanes and lanes + len(bindings) > PASS_LANES:
            positives += _lane_pass(store, net, masks, ends)
            masks, ends, lanes = {name: {} for name in consts}, [], 0
        for binding in bindings:
            bit = 1 << lanes
            for name, v in binding.items():
                masks[name][v] = masks[name].get(v, 0) | bit
            lanes += 1
        ends.append(lanes)
    return positives + _lane_pass(store, net, masks, ends)


def _lane_pass(
    store: TripleStore,
    net: CompiledNet,
    masks: dict[str, dict[int, int]],
    ends: list[int],
) -> list[set[int]]:
    """The positives of each query of one forward_lanes pass."""
    owner: list[int] = []  # owner[i] is lane i's query
    for q, end in enumerate(ends):
        owner += [q] * (end - len(owner))
    root = forward_lanes(store, net, masks, len(owner))[net.out_index]
    positives: list[set[int]] = [set() for _ in ends]
    for v, mask in root.items():
        while mask:
            q = owner[(mask & -mask).bit_length() - 1]
            positives[q].add(v)
            mask &= -(1 << ends[q])  # drop q's other lanes
    return positives


def rank_metrics(
    scores: Sequence,
    target: int,
    known_true: set[int],
    k_list: Sequence[int] = K_LIST,
) -> dict:
    """Filtered expected-rank metrics for one query.

    Known-true tails other than the target are dropped from the candidate
    list.  With b candidates scoring strictly higher and a tie group of size
    g (target included), the target occupies positions b+1..b+g uniformly:
    rank is the mean position, hit@k the probability of landing within k, and
    the reciprocal rank is averaged over the group.
    """
    n = len(scores)
    if not 0 <= target < n:
        raise EvaluationError(f"target {target} outside the score vector")
    candidates = [v for v in range(n) if v == target or v not in known_true]
    s = scores[target]
    better = sum(1 for v in candidates if scores[v] > s)
    tied = sum(1 for v in candidates if scores[v] == s)  # includes the target
    return _metrics(better, tied, len(candidates), k_list)


def _sparse_metrics(
    positives: set[int],
    target: int,
    known_true: set[int],
    n: int,
    k_list: Sequence[int],
    rr_memo: Optional[dict[tuple[int, int], float]] = None,
) -> dict:
    """rank_metrics(_dense(positives, n), target, known_true, k_list), from
    the sets alone: O(|known_true|) plus the reciprocal-rank sum.

    Filtering drops the known tails other than the target, K; a positive
    target ties with the other unfiltered positives, and a negative one ranks
    below them and ties with every other candidate.
    """
    filtered = len(known_true) - (target in known_true)  # |K|
    hidden = sum(1 for v in known_true if v != target and v in positives)
    unfiltered = len(positives) - hidden  # |positives - K|
    n_candidates = n - filtered
    if target in positives:
        return _metrics(0, unfiltered, n_candidates, k_list, rr_memo)
    return _metrics(
        unfiltered, n_candidates - unfiltered, n_candidates, k_list, rr_memo
    )


def _sum_left(values: Iterable[float]) -> float:
    """The floats added left to right: from Python 3.12 on, `sum` compensates
    float rounding, which changes the last digit of reported metrics."""
    return reduce(add, values, 0.0)


def _metrics(
    better: int,
    tied: int,
    n_candidates: int,
    k_list: Sequence[int],
    rr_memo: Optional[dict[tuple[int, int], float]] = None,
) -> dict:
    """The metrics of a target tied with `tied` candidates (itself included)
    below `better` others: it lands on positions better+1..better+tied
    uniformly.  The reciprocal rank is summed only for a pair that `rr_memo`
    does not hold yet, and kept there."""
    rank = better + (tied + 1) / 2
    hits = {}
    for k in k_list:
        hits[k] = 0.0 if better >= k else min(k - better, tied) / tied
    memo = {} if rr_memo is None else rr_memo
    if (better, tied) not in memo:
        total = _sum_left(1.0 / (better + i) for i in range(1, tied + 1))
        memo[better, tied] = total / tied
    rr = memo[better, tied]
    return {
        "rank": rank,
        "hits": hits,
        "rr": rr,
        "better": better,
        "tied": tied,
        "n_candidates": n_candidates,
    }


@dataclass
class RankReport:
    """Per-query records plus aggregate filtered metrics."""

    mode: str
    degree: int
    formula_text: str
    queries: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def hit_at(self, k: int) -> float:
        if not self.queries:
            return 0.0
        return _sum_left(q["hits"][k] for q in self.queries) / len(self.queries)

    def mrr(self) -> float:
        if not self.queries:
            return 0.0
        return _sum_left(q["rr"] for q in self.queries) / len(self.queries)

    def to_text(self) -> str:
        lines = [f"# mode={self.mode} degree={self.degree} formula={self.formula_text}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}={self.metadata[key]}")
        for k in K_LIST:
            lines.append(f"metric\thit@{k}\t{self.hit_at(k)!r}")
        lines.append(f"metric\tmrr\t{self.mrr()!r}")
        lines.append(f"metric\tqueries\t{len(self.queries)}")
        for q in self.queries:
            hit_cells = "\t".join(f"{q['hits'][k]!r}" for k in K_LIST)
            lines.append(
                f"query\t{q['h']}\t{q['rel']}\t{q['t']}\t{q['rank']!r}\t"
                f"{hit_cells}\t{q['rr']!r}"
            )
        return "\n".join(lines) + "\n"


def evaluate_queries(
    store: TripleStore,
    arena: FormulaArena,
    formula: Optional[int],
    mode: str,
    d: int,
    test_targets: Sequence[tuple[str, str, str]],
    all_targets: Sequence[tuple[str, str, str]],
    era_pair: Optional[tuple[int, int, str]] = None,
) -> RankReport:
    """Rank the test targets with the filtered protocol."""
    if mode not in MODE_TO_LABELING:
        raise EvaluationError(f"unknown mode {mode!r}")
    known: dict[tuple[str, str], set[int]] = {}
    for h, r, t in all_targets:
        known.setdefault((h, r), set()).add(store.entity_id(t))
    formula_text = format_formula(arena, formula) if formula is not None else "-"
    report = RankReport(mode=mode, degree=d, formula_text=formula_text)
    queries = [(store.entity_id(h), r) for h, r, _ in test_targets]
    all_positives = _positives(
        store, arena, formula, MODE_TO_LABELING[mode], d, queries, era_pair
    )
    # era queries on one side of g1 share one (better, tied) pair, and its
    # O(tied) reciprocal-rank sum is done once per call
    rr_memo: dict[tuple[int, int], float] = {}
    for (h, r, t), positives in zip(test_targets, all_positives):
        known_true = known.get((h, r), set())
        entry = _sparse_metrics(
            positives, store.entity_id(t), known_true, store.n_entities, K_LIST,
            rr_memo,
        )
        entry.update({"h": h, "rel": r, "t": t})
        report.queries.append(entry)
    return report


def table2_run(
    dataset_dir,
    mode: str,
    d: int = 1,
    era_pair_texts: Optional[tuple[str, str, str]] = None,
) -> RankReport:
    """Evaluate a generated dataset's test split under one mode."""
    dataset = load_dataset(dataset_dir)
    return run_dataset(dataset, mode, d, era_pair_texts, label=str(dataset_dir))


def run_dataset(
    dataset: SynthDataset,
    mode: str,
    d: int = 1,
    era_pair_texts: Optional[tuple[str, str, str]] = None,
    label: str = "-",
) -> RankReport:
    kind = dataset.config.get("relation")
    if kind not in SUPPORT_RELATIONS:
        raise EvaluationError(f"dataset has unknown relation kind {kind!r}")
    rels = {r for _, r, _, _ in dataset.targets}
    if rels and rels != {kind}:
        raise EvaluationError(
            f"dataset/relation mismatch: config says {kind!r}, targets use "
            f"{sorted(rels)}"
        )
    arena = FormulaArena()
    formula = None if mode == "era" else parse(rule_text(kind, mode), arena)
    era_pair = None
    texts = era_pair_texts or DEFAULT_ERA_PAIR
    if mode == "era":
        era_pair = (parse(texts[0], arena), parse(texts[1], arena), texts[2])
    all_targets = [(h, r, t) for h, r, t, _ in dataset.targets]
    report = evaluate_queries(
        dataset.store,
        arena,
        formula,
        mode,
        d,
        dataset.targets_for("test"),
        all_targets,
        era_pair=era_pair,
    )
    report.metadata.update({"dataset": label})
    for key in sorted(dataset.config):
        report.metadata[f"config.{key}"] = dataset.config[key]
    if mode == "era":
        report.metadata["era_pair"] = f"{texts[0]} | {texts[1]} | {texts[2]}"
    return report
