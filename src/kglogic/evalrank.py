"""Ranking harness: engine-backed scoring under labeling modes, filtered metrics.

Scores are binary, so ties are pervasive; ranks use the expected-rank
convention (uniform tie-breaking), which makes hit@k the probability that the
target lands within the top k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .checker import check_constant_free, model_check
from .compiler import compile_formula
from .engine import forward, init_features
from .errors import EvaluationError
from .formulas import FormulaArena, constants_in, diamond_depth, format_formula, parse
from .labeling import QUERY_CONSTANT, el_label, ground_constants, query_label
from .store import TripleStore
from .synthgen import SUPPORT_RELATIONS, SynthDataset, load_dataset, rule_text

LABELING_MODES = ("none", "query", "el")
DEFAULT_ERA_PAIR = ("top", "top", "and")


def _combine(combinator: str, b1: int, b2: int) -> int:
    if combinator == "and":
        return b1 & b2
    if combinator == "not-left":
        return 1 - b1
    if combinator == "or":
        return b1 | b2
    raise EvaluationError(f"unknown combinator {combinator!r}")


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
           forward hops from h.  Both labeled modes run the network once per
           grounding and score 1 on the union of the root column's entities.
    """
    if labeling_mode not in LABELING_MODES:
        raise EvaluationError(f"unknown labeling mode {labeling_mode!r}")
    h, _rel = query
    store.check_entity(h)

    if labeling_mode == "none":
        if formula is not None and constants_in(arena, formula):
            raise EvaluationError(
                "constant-bearing formula requires query or el labeling"
            )
        if era_pair is None:
            raise EvaluationError("labeling mode 'none' needs an era pair")
        g1, g2, combinator = era_pair
        check_constant_free(arena, g1, g2)
        b1 = model_check(store, arena, g1).bit(g1, h)
        g2_row = model_check(store, arena, g2).row_set(g2)
        return [
            _combine(combinator, b1, 1 if t in g2_row else 0)
            for t in range(store.n_entities)
        ]

    if formula is None:
        raise EvaluationError(f"labeling mode {labeling_mode!r} needs a formula")
    consts = constants_in(arena, formula)
    net = compile_formula(arena, formula)

    if labeling_mode == "query" and consts - {QUERY_CONSTANT}:
        extra = sorted(consts - {QUERY_CONSTANT})[0]
        raise EvaluationError(
            f"formula uses @{extra}; query labeling only binds @{QUERY_CONSTANT}"
        )
    # query labeling is entity labeling that labels nothing beyond h
    lab = query_label(h) if labeling_mode == "query" else el_label(store, d, h)
    depth = diamond_depth(arena, formula)
    groundings = ground_constants(consts, lab, store, within_depth_of=(h, depth))
    positives: set[int] = set()
    for binding in groundings:
        final = forward(store, net, init_features(store, net, binding))
        positives |= final.cols[net.out_index]
    return [1 if v in positives else 0 for v in range(store.n_entities)]


def rank_metrics(
    scores: Sequence,
    target: int,
    known_true: set[int],
    k_list: Sequence[int] = (1, 10),
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
    if target not in candidates:
        raise EvaluationError("target was filtered out of the candidate set")
    s = scores[target]
    better = sum(1 for v in candidates if scores[v] > s)
    tied = sum(1 for v in candidates if scores[v] == s)  # includes the target
    rank = better + (tied + 1) / 2
    hits = {}
    for k in k_list:
        hits[k] = 0.0 if better >= k else min(k - better, tied) / tied
    rr = sum(1.0 / (better + i) for i in range(1, tied + 1)) / tied
    return {
        "rank": rank,
        "hits": hits,
        "rr": rr,
        "better": better,
        "tied": tied,
        "n_candidates": len(candidates),
    }


@dataclass
class RankReport:
    """Per-query records plus aggregate filtered metrics."""

    mode: str
    degree: int
    formula_text: str
    k_list: tuple[int, ...]
    queries: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def hit_at(self, k: int) -> float:
        if not self.queries:
            return 0.0
        return sum(q["hits"][k] for q in self.queries) / len(self.queries)

    def mrr(self) -> float:
        if not self.queries:
            return 0.0
        return sum(q["rr"] for q in self.queries) / len(self.queries)

    def to_text(self) -> str:
        lines = [f"# mode={self.mode} degree={self.degree} formula={self.formula_text}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}={self.metadata[key]}")
        for k in self.k_list:
            lines.append(f"metric\thit@{k}\t{self.hit_at(k)!r}")
        lines.append(f"metric\tmrr\t{self.mrr()!r}")
        lines.append(f"metric\tqueries\t{len(self.queries)}")
        for q in self.queries:
            hit_cells = "\t".join(f"{q['hits'][k]!r}" for k in self.k_list)
            lines.append(
                f"query\t{q['h']}\t{q['rel']}\t{q['t']}\t{q['rank']!r}\t"
                f"{hit_cells}\t{q['rr']!r}"
            )
        return "\n".join(lines) + "\n"


MODE_TO_LABELING = {"era": "none", "ql": "query", "el": "el"}


def evaluate_queries(
    store: TripleStore,
    arena: FormulaArena,
    formula: Optional[int],
    mode: str,
    d: int,
    test_targets: Sequence[tuple[str, str, str]],
    all_targets: Sequence[tuple[str, str, str]],
    era_pair: Optional[tuple[int, int, str]] = None,
    k_list: tuple[int, ...] = (1, 10),
) -> RankReport:
    """Rank the test targets with the filtered protocol."""
    if mode not in MODE_TO_LABELING:
        raise EvaluationError(f"unknown mode {mode!r}")
    labeling_mode = MODE_TO_LABELING[mode]
    known: dict[tuple[str, str], set[int]] = {}
    for h, r, t in all_targets:
        known.setdefault((h, r), set()).add(store.entity_id(t))
    formula_text = format_formula(arena, formula) if formula is not None else "-"
    report = RankReport(mode=mode, degree=d, formula_text=formula_text, k_list=k_list)
    for h, r, t in test_targets:
        hid = store.entity_id(h)
        tid = store.entity_id(t)
        scores = score_query(
            store, arena, formula, labeling_mode, d, (hid, r), era_pair=era_pair
        )
        entry = rank_metrics(scores, tid, known[(h, r)], k_list)
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
