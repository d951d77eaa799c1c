"""Synthetic benchmark generation: rule structures, adversarial noise, splits.

Each instance is a fresh vertex-disjoint copy of one structure in `_RULES`:

    C:  h -R1-> z1 -R2-> z2 -R3-> t                       target C(h, t)
    I:  the C chain plus w1 -R4-> z2 and w2 -R4-> z2      target I(h, t)
    U:  h -R1-> c, c -R2-> z2, z2 -R4-> t,
        c -R3-> z3, z3 -R5-> t                            target U(h, t)

With decoys enabled (U only), each instance also gets the split twin
h -R1-> c1 -R2-> z2' -R4-> t' and h -R1-> c2 -R3-> z3' -R5-> t' with no
target at t'; the twin's tail is indistinguishable from t for any evaluator
that only sees the query constant.

Noise triples reuse the instance relations over the whole entity pool and are
rejected whenever they would give any instance head a satisfying tail beyond
the intended ones.  Generation is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .checker import model_check
from .errors import EvaluationError, KGLogicError, TripleFileError
from .formulas import (
    CHAIN_TEXT, I_TEXT, UPRIME_TEXT, And, Const, Diamond, FormulaArena, Pred, Top,
    enumerate_subformulas, parse,
)
from .store import TripleStore, load_store, parse_tsv, read_text

# Query-constant-only approximant of the U rule: both branch chains, fork
# unpinned.  Satisfied at the decoy tail too, by design.
U_QUERY_ONLY_TEXT = "(<R4>=1 <R2>=1 <R1>=1 @h & <R5>=1 <R3>=1 <R1>=1 @h)"

_MAX_ATTEMPTS_PER_NOISE = 200


@dataclass(frozen=True)
class SynthConfig:
    relation_kind: str
    n_instances: int = 100
    noise_triples: Optional[int] = None  # None: twice the support count
    seed: int = 0
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    decoys: bool = False

    def validate(self) -> None:
        if self.relation_kind not in _RULES:
            raise EvaluationError(
                f"relation kind must be one of {', '.join(_RULES)}, "
                f"got {self.relation_kind!r}"
            )
        if self.n_instances < 0:
            raise EvaluationError("n_instances must be >= 0")
        if self.noise_triples is not None and self.noise_triples < 0:
            raise EvaluationError("noise_triples must be >= 0")
        # written as negated comparisons so that NaN fails them too
        if len(self.split) != 3 or any(not f >= 0 for f in self.split):
            raise EvaluationError("split must be three non-negative fractions")
        if not abs(sum(self.split) - 1.0) <= 1e-9:
            raise EvaluationError("split fractions must sum to 1")
        if self.decoys and not _RULES[self.relation_kind].decoy[0]:
            raise EvaluationError(f"relation {self.relation_kind} has no decoys")


@dataclass
class _Instance:
    index: int
    roles: dict[str, str]  # role -> entity, in template (noise pool) order
    support: list[tuple[str, str, str]]
    expected: tuple[set[str], ...]  # per check: the only tails it may hold at


@dataclass
class SynthDataset:
    store: TripleStore
    targets: list[tuple[str, str, str, str]]  # (head, relation, tail, split)
    ground: list[tuple[int, str, str]]  # (instance, entity, role)
    config: dict = field(default_factory=dict)

    def targets_for(self, split: str) -> list[tuple[str, str, str]]:
        return [(h, r, t) for h, r, t, s in self.targets if s == split]


class _Adjacency:
    """Name-keyed adjacency used only during noise rejection.

    succ[R][v] and pred[R][v] list v's R-successors and R-predecessors in
    the order their edges were added, with set semantics: add skips an edge
    already present and returns whether it added the edge, and remove of an
    absent edge does nothing.  It is noise rejection's one edge set, and
    lists keep it small: most groups hold one name, and a group starts as a
    one-slot list of 64 bytes, where an appended-to empty list takes 88 and
    a set 216.  pred keeps groups only for the relations in `pred_relations`
    (every relation when it is None).
    """

    def __init__(self, pred_relations: Optional[set[str]] = None):
        self.succ: dict[str, dict[str, list[str]]] = {}
        self.pred: dict[str, dict[str, list[str]]] = {}
        self._pred_relations = pred_relations

    def add(self, h: str, r: str, t: str) -> bool:
        if t in self.out(r, h):
            return False
        _append(self.succ.setdefault(r, {}), h, t)
        if self._pred_relations is None or r in self._pred_relations:
            _append(self.pred.setdefault(r, {}), t, h)
        return True

    def remove(self, h: str, r: str, t: str) -> None:
        ts = self.out(r, h)
        if t in ts:
            ts.remove(t)
            if r in self.pred:  # add made the group if r keeps them
                self.pred[r][t].remove(h)

    def out(self, r: str, v: str) -> Sequence[str]:
        return self.succ.get(r, {}).get(v, ())

    def outs(self, r: str, vs) -> set[str]:
        result: set[str] = set()
        for v in vs:
            result.update(self.out(r, v))
        return result

    def in_count(self, r: str, v: str) -> int:
        return len(self.pred.get(r, {}).get(v, ()))


def _append(groups: dict[str, list[str]], key: str, value: str) -> None:
    if key in groups:
        groups[key].append(value)
    else:
        groups[key] = [value]


# Fast tail evaluators: the tails a check's formula holds at from head h,
# united over all values of its other constants.  They code the rules a third
# time because noise rejection runs them per affected head, 2,895 times for
# gen U 500 --decoys seed 1: model_check takes 133-149 us a head there (Uprime
# over each R1-successor as @c, plus the query-only rule) on a finished store,
# these 17-23 us, so it would add about 0.35 s to a 0.3 s run (Python 3.11,
# 2-vCPU Xeon), before keeping a store in step with the adjacency.
# A property test checks each one against the model checker.


def _chain_tails(adj: _Adjacency, h: str) -> set[str]:
    return adj.outs("R3", adj.outs("R2", adj.out("R1", h)))


def _i_tails(adj: _Adjacency, h: str) -> set[str]:
    z2s = adj.outs("R2", adj.out("R1", h))
    hubs = {z for z in z2s if adj.in_count("R4", z) >= 2}
    return adj.outs("R3", hubs)


def _u_fork_tails(adj: _Adjacency, h: str) -> set[str]:
    # Tails reachable along both branches through one shared fork.
    tails: set[str] = set()
    for c in adj.out("R1", h):
        left = adj.outs("R4", adj.out("R2", c))
        right = adj.outs("R5", adj.out("R3", c))
        tails |= left & right
    return tails


def _u_query_only_tails(adj: _Adjacency, h: str) -> set[str]:
    forks = adj.out("R1", h)
    left = adj.outs("R4", adj.outs("R2", forks))
    right = adj.outs("R5", adj.outs("R3", forks))
    return left & right


class _Check(NamedTuple):
    text: str
    binding: tuple[tuple[str, str], ...]  # (constant, role) in ground truth
    tails: Callable[[_Adjacency, str], set[str]]  # fast evaluator
    expected: tuple[str, ...]  # tail roles; those an instance lacks are skipped


class _Rule(NamedTuple):
    roles: tuple[tuple[str, str], ...]  # (entity suffix, role), head first
    edges: tuple[tuple[str, str, str], ...]  # support edges over the suffixes
    el: _Check  # the rule entity labeling ranks with
    ql: _Check  # the rule query labeling ranks with
    decoy: tuple[tuple, tuple] = ((), ())  # (roles, edges) added with decoys


# The rule catalogue: every per-kind decision derives from it.  Role order is
# the noise pool order, which drives every rng draw.
_HEAD = (("h", "head"),)
_CHAIN = _Check(CHAIN_TEXT, _HEAD, _chain_tails, ("tail",))
_HUB = _Check(I_TEXT, _HEAD, _i_tails, ("tail",))
_RULES = {
    "C": _Rule(
        (("h", "head"), ("z1", "z1"), ("z2", "z2"), ("t", "tail")),
        (("h", "R1", "z1"), ("z1", "R2", "z2"), ("z2", "R3", "t")),
        el=_CHAIN, ql=_CHAIN,
    ),
    "I": _Rule(
        (("h", "head"), ("z1", "z1"), ("z2", "z2"), ("t", "tail"), ("w1", "w1"),
         ("w2", "w2")),
        (("h", "R1", "z1"), ("z1", "R2", "z2"), ("z2", "R3", "t"),
         ("w1", "R4", "z2"), ("w2", "R4", "z2")),
        el=_HUB, ql=_HUB,
    ),
    "U": _Rule(
        (("h", "head"), ("c", "fork"), ("z2", "z2"), ("z3", "z3"), ("t", "tail")),
        (("h", "R1", "c"), ("c", "R2", "z2"), ("z2", "R4", "t"),
         ("c", "R3", "z3"), ("z3", "R5", "t")),
        el=_Check(UPRIME_TEXT, _HEAD + (("c", "fork"),), _u_fork_tails, ("tail",)),
        ql=_Check(
            U_QUERY_ONLY_TEXT, _HEAD, _u_query_only_tails, ("tail", "decoy_tail")
        ),
        decoy=(
            (("dc1", "decoy_fork_r2"), ("dz2", "decoy_z2"), ("dt", "decoy_tail"),
             ("dc2", "decoy_fork_r3"), ("dz3", "decoy_z3")),
            (("h", "R1", "dc1"), ("dc1", "R2", "dz2"), ("dz2", "R4", "dt"),
             ("h", "R1", "dc2"), ("dc2", "R3", "dz3"), ("dz3", "R5", "dt")),
        ),
    ),
}

SUPPORT_RELATIONS = {
    kind: tuple(sorted({r for _, r, _ in rule.edges + rule.decoy[1]}))
    for kind, rule in _RULES.items()
}


def rule_text(kind: str, mode: str) -> str:
    """The formula ranking mode `mode` ("ql" or "el") scores relation `kind` with."""
    rule = _RULES[kind]
    return (rule.ql if mode == "ql" else rule.el).text


def _build_instance(kind: str, index: int, decoys: bool, checks) -> _Instance:
    rule = _RULES[kind]
    roles, edges = rule.roles, rule.edges
    if decoys:
        roles, edges = roles + rule.decoy[0], edges + rule.decoy[1]
    p = f"{kind.lower()}{index}_"
    by_role = {role: p + suffix for suffix, role in roles}
    expected = tuple(
        {by_role[r] for r in check.expected if r in by_role} for check in checks
    )
    return _Instance(index, by_role, [(p + u, r, p + w) for u, r, w in edges], expected)


# A walk is (endpoint, path): from the new edge's source "u" or target "w",
# back along each relation of `path` in turn, through adj.pred.
_Walk = tuple[str, tuple[str, ...]]


def _back_walks(
    arena: FormulaArena, roots, head: str
) -> Optional[dict[str, tuple[_Walk, ...]]]:
    """Per relation R, the walks from a new edge (u, R, w) that reach every
    head whose tails under the formulas `roots` the edge can change.

    One bottom-up pass.  anchor[f] is the set of relation paths from @head on
    which every entity satisfying f lies: @head has {()}, <R>=N g extends
    anchor[g] by R, and & takes an anchored side.  The edge can change
    <R>=N g only at w and only when u satisfies g, so an anchored g walks back
    from u.  An unanchored count over an edge-free operand (I's <R4>=2 top)
    changes only at w; as a conjunct of an anchored formula it matters only
    where w satisfies that sibling, so it walks back from w along the
    sibling's paths.  Any other shape (!, |, an unanchored count under a
    diamond or not under such a conjunction) returns None.  These walks are
    noise rejection's only way to find affected heads, so a catalogue rule
    must derive a table (tests pin each kind's).
    """
    anchor: dict[int, frozenset] = {}  # anchored subformulas only
    edge_free: set[int] = set()  # no diamond and unanchored
    counts: set[int] = set()  # unanchored counts over an edge-free operand
    walks: dict[str, set[_Walk]] = {}

    def add(relation, end, paths):
        walks.setdefault(relation, set()).update((end, p[::-1]) for p in paths)

    subformulas = set()
    for root in roots:
        subformulas.update(enumerate_subformulas(arena, root))
    for fid in sorted(subformulas):
        node = arena.node(fid)
        if isinstance(node, Const) and node.name == head:
            anchor[fid] = frozenset({()})
        elif isinstance(node, (Top, Pred, Const)):
            edge_free.add(fid)
        elif isinstance(node, Diamond) and node.sub in anchor:
            add(node.relation, "u", anchor[node.sub])
            anchor[fid] = frozenset(p + (node.relation,) for p in anchor[node.sub])
        elif isinstance(node, Diamond) and node.sub in edge_free:
            counts.add(fid)
        elif isinstance(node, And):
            sides = (node.left, node.right)
            anchored = [s for s in sides if s in anchor]
            if anchored:
                anchor[fid] = anchor[anchored[0]]
                for side in sides:
                    if side in counts:
                        add(arena.node(side).relation, "w", anchor[anchored[0]])
            elif all(s in edge_free for s in sides):
                edge_free.add(fid)
            else:
                return None
        else:
            return None
    if any(root in counts for root in roots):
        return None
    return {r: tuple(sorted(ws)) for r, ws in sorted(walks.items())}


def _affected_heads(
    adj: _Adjacency,
    endpoints: tuple[str, str],
    heads: dict[str, _Instance],
    walks: tuple[_Walk, ...],
) -> list[_Instance]:
    """The heads whose tails a new edge between `endpoints` can change: those
    that `walks`, _back_walks' entry for the edge's relation, reach, in no
    particular order."""
    reached: set[str] = set()
    start = dict(zip("uw", endpoints))
    for end, path in walks:
        frontier = {start[end]}
        for r in path:
            pred = adj.pred.get(r, {})
            frontier = {p for v in frontier for p in pred.get(v, ())}
        reached |= frontier
    return [heads[v] for v in reached if v in heads]


def _draw_noise(
    rng: random.Random, kind: str, instances: list[_Instance], budget: int, checks,
    walks: dict[str, tuple[_Walk, ...]],
) -> list[tuple[str, str, str]]:
    """`budget` noise triples over the instances' entities, each resampled
    until it changes no instance head's tails under `checks`.

    The adjacency holds exactly the support and the accepted noise, since a
    rejected edge is removed again, so it is also the duplicate test.  It
    and the head map live only in this call: the caller builds and verifies
    the store after they are freed.  Predecessor groups are kept only for
    the relations a walk steps back along, and for those counted at a new
    edge's target (keyed with a walk from "w"): no other group is read.
    """
    stepped = {r for ws in walks.values() for _end, path in ws for r in path}
    counted = {rel for rel, ws in walks.items() if any(e == "w" for e, _ in ws)}
    adj = _Adjacency(stepped | counted)
    heads = {inst.roles["head"]: inst for inst in instances}
    pool: list[str] = []
    for inst in instances:
        pool.extend(inst.roles.values())
        for h, r, t in inst.support:
            adj.add(h, r, t)
    if budget > 0 and not pool:
        raise KGLogicError("cannot generate noise for an empty dataset")
    relations = SUPPORT_RELATIONS[kind]
    noise: list[tuple[str, str, str]] = []
    for _ in range(budget):
        for _attempt in range(_MAX_ATTEMPTS_PER_NOISE):
            u = pool[rng.randrange(len(pool))]
            rel = relations[rng.randrange(len(relations))]
            w = pool[rng.randrange(len(pool))]
            if not adj.add(u, rel, w):
                continue
            bad = any(
                check.tails(adj, inst.roles["head"]) != want
                for inst in _affected_heads(adj, (u, w), heads, walks.get(rel, ()))
                for check, want in zip(checks, inst.expected)
            )
            if bad:
                adj.remove(u, rel, w)
                continue
            noise.append((u, rel, w))
            break
        else:
            raise KGLogicError(
                "noise rejection budget exhausted; use fewer noise triples"
            )
    return noise


def gen_dataset(cfg: SynthConfig) -> SynthDataset:
    """Generate a dataset per the config; byte-deterministic in the seed."""
    cfg.validate()
    kind = cfg.relation_kind
    rng = random.Random(cfg.seed)
    arena = FormulaArena()
    rule = _RULES[kind]
    checks = tuple(dict.fromkeys((rule.el, rule.ql)))  # el once when ql is el
    formulas = [parse(check.text, arena) for check in checks]
    walks = _back_walks(arena, formulas, _HEAD[0][0])

    instances = [
        _build_instance(kind, i, cfg.decoys, checks) for i in range(cfg.n_instances)
    ]
    support = [triple for inst in instances for triple in inst.support]
    noise_budget = (
        cfg.noise_triples if cfg.noise_triples is not None else 2 * len(support)
    )
    # the noise list is freed once the store is built, ahead of verification
    store = TripleStore(
        chain(support, _draw_noise(rng, kind, instances, noise_budget, checks, walks))
    )
    ground = [
        (inst.index, e, role) for inst in instances for role, e in inst.roles.items()
    ]

    order = list(range(cfg.n_instances))
    rng.shuffle(order)
    n_train = round(cfg.split[0] * cfg.n_instances)
    n_valid = round(cfg.split[1] * cfg.n_instances)
    targets: list[tuple[str, str, str, str]] = []
    for pos, idx in enumerate(order):
        split = "train" if pos < n_train else (
            "valid" if pos < n_train + n_valid else "test"
        )
        inst = instances[idx]
        targets.append((inst.roles["head"], kind, inst.roles["tail"], split))

    config = {
        "relation": kind,
        "instances": cfg.n_instances,
        "noise_triples": noise_budget,
        "seed": cfg.seed,
        "split": ",".join(repr(f) for f in cfg.split),
        "decoys": int(cfg.decoys),
        "support_triples": len(support),
        "entities": store.n_entities,
    }
    _verify_dataset(store, instances, arena, checks, formulas)
    return SynthDataset(store, targets, ground, config)


def _verify_dataset(store, instances, arena, checks, formulas) -> None:
    """Cross-check the generator's incremental bookkeeping with the model checker.

    Constant-free rows (I's top and <R4>=2 top) are the same for every
    instance, so they are evaluated once and shared, which keeps this linear
    in the instance count.
    """
    shared: dict[int, set[int]] = {}
    for inst in instances:
        for check, fid, want in zip(checks, formulas, inst.expected):
            binding = {c: store.entity_id(inst.roles[r]) for c, r in check.binding}
            table = model_check(store, arena, fid, binding, shared=shared)
            got = {store.entity_name(v) for v in table.row_set(fid)}
            if got != want:
                raise KGLogicError(
                    f"instance {inst.index}: {check.text} holds at {sorted(got)}, "
                    f"expected {sorted(want)}"
                )


def write_dataset(dataset: SynthDataset, outdir) -> None:
    """Write triples.tsv, targets_{train,valid,test}.tsv, ground.tsv, config.txt."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "triples.tsv").write_text(dataset.store.to_triples_text())
    for split in ("train", "valid", "test"):
        lines = [
            f"{h}\t{r}\t{t}" for h, r, t in dataset.targets_for(split)
        ]
        (out / f"targets_{split}.tsv").write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
    lines = [f"{i}\t{e}\t{role}" for i, e, role in dataset.ground]
    (out / "ground.tsv").write_text("\n".join(lines) + ("\n" if lines else ""))
    cfg_lines = [f"{k}={dataset.config[k]}" for k in sorted(dataset.config)]
    (out / "config.txt").write_text("\n".join(cfg_lines) + "\n")


def load_dataset(datadir) -> SynthDataset:
    """Read a directory produced by write_dataset."""
    path = Path(datadir)
    store = load_store(read_text(path / "triples.tsv"))
    targets: list[tuple[str, str, str, str]] = []
    for split in ("train", "valid", "test"):
        name = f"targets_{split}.tsv"
        for h, r, t in parse_tsv(read_text(path / name), 3, name):
            targets.append((h, r, t, split))
    ground_rows = parse_tsv(read_text(path / "ground.tsv"), 3, "ground.tsv")
    ground = [
        (_int_field("ground.tsv", "instance index", idx), e, role)
        for idx, e, role in ground_rows
    ]
    config: dict = {}
    for line in read_text(path / "config.txt").split("\n"):
        if not line:
            continue
        key, _, value = line.partition("=")
        config[key] = value
    for key in ("instances", "noise_triples", "seed", "decoys", "support_triples",
                "entities"):
        if key in config:
            config[key] = _int_field("config.txt", key, config[key])
    return SynthDataset(store, targets, ground, config)


def _int_field(filename: str, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TripleFileError(
            f"{filename}: {what} {text!r} is not an integer"
        ) from None
