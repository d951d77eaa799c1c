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
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .checker import model_check
from .errors import EvaluationError, KGLogicError, TripleFileError
from .formulas import (
    CHAIN_TEXT, I_TEXT, UPRIME_TEXT, And, Const, Diamond, FormulaArena, Pred, Top,
    parse,
)
from .labeling import QUERY_CONSTANT
from .store import TripleStore, load_store, parse_tsv, read_text, write_files

# Query-constant-only approximant of the U rule: both branch chains, fork
# unpinned.  Satisfied at the decoy tail too, by design.
U_QUERY_ONLY_TEXT = "(<R4>=1 <R2>=1 <R1>=1 @h & <R5>=1 <R3>=1 <R1>=1 @h)"

_MAX_ATTEMPTS_PER_NOISE = 200


class SynthConfig(NamedTuple):
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


class _Instance:
    def __init__(
        self, index: int, roles: dict[str, int], support: list[tuple[int, str, int]],
        expected: tuple[set[int], ...],
    ):
        self.index, self.support = index, support
        self.roles = roles  # role -> entity id, in template (noise pool) order
        self.expected = expected  # per check: the only tails it may hold at


class SynthDataset:
    def __init__(
        self, store: TripleStore, targets: list[tuple[str, str, str, str]],
        ground: list[tuple[int, str, str]], config: Optional[dict] = None,
    ):
        # targets: (head, relation, tail, split); ground: (instance, entity, role)
        self.store, self.targets, self.ground = store, targets, ground
        self.config = {} if config is None else config

    def targets_for(self, split: str) -> list[tuple[str, str, str]]:
        return [(h, r, t) for h, r, t, s in self.targets if s == split]


class _Adjacency:
    """Adjacency over entity ids 0..n-1, used only during noise rejection.

    succ[R][v] and pred[R][v] list v's R-successors and R-predecessors in
    the order their edges were added, with set semantics: add skips an edge
    already present and returns whether it added the edge, and remove of an
    absent edge does nothing.  The shared () marks a missing group.  Readers
    index succ and pred directly; only add and remove change them.
    created[R] maps the heads of R's successor groups to the groups in
    creation order, which a store reading the kept edges in the order they
    were added gives them; a successor group that remove empties goes back
    to () and leaves it.  It is noise rejection's one edge set, and lists
    keep it small: a relation takes an 8-byte slot per entity, and a group
    starts as a one-slot list of 64 bytes, where an appended-to empty list
    takes 88 and a set 216.  pred keeps groups only for the relations in
    `pred_relations` (every relation when it is None).
    """

    def __init__(self, n: int, relations: Sequence[str], pred_relations=None):
        kept = relations if pred_relations is None else pred_relations
        self.succ: dict[str, list] = {r: [()] * n for r in relations}
        self.pred: dict[str, list] = {r: [()] * n for r in relations if r in kept}
        self.created: dict[str, dict[int, list[int]]] = {r: {} for r in relations}

    def add(self, h: int, r: str, t: int) -> bool:
        by_head = self.succ[r]
        tails = by_head[h]
        if not tails:
            by_head[h] = self.created[r][h] = [t]
        elif t in tails:
            return False
        else:
            tails.append(t)
        by_tail = self.pred.get(r)
        if by_tail is not None:
            heads = by_tail[t]
            if heads:
                heads.append(h)
            else:
                by_tail[t] = [h]
        return True

    def remove(self, h: int, r: str, t: int) -> None:
        by_head = self.succ[r]
        tails = by_head[h]
        if t in tails:
            if len(tails) == 1:
                by_head[h] = ()
                del self.created[r][h]
            else:
                tails.remove(t)
            if r in self.pred:  # add made the group if r keeps them
                self.pred[r][t].remove(h)


# Fast tail evaluators: the tails a check's formula holds at from head h,
# united over all values of its other constants.  They code the rules a third
# time because noise rejection runs them per affected head, 2,895 times for
# gen U 500 --decoys seed 1: model_check takes 45-80 us a head there (Uprime
# over each R1-successor as @c, plus the query-only rule) on a finished store,
# these 8-15 us, so it would more than double a 0.07-0.10 s run (Python 3.11,
# shared 2-vCPU Xeon), before keeping a store in step with the adjacency.
# A property test checks each one against the model checker.


def _chain_tails(adj: _Adjacency, h: int) -> set[int]:
    r2, r3 = adj.succ["R2"], adj.succ["R3"]
    return {t for w1 in adj.succ["R1"][h] for z in r2[w1] for t in r3[z]}


def _i_tails(adj: _Adjacency, h: int) -> set[int]:
    s, r4_in = adj.succ, adj.pred["R4"]
    r2, r3 = s["R2"], s["R3"]
    hubs = {z for w1 in s["R1"][h] for z in r2[w1] if len(r4_in[z]) >= 2}
    return {t for z in hubs for t in r3[z]}


def _u_fork_tails(adj: _Adjacency, h: int) -> set[int]:
    # Tails reachable along both branches through one shared fork.
    s = adj.succ
    r2, r3, r4, r5 = s["R2"], s["R3"], s["R4"], s["R5"]
    tails: set[int] = set()
    for c in s["R1"][h]:
        left, right = set(), set()
        for z in r2[c]:
            left.update(r4[z])
        for z in r3[c]:
            right.update(r5[z])
        tails |= left & right
    return tails


def _u_query_only_tails(adj: _Adjacency, h: int) -> set[int]:
    s = adj.succ
    r2, r3, r4, r5 = s["R2"], s["R3"], s["R4"], s["R5"]
    forks = s["R1"][h]
    left = {t for c in forks for z in r2[c] for t in r4[z]}
    right = {t for c in forks for z in r3[c] for t in r5[z]}
    return left & right


class _Check(NamedTuple):
    text: str
    binding: tuple[tuple[str, str], ...]  # (constant, role) in ground truth
    tails: Callable[[_Adjacency, int], set[int]]  # fast evaluator
    expected: tuple[str, ...]  # tail roles; those an instance lacks are skipped


class _Rule(NamedTuple):
    roles: tuple[tuple[str, str], ...]  # (entity suffix, role), head first
    edges: tuple[tuple[str, str, str], ...]  # support edges over the suffixes
    el: _Check  # the rule entity labeling ranks with
    ql: _Check  # the rule query labeling ranks with
    decoy: tuple[tuple, tuple] = ((), ())  # (roles, edges) added with decoys


# The rule catalogue: every per-kind decision derives from it.  Role order is
# the noise pool order, which drives every rng draw.
_HEAD = ((QUERY_CONSTANT, "head"),)
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


def _build_instances(cfg: SynthConfig, checks):
    """The instances, and the entity and relation names, numbered as a store
    reads the support rows in turn, head then tail.  Every role lies on a
    support edge, and every relation noise draws labels one (tests pin both)."""
    kind, n = cfg.relation_kind, cfg.n_instances
    rule = _RULES[kind]
    roles, edges = rule.roles, rule.edges
    if cfg.decoys:
        roles, edges = roles + rule.decoy[0], edges + rule.decoy[1]
    suffixes = list(dict.fromkeys(e for u, _, w in edges for e in (u, w)))
    instances, names = [], []
    for index in range(n):
        p = f"{kind.lower()}{index}_"
        # one int object per entity, shared by every group that holds it
        eid = {suffix: len(names) + i for i, suffix in enumerate(suffixes)}
        names += [p + suffix for suffix in suffixes]
        ids = {role: eid[suffix] for suffix, role in roles}
        expected = tuple({ids[r] for r in c.expected if r in ids} for c in checks)
        support = [(eid[u], r, eid[w]) for u, r, w in edges]
        instances.append(_Instance(index, ids, support, expected))
    return instances, names, list(dict.fromkeys(r for _, r, _ in edges)) if n else []


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

    nodes = dict(pair for root in roots for pair in arena.subformulas(root))
    for fid, node in sorted(nodes.items()):
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
                        add(nodes[side].relation, "w", anchor[anchored[0]])
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
    endpoints: tuple[int, int],
    heads: list[Optional[_Instance]],
    walks: tuple[_Walk, ...],
) -> list[_Instance]:
    """The heads whose tails a new edge between `endpoints` can change: those
    that `walks`, _back_walks' entry for the edge's relation, reach, in no
    particular order.  heads[v] is the instance v heads, or None."""
    u, w = endpoints
    found: dict[int, _Instance] = {}
    pred = adj.pred
    for end, path in walks:
        frontier = [u if end == "u" else w]
        for r in path:
            by_tail, step = pred[r], []
            for v in frontier:
                step += by_tail[v]
            frontier = step
            if not frontier:
                break
        for v in frontier:
            inst = heads[v]
            if inst is not None:
                found[v] = inst
    return list(found.values())


def _draw_noise(
    rng: random.Random, kind: str, instances: list[_Instance], n_entities: int,
    budget: int, checks, walks: dict[str, tuple[_Walk, ...]],
) -> dict[str, dict[int, list[int]]]:
    """The support plus `budget` noise triples over the instances' entities,
    each resampled until it changes no instance head's tails under `checks`,
    as _Adjacency.created groups them.

    The adjacency holds exactly the support and the accepted noise, since a
    rejected edge is removed again, so it is also the duplicate test.  Its
    predecessor groups and the head table live only in this call: the caller
    builds the store from the successor groups after they are freed.
    Predecessor groups are kept only for the relations a walk steps back
    along, and for those counted at a new edge's target (keyed with a walk
    from "w"): no other group is read.
    """
    stepped = {r for ws in walks.values() for _end, path in ws for r in path}
    counted = {rel for rel, ws in walks.items() if any(e == "w" for e, _ in ws)}
    relations = SUPPORT_RELATIONS[kind]
    adj = _Adjacency(n_entities, relations, stepped | counted)
    heads: list[Optional[_Instance]] = [None] * n_entities
    pool: list[int] = []
    for inst in instances:
        heads[inst.roles["head"]] = inst
        pool.extend(inst.roles.values())
        for h, r, t in inst.support:
            adj.add(h, r, t)
    if budget > 0 and not pool:
        raise KGLogicError("cannot generate noise for an empty dataset")
    # Each index is drawn by the loop Random.randrange(n) runs (CPython
    # 3.6-3.13), so the draws equal its own without its two calls per draw.
    getrandbits, n_pool, n_relations = rng.getrandbits, len(pool), len(relations)
    k_pool, k_relations = n_pool.bit_length(), n_relations.bit_length()
    for _ in range(budget):
        for _attempt in range(_MAX_ATTEMPTS_PER_NOISE):
            i = getrandbits(k_pool)
            while i >= n_pool:
                i = getrandbits(k_pool)
            r = getrandbits(k_relations)
            while r >= n_relations:
                r = getrandbits(k_relations)
            j = getrandbits(k_pool)
            while j >= n_pool:
                j = getrandbits(k_pool)
            u, rel, w = pool[i], relations[r], pool[j]
            if not adj.add(u, rel, w):
                continue
            affected = _affected_heads(adj, (u, w), heads, walks.get(rel, ()))
            if affected and any(
                check.tails(adj, inst.roles["head"]) != want
                for inst in affected
                for check, want in zip(checks, inst.expected)
            ):
                adj.remove(u, rel, w)
                continue
            break
        else:
            raise KGLogicError(
                "noise rejection budget exhausted; use fewer noise triples"
            )
    return adj.created


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

    instances, names, relations = _build_instances(cfg, checks)
    n_support = sum(len(inst.support) for inst in instances)
    noise_budget = cfg.noise_triples if cfg.noise_triples is not None else 2 * n_support
    groups = _draw_noise(rng, kind, instances, len(names), noise_budget, checks, walks)
    store = TripleStore._adopt(
        names, relations, {i: groups[r] for i, r in enumerate(relations)}
    )
    ground = [
        (inst.index, names[e], role)
        for inst in instances for role, e in inst.roles.items()
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
        roles = instances[idx].roles
        targets.append((names[roles["head"]], kind, names[roles["tail"]], split))

    config = {
        "relation": kind,
        "instances": cfg.n_instances,
        "noise_triples": noise_budget,
        "seed": cfg.seed,
        "split": ",".join(repr(f) for f in cfg.split),
        "decoys": int(cfg.decoys),
        "support_triples": n_support,
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
            binding = {c: inst.roles[r] for c, r in check.binding}
            got = model_check(store, arena, fid, binding, shared=shared).row_set(fid)
            if got != want:
                got, want = (sorted(map(store.entity_name, s)) for s in (got, want))
                raise KGLogicError(
                    f"instance {inst.index}: {check.text} holds at {got}, "
                    f"expected {want}"
                )


def write_dataset(dataset: SynthDataset, outdir) -> None:
    """Write triples.tsv, targets_{train,valid,test}.tsv, ground.tsv and
    config.txt into `outdir`, creating it; if one fails, none written stays."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = {out / "triples.tsv": [dataset.store.to_triples_text()]}
    for split in ("train", "valid", "test"):
        rows = dataset.targets_for(split)
        files[out / f"targets_{split}.tsv"] = [f"{h}\t{r}\t{t}\n" for h, r, t in rows]
    files[out / "ground.tsv"] = [f"{i}\t{e}\t{role}\n" for i, e, role in dataset.ground]
    files[out / "config.txt"] = [f"{k}={v}\n" for k, v in sorted(dataset.config.items())]
    write_files(files)


def load_dataset(datadir) -> SynthDataset:
    """Read a directory produced by write_dataset.  Each count that gen
    recorded in config.txt (entities, support plus noise triples, instances)
    must match the files, when config.txt has its keys."""
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
    for lineno, line in enumerate(read_text(path / "config.txt").split("\n"), 1):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or key in config:
            fault = f"repeats key {key!r}" if sep else "has no '='"
            raise TripleFileError(f"config.txt line {lineno}: {line!r} {fault}")
        config[key] = value
    for key in ("instances", "noise_triples", "seed", "decoys", "support_triples",
                "entities"):
        if key in config:
            config[key] = _int_field("config.txt", key, config[key])
    found = {
        ("entities",): store.n_entities,
        ("support_triples", "noise_triples"): len(store.triples),
        ("instances",): len({idx for idx, _, _ in ground}),
    }
    for keys, count in found.items():
        recorded = sum(config.get(k, 0) for k in keys)
        if all(k in config for k in keys) and recorded != count:
            raise TripleFileError(
                f"config.txt: {' + '.join(keys)} is {recorded}, "
                f"but the dataset has {count}"
            )
    return SynthDataset(store, targets, ground, config)


def _int_field(filename: str, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TripleFileError(
            f"{filename}: {what} {text!r} is not an integer"
        ) from None
