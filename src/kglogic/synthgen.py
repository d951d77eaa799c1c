"""Synthetic benchmark generation: rule structures, adversarial noise, splits.

Each instance is a fresh vertex-disjoint copy of one rule structure:

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
from pathlib import Path
from typing import Optional

from .checker import model_check
from .errors import EvaluationError, KGLogicError, TripleFileError
from .formulas import FormulaArena, canonical_formula, parse
from .store import TripleStore, _parse_tsv, load_store

SUPPORT_RELATIONS = {
    "C": ("R1", "R2", "R3"),
    "I": ("R1", "R2", "R3", "R4"),
    "U": ("R1", "R2", "R3", "R4", "R5"),
}

# Query-constant-only approximant of the U rule: both branch chains, fork
# unpinned.  Satisfied at the decoy tail too, by design.
U_QUERY_ONLY_TEXT = "(<R4>=1 <R2>=1 <R1>=1 @h & <R5>=1 <R3>=1 <R1>=1 @h)"

_STRUCTURE_DEPTH = 3  # every structure entity sits within 3 forward hops of h
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
        if self.relation_kind not in SUPPORT_RELATIONS:
            raise EvaluationError(
                f"relation kind must be one of C, I, U, got {self.relation_kind!r}"
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
        if self.decoys and self.relation_kind != "U":
            raise EvaluationError("decoys are only defined for relation U")


@dataclass
class _Instance:
    index: int
    head: str
    tail: str
    roles: list[tuple[str, str]]  # (entity, role)
    support: list[tuple[str, str, str]]
    decoy_tail: Optional[str] = None


@dataclass
class SynthDataset:
    store: TripleStore
    targets: list[tuple[str, str, str, str]]  # (head, relation, tail, split)
    ground: list[tuple[int, str, str]]  # (instance, entity, role)
    config: dict = field(default_factory=dict)

    def targets_for(self, split: str) -> list[tuple[str, str, str]]:
        return [(h, r, t) for h, r, t, s in self.targets if s == split]


def _build_instance(kind: str, index: int, decoys: bool) -> _Instance:
    p = f"{kind.lower()}{index}"
    if kind == "C":
        h, z1, z2, t = (f"{p}_h", f"{p}_z1", f"{p}_z2", f"{p}_t")
        support = [(h, "R1", z1), (z1, "R2", z2), (z2, "R3", t)]
        roles = [(h, "head"), (z1, "z1"), (z2, "z2"), (t, "tail")]
        return _Instance(index, h, t, roles, support)
    if kind == "I":
        h, z1, z2, t = (f"{p}_h", f"{p}_z1", f"{p}_z2", f"{p}_t")
        w1, w2 = f"{p}_w1", f"{p}_w2"
        support = [
            (h, "R1", z1),
            (z1, "R2", z2),
            (z2, "R3", t),
            (w1, "R4", z2),
            (w2, "R4", z2),
        ]
        roles = [
            (h, "head"),
            (z1, "z1"),
            (z2, "z2"),
            (t, "tail"),
            (w1, "w1"),
            (w2, "w2"),
        ]
        return _Instance(index, h, t, roles, support)
    h, c, z2, z3, t = (f"{p}_h", f"{p}_c", f"{p}_z2", f"{p}_z3", f"{p}_t")
    support = [
        (h, "R1", c),
        (c, "R2", z2),
        (z2, "R4", t),
        (c, "R3", z3),
        (z3, "R5", t),
    ]
    roles = [(h, "head"), (c, "fork"), (z2, "z2"), (z3, "z3"), (t, "tail")]
    inst = _Instance(index, h, t, roles, support)
    if decoys:
        c1, dz2, dt = f"{p}_dc1", f"{p}_dz2", f"{p}_dt"
        c2, dz3 = f"{p}_dc2", f"{p}_dz3"
        inst.support += [
            (h, "R1", c1),
            (c1, "R2", dz2),
            (dz2, "R4", dt),
            (h, "R1", c2),
            (c2, "R3", dz3),
            (dz3, "R5", dt),
        ]
        inst.roles += [
            (c1, "decoy_fork_r2"),
            (dz2, "decoy_z2"),
            (dt, "decoy_tail"),
            (c2, "decoy_fork_r3"),
            (dz3, "decoy_z3"),
        ]
        inst.decoy_tail = dt
    return inst


class _Adjacency:
    """Mutable name-keyed adjacency used only during noise rejection."""

    def __init__(self):
        self.succ: dict[str, dict[str, set[str]]] = {}
        self.pred: dict[str, dict[str, set[str]]] = {}

    def add(self, h: str, r: str, t: str) -> None:
        self.succ.setdefault(r, {}).setdefault(h, set()).add(t)
        self.pred.setdefault(r, {}).setdefault(t, set()).add(h)

    def remove(self, h: str, r: str, t: str) -> None:
        self.succ[r][h].discard(t)
        self.pred[r][t].discard(h)

    def out(self, r: str, v: str) -> set[str]:
        return self.succ.get(r, {}).get(v, set())

    def outs(self, r: str, vs) -> set[str]:
        result: set[str] = set()
        for v in vs:
            result |= self.out(r, v)
        return result

    def in_count(self, r: str, v: str) -> int:
        return len(self.pred.get(r, {}).get(v, ()))

    def predecessors(self, v: str) -> set[str]:
        result: set[str] = set()
        for by_tail in self.pred.values():
            result |= by_tail.get(v, set())
        return result


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


def _expected_tails(kind: str, inst: _Instance) -> dict[str, set[str]]:
    if kind == "C" or kind == "I":
        return {"rule": {inst.tail}}
    expected = {"rule": {inst.tail}, "query_only": {inst.tail}}
    if inst.decoy_tail is not None:
        expected["query_only"] = {inst.tail, inst.decoy_tail}
    return expected


def _instance_ok(kind: str, adj: _Adjacency, inst: _Instance) -> bool:
    expected = _expected_tails(kind, inst)
    if kind == "C":
        return _chain_tails(adj, inst.head) == expected["rule"]
    if kind == "I":
        return _i_tails(adj, inst.head) == expected["rule"]
    return (
        _u_fork_tails(adj, inst.head) == expected["rule"]
        and _u_query_only_tails(adj, inst.head) == expected["query_only"]
    )


def _affected_heads(
    adj: _Adjacency, endpoints: tuple[str, str], heads: dict[str, _Instance]
) -> list[_Instance]:
    # A new satisfying tail for head h needs h to reach the new edge within the
    # structure depth, so walk backwards from both endpoints and collect heads.
    reached = set(endpoints)
    frontier = set(endpoints)
    for _ in range(_STRUCTURE_DEPTH):
        nxt: set[str] = set()
        for v in frontier:
            for u in adj.predecessors(v):
                if u not in reached:
                    reached.add(u)
                    nxt.add(u)
        if not nxt:
            break
        frontier = nxt
    hit = [heads[v] for v in reached if v in heads]
    hit.sort(key=lambda inst: inst.index)
    return hit


def gen_dataset(cfg: SynthConfig, verify: bool = True) -> SynthDataset:
    """Generate a dataset per the config; byte-deterministic in the seed."""
    cfg.validate()
    kind = cfg.relation_kind
    rng = random.Random(cfg.seed)

    instances = [
        _build_instance(kind, i, cfg.decoys) for i in range(cfg.n_instances)
    ]
    support: list[tuple[str, str, str]] = []
    ground: list[tuple[int, str, str]] = []
    adj = _Adjacency()
    heads = {inst.head: inst for inst in instances}
    pool: list[str] = []
    for inst in instances:
        support.extend(inst.support)
        ground.extend((inst.index, e, role) for e, role in inst.roles)
        pool.extend(e for e, _ in inst.roles)
        for h, r, t in inst.support:
            adj.add(h, r, t)

    noise_budget = (
        cfg.noise_triples if cfg.noise_triples is not None else 2 * len(support)
    )
    relations = SUPPORT_RELATIONS[kind]
    existing = set(support)
    noise: list[tuple[str, str, str]] = []
    if noise_budget > 0 and not pool:
        raise KGLogicError("cannot generate noise for an empty dataset")
    for _ in range(noise_budget):
        placed = False
        for _attempt in range(_MAX_ATTEMPTS_PER_NOISE):
            u = pool[rng.randrange(len(pool))]
            rel = relations[rng.randrange(len(relations))]
            w = pool[rng.randrange(len(pool))]
            triple = (u, rel, w)
            if triple in existing:
                continue
            adj.add(u, rel, w)
            bad = any(
                not _instance_ok(kind, adj, inst)
                for inst in _affected_heads(adj, (u, w), heads)
            )
            if bad:
                adj.remove(u, rel, w)
                continue
            existing.add(triple)
            noise.append(triple)
            placed = True
            break
        if not placed:
            raise KGLogicError(
                "noise rejection budget exhausted; use fewer noise triples"
            )

    store = TripleStore(support + noise)

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
        targets.append((inst.head, kind, inst.tail, split))

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
    dataset = SynthDataset(store, targets, ground, config)
    if verify:
        _verify_dataset(dataset, instances)
    return dataset


def _verify_dataset(dataset: SynthDataset, instances: list[_Instance]) -> None:
    """Cross-check the generator's incremental bookkeeping with the model checker."""
    kind = dataset.config["relation"]
    store = dataset.store
    arena = FormulaArena()
    rule = canonical_formula(arena, "Uprime" if kind == "U" else kind)
    query_only = parse(U_QUERY_ONLY_TEXT, arena) if kind == "U" else None
    for inst in instances:
        binding = {"h": store.entity_id(inst.head)}
        if kind == "U":
            fork = next(e for e, role in inst.roles if role == "fork")
            binding["c"] = store.entity_id(fork)
        table = model_check(store, arena, rule, binding)
        got = {store.entity_name(v) for v in table.row_set(rule)}
        if got != {inst.tail}:
            raise KGLogicError(
                f"instance {inst.index}: rule satisfied at {sorted(got)}, "
                f"expected only {inst.tail!r}"
            )
        if query_only is not None:
            table = model_check(store, arena, query_only, {"h": binding["h"]})
            got = {store.entity_name(v) for v in table.row_set(query_only)}
            expected = {inst.tail}
            if inst.decoy_tail is not None:
                expected.add(inst.decoy_tail)
            if got != expected:
                raise KGLogicError(
                    f"instance {inst.index}: query-only rule satisfied at "
                    f"{sorted(got)}, expected {sorted(expected)}"
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
    store = load_store((path / "triples.tsv").read_text())
    targets: list[tuple[str, str, str, str]] = []
    for split in ("train", "valid", "test"):
        name = f"targets_{split}.tsv"
        for h, r, t in _parse_tsv((path / name).read_text(), 3, name):
            targets.append((h, r, t, split))
    ground_rows = _parse_tsv((path / "ground.tsv").read_text(), 3, "ground.tsv")
    ground = [
        (_int_field("ground.tsv", "instance index", idx), e, role)
        for idx, e, role in ground_rows
    ]
    config: dict = {}
    for line in (path / "config.txt").read_text().split("\n"):
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
