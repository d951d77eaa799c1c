"""Reference checks of command outputs, written without `kglogic`.

Each check reads the files the command wrote (and the generated input) and
returns (attempted, failed, items): how many checks it made, how many of them
failed, and how many work items the output holds (the base of items_per_s).
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path


def read_tsv(path: Path) -> list[list[str]]:
    return [
        line.split("\t")
        for line in path.read_text().split("\n")
        if line and not line.startswith("#")
    ]


def _instances(ground: Path) -> dict[str, dict[str, str]]:
    """Instance index -> role -> entity, from ground.tsv."""
    roles: dict[str, dict[str, str]] = defaultdict(dict)
    for index, entity, role in read_tsv(ground):
        roles[index][role] = entity
    return roles


def check_gen(out: Path) -> tuple[int, int, int]:
    """Every U instance: the fork-join rule holds exactly at {t}, the
    query-only rule exactly at {t, dt}, by nested loops over triples.tsv."""
    triples = read_tsv(out / "triples.tsv")
    succ: dict[tuple[str, str], list[str]] = defaultdict(list)
    for h, r, t in triples:
        succ[(r, h)].append(t)

    def two_hops(r1, r2, starts):
        return {t for u in starts for z in succ[(r1, u)] for t in succ[(r2, z)]}

    targets = {
        (h, t)
        for split in ("train", "valid", "test")
        for h, _r, t in read_tsv(out / f"targets_{split}.tsv")
    }
    attempted = failed = 0
    for roles in _instances(out / "ground.tsv").values():
        h, c, t = roles["head"], roles["fork"], roles["tail"]
        forks = succ[("R1", h)]
        fork_join = set()
        if c in forks:
            fork_join = two_hops("R2", "R4", [c]) & two_hops("R3", "R5", [c])
        query_only = two_hops("R2", "R4", forks) & two_hops("R3", "R5", forks)
        ok = (
            fork_join == {t}
            and query_only == {t, roles["decoy_tail"]}
            and (h, t) in targets
        )
        attempted += 1
        failed += not ok
    return attempted, failed, len(triples)


def check_rank(report: Path, data: Path) -> tuple[int, int, int, float]:
    """Every test query is reported once, at rank 1.0: ground.tsv makes its
    tail the only entity the rule holds at.  Also returns filtered hit@1."""
    tails = {
        roles["head"]: roles["tail"] for roles in _instances(data / "ground.tsv").values()
    }
    expected = {tuple(row) for row in read_tsv(data / "targets_test.tsv")}
    rows = read_tsv(report)
    hit1 = next(float(r[2]) for r in rows if r[:2] == ["metric", "hit@1"])
    queries = [r[1:] for r in rows if r[0] == "query"]
    seen = set()
    failed = 0
    for h, rel, t, rank, *_rest in queries:
        key = (h, rel, t)
        ok = key in expected and key not in seen and tails.get(h) == t and rank == "1.0"
        seen.add(key)
        failed += not ok
    missing = len(expected - seen)
    return len(queries) + missing, failed + missing, len(queries), hit1


def refine(triples: list[list[str]], entities: list[str], marked: str, rounds: int):
    """Color refinement over incoming edges; yields each round's partition as
    dense first-seen ids over `entities`.  Round 0 separates `marked`."""
    incoming: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for h, r, t in triples:
        incoming[t].append((r, h))
    color = {v: int(v == marked) for v in entities}
    for _ in range(rounds):
        yield dense([color[v] for v in entities])
        sig = {v: (color[v], tuple(sorted((color[u], r) for r, u in incoming[v])))
               for v in entities}
        color = dict(zip(entities, dense([sig[v] for v in entities])))
    yield dense([color[v] for v in entities])


def dense(colors: list) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(c, len(ids)) for c in colors]


def check_bisim(
    output: Path, triples_file: Path, marked: str, n_rounds: int
) -> tuple[int, int, int]:
    """Rounds 0..n_rounds are written, each with the reference partition."""
    rows = read_tsv(output)
    by_round: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for rnd, entity, color in rows:
        by_round[rnd].append((entity, color))
    rounds = [by_round.get(str(r), []) for r in range(n_rounds + 1)]
    entities = [e for e, _ in rounds[0]]
    reference = refine(read_tsv(triples_file), entities, marked, n_rounds)
    failed = int(len(by_round) != n_rounds + 1)
    for got, want in zip(rounds, reference):
        failed += [e for e, _ in got] != entities or dense([c for _, c in got]) != want
    return len(rounds) + 1, failed, len(rows)
