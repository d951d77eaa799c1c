"""Command-line surface: gen, compile, check, run, bisim, report.

Exit codes: 0 success, 1 usage error, 2 data error.  Every output starts with
echoed `# key=value` lines so identical invocations are byte-identical and
self-describing.  A command computes its whole result before it writes the
first byte, so a failing command leaves no output file.  Output files are
UTF-8 whatever the locale (`store.write_files`), so only stdout's encoding can
reject output text.  Output is written as a sequence of text chunks: `bisim`,
the largest, writes one round at a time and never builds its whole text.
The other commands import the compiler, engine, ranking and bisim modules that
`gen` and `check` do not run, so those two start without them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .checker import COMBINATORS, model_check
from .errors import KGLogicError
from .formulas import FormulaArena, parse
from .labeling import DEFAULT_ERA_PAIR, LABELING_MODES, MODE_TO_LABELING, QUERY_CONSTANT
from .labeling import Labeling, el_label, query_label
from .store import TripleStore, load_store, read_text, write_files
from .synthgen import (
    SUPPORT_RELATIONS, SynthConfig, gen_dataset, load_dataset, write_dataset,
)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _echo_header(args: argparse.Namespace, skip: tuple[str, ...] = ()) -> str:
    return "".join(
        f"# {key}={value}\n" for key, value in sorted(vars(args).items())
        if key != "func" and key not in skip
    )


def _check_stdout(texts: Iterable[str]) -> None:
    """Raise UnicodeEncodeError unless stdout's encoding takes every text."""
    encoding = getattr(sys.stdout, "encoding", None)
    for text in texts if encoding else ():
        text.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")


def _write_output(
    chunks: Iterable[str], out: Optional[str], filename: str,
    free_text: Iterable[str] = (),
) -> None:
    if out is None:
        # printed chunks cannot be taken back, so the free text in them (the
        # header and entity names) must fit the stream's encoding up front
        _check_stdout(free_text)
        sys.stdout.writelines(chunks)
    else:
        Path(out).mkdir(parents=True, exist_ok=True)
        write_files({Path(out) / filename: chunks})


def _write_bits(args: argparse.Namespace, store: TripleStore, bits: list[int]) -> None:
    """The header, then one `entity<TAB>bit` line per entity in id order, to
    stdout or to `<command>.tsv` in the --out directory."""
    lines = [_echo_header(args, skip=("out",))]
    lines += [f"{name}\t{bit}\n" for name, bit in zip(store.entity_names, bits)]
    _write_output(["".join(lines)], args.out, f"{args.command}.tsv")


def _load_kg(args: argparse.Namespace) -> TripleStore:
    triples_text = read_text(args.kg)
    preds_text = read_text(args.preds) if args.preds else None
    return load_store(triples_text, preds_text)


def _parse_bind(store: TripleStore, text: Optional[str]) -> dict[str, int]:
    bindings: dict[str, int] = {}
    if not text:
        return bindings
    for piece in text.split(","):
        name, sep, entity = piece.partition("=")
        if not sep or not name or not entity:
            raise KGLogicError(f"malformed binding {piece!r}, expected name=entity")
        if name in bindings:
            raise KGLogicError(f"constant {name!r} is bound more than once")
        bindings[name] = store.entity_id(entity)
    return bindings


def _labeling_for(
    args: argparse.Namespace, store: TripleStore, bindings: dict[str, int]
) -> Labeling:
    mode = args.labeling
    if mode == "none":
        return Labeling(dict(bindings), {name: "manual" for name in bindings})
    if QUERY_CONSTANT not in bindings:
        raise KGLogicError(f"labeling {mode!r} needs --bind {QUERY_CONSTANT}=<entity>")
    h = bindings[QUERY_CONSTANT]
    lab = query_label(h) if mode == "query" else el_label(store, args.degree, h)
    for name, v in bindings.items():
        if name not in lab.bindings:
            lab.bindings[name] = v
            lab.origin[name] = "manual"
    return lab


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        split = tuple(float(x) for x in args.split.split(","))
    except ValueError:
        split = ()
    if len(split) != 3:
        raise KGLogicError("--split needs three comma-separated fractions")
    cfg = SynthConfig(
        relation_kind=args.relation,
        n_instances=args.instances,
        noise_triples=args.noise,
        seed=args.seed,
        split=split,  # type: ignore[arg-type]
        decoys=args.decoys,
    )
    dataset = gen_dataset(cfg)
    line = (
        f"wrote {len(dataset.store.triples)} triples, "
        f"{len(dataset.targets)} targets to {args.out}\n"
    )
    _check_stdout([line])  # first, so a line stdout cannot take leaves no dataset
    write_dataset(dataset, args.out)
    sys.stdout.write(line)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import compile_formula, explain, net_to_text
    arena = FormulaArena()
    root = parse(read_text(args.formula).strip(), arena)
    net = compile_formula(arena, root)
    text = _echo_header(args) + net_to_text(net)
    if args.out is None:
        sys.stdout.write(text)
    else:
        # printed first: a report stdout cannot encode then leaves no file
        sys.stdout.write(explain(net))
        write_files({Path(args.out): [text]})
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    store = _load_kg(args)
    arena = FormulaArena()
    root = parse(read_text(args.formula).strip(), arena)
    bindings = _parse_bind(store, args.bind)
    table = model_check(store, arena, root, bindings)
    _write_bits(args, store, table.row_bits(root))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.data is None) == (args.kg is None):
        raise KGLogicError("run needs exactly one of --data or --kg")
    if args.data is not None:
        from .evalrank import table2_run
        mode = {lab: m for m, lab in MODE_TO_LABELING.items()}[args.labeling]
        era_pair = (args.era_g1, args.era_g2, args.era_comb)
        report = table2_run(args.data, mode, args.degree, era_pair)
        text = _echo_header(args, skip=("out",)) + report.to_text()
        _write_output([text], args.out, "report.txt")
        return 0
    if args.formula is None:
        raise KGLogicError("run --kg needs --formula")
    from .compiler import compile_formula
    from .engine import forward, init_features, readout
    store = _load_kg(args)
    arena = FormulaArena()
    root = parse(read_text(args.formula).strip(), arena)
    bindings = _parse_bind(store, args.bind)
    lab = _labeling_for(args, store, bindings)
    net = compile_formula(arena, root)
    bits = readout(forward(store, net, init_features(store, net, lab)), net)
    _write_bits(args, store, bits)
    return 0


def _cmd_bisim(args: argparse.Namespace) -> int:
    from .bisim import color_refine
    store = _load_kg(args)
    bindings = _parse_bind(store, args.bind)
    lab = _labeling_for(args, store, bindings)
    colors = color_refine(store, lab, rounds=args.rounds)
    header = _echo_header(args, skip=("out",))
    _write_output(_bisim_chunks(header, store.entity_names, colors.rounds),
                  args.out, "bisim.tsv", chain([header], store.entity_names))
    return 0


def _bisim_chunks(
    header: str, names: list[str], rounds: list[list[int]]
) -> Iterator[str]:
    """The header, then one chunk of `round<TAB>entity<TAB>colour` lines per
    round; rounds equal to the one before (all after the stable round) reuse
    its `entity<TAB>colour` cells."""
    yield header
    cells, last = [], None
    # an empty store has no rows, not empty ones
    for rnd, row in enumerate(rounds if names else ()):
        if row != last:
            cells = list(map("\t".join, zip(names, map(str, row))))
            last = row
        yield f"{rnd}\t" + f"\n{rnd}\t".join(cells) + "\n"


def _cmd_report(args: argparse.Namespace) -> int:
    from .evalrank import run_dataset
    lines = [_echo_header(args, skip=("out",)).rstrip("\n")]
    lines.append("\t".join(("relation", *MODE_TO_LABELING)))
    for datadir in args.data:
        dataset = load_dataset(datadir)
        cells = []
        for mode in MODE_TO_LABELING:
            report = run_dataset(dataset, mode, args.degree, label=str(datadir))
            # no test query: no hit rate, which 0.0 would misstate
            cells.append(repr(report.hit_at(1)) if report.queries else "n/a")
        lines.append(dataset.config["relation"] + "\t" + "\t".join(cells))
    _write_output(["\n".join(lines) + "\n"], args.out, "report.txt")
    return 0


# one per process: each build leaves about 350 objects in reference cycles
@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="kglogic",
        description="Exact knowledge-graph logic engine: compile counting-modal "
        "rules to integer message-passing networks and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a synthetic dataset")
    p.add_argument("--relation", required=True, choices=tuple(SUPPORT_RELATIONS))
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--noise", type=int, default=None,
                   help="noise triple count (default: twice the support count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--decoys", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compile", help="compile a formula file to a network")
    p.add_argument("--formula", required=True)
    p.add_argument("--out", default=None, help="network file (stdout if omitted)")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("check", help="model-check a formula over a KG")
    p.add_argument("--kg", required=True)
    p.add_argument("--preds", default=None)
    p.add_argument("--formula", required=True)
    p.add_argument("--bind", default=None, help="constant bindings name=entity,...")
    p.add_argument("--out", default=None, help="output directory (stdout if omitted)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("run", help="run the engine: dataset ranking or one formula")
    p.add_argument("--data", default=None, help="dataset directory from gen")
    p.add_argument("--kg", default=None)
    p.add_argument("--preds", default=None)
    p.add_argument("--formula", default=None)
    p.add_argument("--bind", default=None)
    p.add_argument("--labeling", choices=LABELING_MODES, default="query")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--era-g1", default=DEFAULT_ERA_PAIR[0])
    p.add_argument("--era-g2", default=DEFAULT_ERA_PAIR[1])
    p.add_argument("--era-comb", choices=COMBINATORS, default=DEFAULT_ERA_PAIR[2])
    p.add_argument("--out", default=None, help="output directory (stdout if omitted)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bisim", help="emit per-round color classes")
    p.add_argument("--kg", required=True)
    p.add_argument("--preds", default=None)
    p.add_argument("--labeling", choices=LABELING_MODES, default="none")
    p.add_argument("--bind", default=None)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--out", default=None, help="output directory (stdout if omitted)")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("report", help="hit@1 comparison table across modes")
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--out", default=None, help="output directory (stdout if omitted)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # A command's data are ints, strs and containers of them in no reference
    # cycle, so the cyclic collector's passes over them would free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if argv is None:
            # undecodable bytes arrive as surrogate escapes; names and formula
            # texts meet UTF-8 files, so they are UTF-8 (paths keep theirs)
            for key in ("bind", "era_g1", "era_g2"):
                if (value := getattr(args, key, None)) is not None:
                    raw = value.encode("utf-8", "surrogateescape")
                    setattr(args, key, raw.decode("utf-8", "surrogateescape"))
        try:
            return args.func(args)
        # UnicodeEncodeError: output text the stream's or file's encoding lacks
        except (KGLogicError, OSError, UnicodeEncodeError) as exc:
            sys.stderr.write(f"kglogic {args.command}: error: {exc}\n")
            return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
