"""The four benchmark workloads: inputs, command line, and correctness check.

Every workload is one `kglogic` CLI command run in-process through
`kglogic.cli.main(argv)`.  The ranking and bisim workloads read a dataset
that `gen_dataset` produces from the workload seed before any timing starts;
`gen-U` generates its own output, so its seed goes on the command line.

All paths are relative to the repository root, so the echoed `# data=...`
headers, and with them the output digests, are the same in every checkout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class InputConfig:
    """Arguments of the `SynthConfig` the input dataset is generated from."""

    kind: str
    instances: int
    decoys: bool

    def dirname(self, seed: int) -> str:
        tag = "-decoys" if self.decoys else ""
        return f"{WORK_DIR}/inputs/{self.kind}-{self.instances}{tag}-s{seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    input: Optional[InputConfig]
    template: tuple[str, ...]  # argv with {seed}, {data} and {out} filled per run
    check: str  # which reference check in checks.py: "gen", "rank" or "bisim"
    items: str  # what items_per_s counts

    def out_dir(self) -> str:
        return f"{WORK_DIR}/out/{self.name}"

    def argv(self, seed: int) -> list[str]:
        data = self.input.dirname(seed) if self.input else ""
        return [
            arg.format(seed=seed, data=data, out=self.out_dir())
            for arg in self.template
        ]


BISIM_HEAD = "u0_h"
BISIM_ROUNDS = 10

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gen-U",
            None,
            ("gen", "--relation", "U", "--decoys", "--instances", "500",
             "--seed", "{seed}", "--out", "{out}"),
            "gen",
            "triples written",
        ),
        Workload(
            "rank-el-U",
            InputConfig("U", 600, True),
            ("run", "--data", "{data}", "--labeling", "el", "--degree", "1",
             "--out", "{out}"),
            "rank",
            "test queries ranked",
        ),
        Workload(
            "rank-ql-I",
            InputConfig("I", 700, False),
            ("run", "--data", "{data}", "--labeling", "query", "--out", "{out}"),
            "rank",
            "test queries ranked",
        ),
        Workload(
            "bisim-U",
            InputConfig("U", 2000, True),
            ("bisim", "--kg", "{data}/triples.tsv", "--labeling", "query",
             "--bind", f"h={BISIM_HEAD}", "--rounds", str(BISIM_ROUNDS),
             "--out", "{out}"),
            "bisim",
            "entity-rounds written",
        ),
    )
}
