"""The random cases the oracle suites check do not depend on the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# sha256 over the first 100 `random_instance` cases of one seeded generator
DIGEST_CASES = f"""
import hashlib, random, sys
sys.path[:0] = [{str(TESTS)!r}, {str(TESTS.parent / "src")!r}]
from helpers import random_instance
from kglogic import format_formula

rng = random.Random(7)
digest = hashlib.sha256()
for _ in range(100):
    store, arena, fid, binding = random_instance(rng)
    case = (store.to_triples_text(), store.to_preds_text(),
            format_formula(arena, fid), sorted(binding.items()))
    digest.update(repr(case).encode())
print(digest.hexdigest())
"""


def _digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_CASES],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return proc.stdout.strip()


def test_random_instance_cases_ignore_the_hash_seed():
    assert _digest("0") == _digest("123")
