"""Mutation probe of the checks behind every certificate clinelab prints.

Each entry below turns one check off (or changes one exponent) in a copy
of src/ and tests/, then runs tests/test_drazin.py and tests/test_cline.py
with -x.  A mutant is caught when that run fails.  Entries marked
equivalent cannot change any result, for the reason given; they are not
run, but their text must still be found, so the list follows the code.

    python3 tools/mutants.py

Exits 1 when a mutant that is not equivalent survives, or when an
entry's old text is not found exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_drazin.py", "tests/test_cline.py"]

Mutant = namedtuple("Mutant", "file old new reason equivalent", defaults=(False,))

DRAZIN = "src/clinelab/drazin.py"
CLINE = "src/clinelab/cline.py"

MUTANTS = [
    Mutant(DRAZIN, "if b * ab != b:", "if False:", "bab = b not checked"),
    Mutant(DRAZIN, "if ab != b * a:", "if False:", "ab = ba not checked"),
    Mutant(DRAZIN, "if index is None:", "if False:", "drazin core nilpotency not checked"),
    Mutant(DRAZIN, "if not core_qnil:", "if False:", "gdrazin core quasinilpotency not checked"),
    Mutant(
        DRAZIN,
        "if not core.is_zero:",
        "if False:",
        "the branch runs only when ab = 1, and then core = a - a*ab = 0",
        True,
    ),
    Mutant(
        DRAZIN,
        "if a_k * ab != a_k:",
        "if False:",
        "e = ab is idempotent (e^2 = a*bab = ab) and commutes with a, so "
        "core^k = a^k (1 - e); the check runs only when core^k = 0, and then "
        "a^k = a^k e",
        True,
    ),
    Mutant(
        DRAZIN,
        "if cert.index > m:",
        "if False:",
        "drazin_matrix's index not compared with the multiplicity of 0",
    ),
    Mutant(DRAZIN, "a ** (2 * order - 1)", "a ** (2 * order - 2)", "power 2L - 2"),
    Mutant(DRAZIN, "a ** (2 * order - 1)", "a ** (order - 1)", "power L - 1"),
    Mutant(DRAZIN, "if k and dom.canon(c_k):", "if k and c_k:", "c_k not reduced in the field"),
    Mutant(
        CLINE,
        "if cert.inverse != v:",
        "if False:",
        "transferred inverse not compared with the engine's",
    ),
    Mutant(
        CLINE,
        "if target.core != expected_core:",
        "if False:",
        "core decomposition identity not checked",
    ),
    Mutant(CLINE, "p1 == p3,", "True,", "p1 = p3 dropped from the hypothesis"),
]


def _missing(tree: Path, mutant: Mutant) -> str | None:
    """Why mutant cannot be applied in tree, or None when its old text
    occurs exactly once."""
    count = (tree / mutant.file).read_text().count(mutant.old)
    return None if count == 1 else f"{mutant.file}: {mutant.old!r} found {count} times, not once"


def _caught(mutant: Mutant) -> bool:
    """Whether the tests fail on a copy of the tree with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="clinelab-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        path = tree / mutant.file
        text = path.read_text().replace(mutant.old, mutant.new)
        compile(text, mutant.file, "exec")  # a mutant the tests cannot import proves nothing
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
            cwd=tree,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return run.returncode != 0


def main() -> int:
    missing = list(filter(None, (_missing(ROOT, mutant) for mutant in MUTANTS)))
    for reason in missing:
        print(f"MISSING   {reason}")
    if missing:
        return 1
    survivors = 0
    for mutant in MUTANTS:
        label = f"{mutant.file}: {mutant.old!r} -> {mutant.new!r}"
        if mutant.equivalent:
            print(f"skipped   {label} (equivalent: {mutant.reason})")
            continue
        start = time.perf_counter()
        caught = _caught(mutant)
        verdict = "caught  " if caught else "SURVIVED"
        print(f"{verdict}  {label} ({mutant.reason}; {time.perf_counter() - start:.1f} s)")
        survivors += not caught
    if survivors:
        print(f"{survivors} mutant(s) survived")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
