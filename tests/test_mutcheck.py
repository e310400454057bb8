"""tools/mutcheck.py stays in step with the sources: every mutant's old
text occurs exactly once in its file, and the mutated file compiles, so
a change to the code that removes or duplicates a mutant's target fails
here rather than only when the tool runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutcheck", ROOT / "tools" / "mutcheck.py")
mutcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutcheck)


@pytest.mark.parametrize("mutant", mutcheck.MUTANTS,
                         ids=[m.name for m in mutcheck.MUTANTS])
def test_mutant_applies_once(mutant):
    assert mutcheck.mutated(mutant) != (ROOT / mutant.path).read_text()
