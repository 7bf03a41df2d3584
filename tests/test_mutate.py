"""``tools/mutate.py`` lists its equivalent mutants by ``module:line:column``: each entry
must still name a mutant the tool makes, or an edit above it has left it stale."""

from __future__ import annotations

import runpy
from pathlib import Path


def test_every_equivalent_mutant_is_one_the_tool_makes():
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "mutate.py"))
    for key in tool["EQUIVALENT"]:
        module = tool["PACKAGE"] / key.split(":")[0]
        assert key in {m.key for m in tool["enumerate_mutants"](module)}, key
