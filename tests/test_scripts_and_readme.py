"""The README's library examples and the experiment scripts, run as a
reader runs them.

The README's ```python blocks run in order in one namespace, as the
tour reads them, and `law_survey` and `random_rule_census` run their
mains in process on the bundled automata, so their reports are read as
well as their exit codes.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_readme_python_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("(0, 0, 0, 1)\n")


def test_law_survey_emits_a_row_per_automaton(capsys):
    assert _script("law_survey").main(["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) >= 9
    assert all(row["invertible"] == row["isomorphism"] for row in rows)


def test_random_rule_census_never_splits(capsys):
    assert _script("random_rule_census").main(["--rules", "3"]) == 0
    assert "invariance and equivariance never split." in capsys.readouterr().out

