"""Every function the benchmark tracer wraps still exists in homoca.

`perfbench/spans.py` installs its spans and counters by name with
`getattr`, so renaming or deleting a wrapped function breaks every traced
benchmark run.  The benchmark's own tests live in `perfbench/tests`; this
check runs with the package's tests, where such a change is made.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tables(*names):
    """The literal values of module-level assignments in spans.py, read
    without running the benchmark's code."""
    tree = ast.parse(SPANS.read_text())
    values = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and node.targets[0].id in names
    }
    return [values[name] for name in names]


LAYERS, COUNTED = _tables("LAYERS", "COUNTED")
TARGETS = [(module, attr) for module, attr, _ in LAYERS + COUNTED]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
