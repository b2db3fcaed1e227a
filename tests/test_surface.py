"""A ratchet on the public surface: it may shrink, never grow."""

import ast
from pathlib import Path

import talbotlab

# the counts this suite last saw; lower them when the surface shrinks
SETTABLE_VALUES = 35
EXPORTS = 64


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable_values(body) -> int:
    """Defaulted parameters and ``**kwargs`` of the public functions and methods
    in ``body``, plus the defaulted fields of its public dataclasses."""
    count = 0
    for node in body:
        name = getattr(node, "name", "_")                 # no name: not a definition
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            continue                                      # private; dunders such as __init__ count
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += (len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                      + (args.kwarg is not None))
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
            count += _settable_values(node.body)
    return count


def test_public_surface_does_not_grow():
    src = Path(talbotlab.__file__).parent
    settable = sum(_settable_values(ast.parse(path.read_text()).body)
                   for path in sorted(src.glob("*.py")))
    assert settable <= SETTABLE_VALUES, f"{settable} settable values, at most {SETTABLE_VALUES}"
    assert len(talbotlab.__all__) <= EXPORTS, f"{len(talbotlab.__all__)} exports, at most {EXPORTS}"
