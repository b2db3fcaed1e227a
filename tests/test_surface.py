"""A ratchet on the public surface: it may shrink, never grow."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import talbotlab

# the counts this suite last saw; lower them when the surface shrinks
SETTABLE_VALUES = 27
EXPORTS = 47


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


def test_every_exported_name_resolves_from_src_alone(tmp_path):
    """Each name in the package's ``__all__`` and in each module's resolves in a
    fresh interpreter whose only project directory on the path is ``src``: no
    stale entry, and no import of a module that lives with the tests."""
    src = Path(talbotlab.__file__).parent.parent
    probe = textwrap.dedent("""
        import importlib, pkgutil, talbotlab
        missing = [name for name in talbotlab.__all__ if not hasattr(talbotlab, name)]
        for info in pkgutil.iter_modules(talbotlab.__path__):
            if info.name != "__main__":  # importing it runs the command line
                module = importlib.import_module(f"talbotlab.{info.name}")
                missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                            if not hasattr(module, name)]
        print(talbotlab.__file__)
        print(" ".join(missing))
    """)
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    found, missing = proc.stdout.split("\n")[:2]
    assert Path(found).parent == src / "talbotlab"
    assert missing == "", f"names in __all__ that do not resolve: {missing}"
