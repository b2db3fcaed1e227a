"""A ratchet on the public surface: it may shrink, never grow."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import talbotlab
from talbotlab import cli

# the counts this suite last saw; lower them when the surface shrinks
SETTABLE_VALUES = 2
EXPORTS = 0
CONFIG_KEYS = 44


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable_values(body, owner: str) -> list:
    """``owner.function(param)`` for each defaulted parameter and ``**kwargs`` of
    the public functions and methods in ``body``, and ``owner.Class.field`` for
    each defaulted field of its public dataclasses."""
    found = []
    for node in body:
        name = getattr(node, "name", "_")                 # no name: not a definition
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            continue                                      # private; dunders such as __init__ count
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            params = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            params += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            params += [f"**{args.kwarg.arg}"] if args.kwarg else []
            found += [f"{owner}.{name}({param})" for param in params]
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                found += [f"{owner}.{name}.{s.target.id}" for s in node.body
                          if isinstance(s, ast.AnnAssign) and s.value is not None]
            found += _settable_values(node.body, f"{owner}.{name}")
    return found


def test_public_surface_does_not_grow():
    src = Path(talbotlab.__file__).parent
    settable = [label for path in sorted(src.glob("*.py"))
                for label in _settable_values(ast.parse(path.read_text()).body, path.stem)]
    assert len(settable) <= SETTABLE_VALUES, (
        f"{len(settable)} settable values, at most {SETTABLE_VALUES}: " + ", ".join(settable))
    exports = getattr(talbotlab, "__all__", ())
    assert len(exports) <= EXPORTS, f"{len(exports)} exports, at most {EXPORTS}: {exports}"


def test_config_keys_do_not_grow():
    keys = [f"{command}.{key}" for command, defaults in cli.DEFAULTS.items() for key in defaults]
    assert len(keys) <= CONFIG_KEYS, (
        f"{len(keys)} config keys, at most {CONFIG_KEYS}: " + ", ".join(keys))


def test_every_exported_name_resolves_from_src_alone(tmp_path):
    """Each name in the package's ``__all__`` and in each module's resolves in a
    fresh interpreter whose only project directory on the path is ``src``: no
    stale entry, and no import of a module that lives with the tests."""
    src = Path(talbotlab.__file__).parent.parent
    probe = textwrap.dedent("""
        import importlib, pkgutil, talbotlab
        missing = [name for name in getattr(talbotlab, "__all__", ())
                   if not hasattr(talbotlab, name)]
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
