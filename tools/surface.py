"""Print the settable surface of diolab: what a caller can configure, and how much code there is.

    python3 tools/surface.py

Four counts, one per line:

* ``src_lines``: lines of every ``.py`` file under ``src/``.
* ``public_defaults``: parameters with a default value, over the public
  functions of each ``diolab`` module and the public methods (``__init__``
  included, so every defaulted dataclass field counts) of its public
  classes, as ``inspect.signature`` reports them.
* ``cli_options``: ``add_argument`` call sites in ``src/``.
* ``environ_reads``: reads of ``os.environ`` or ``os.getenv`` in ``src/``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def public_defaults() -> int:
    sys.path.insert(0, str(SRC))
    import diolab

    count = 0
    for info in pkgutil.iter_modules(diolab.__path__, "diolab."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions = [obj]
            elif inspect.isclass(obj):
                functions = [
                    getattr(attr, "__func__", attr)
                    for attr_name, attr in vars(obj).items()
                    if attr_name == "__init__" or not attr_name.startswith("_")
                ]
            else:
                continue
            for fn in filter(inspect.isfunction, functions):
                params = inspect.signature(fn).parameters.values()
                count += sum(p.default is not inspect.Parameter.empty for p in params)
    return count


def source_counts() -> tuple[int, int, int]:
    """(lines, add_argument calls, environment reads) over the files under src/."""
    lines = options = environ = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                options += node.func.attr == "add_argument"
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                environ += isinstance(node.value, ast.Name) and node.value.id == "os"
    return lines, options, environ


def main() -> int:
    lines, options, environ = source_counts()
    print(f"src_lines {lines}")
    print(f"public_defaults {public_defaults()}")
    print(f"cli_options {options}")
    print(f"environ_reads {environ}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
