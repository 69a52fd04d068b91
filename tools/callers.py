"""Public names of ``src/gascert`` that no code outside the tests references.

    python3 tools/callers.py [ROOT]

Prints ``<module>.<name>``, one per line in module then ``__all__`` order,
for each entry of a module's literal ``__all__`` that no Python file under
``ROOT/src/gascert``, ``ROOT/demos``, ``ROOT/bench`` or ``ROOT/tools``
references.  A reference is a load of the name (``analyze(net)``) or an
attribute of that name, whatever its owner (``connective.analyze``,
``self.analyze``).  The definition, an import and the ``__all__`` entry
are not references, and nor is a string that holds the name.  ``ROOT``
defaults to this checkout.  The exit code is 0 whatever is printed.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/gascert", "demos", "bench", "tools")


def public_names(package):
    """``(module, name)`` for each entry of each module's literal ``__all__``."""
    names = []
    for path in sorted(Path(package).glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                names += [(path.stem, e.value) for e in node.value.elts
                          if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return names


def referenced(root):
    """Every name loaded, and every attribute name, in the scanned files."""
    seen = set()
    for top in SCANNED:
        for path in sorted(Path(root, top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
    return seen


def main(argv):
    root = argv[0] if argv else ROOT
    seen = referenced(root)
    for module, name in public_names(Path(root, "src", "gascert")):
        if name not in seen:
            print(f"{module}.{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
