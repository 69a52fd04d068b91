"""``tools/callers.py``, the public names that only tests reach (ROADMAP item 11)."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "callers.py"
_spec = importlib.util.spec_from_file_location("callers", _PATH)
callers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(callers)


def _write(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def _tree(root):
    """A package whose public names are reached each in one way, or not at all."""
    _write(root, "src/gascert/__init__.py", """\
        from .alpha import by_attribute, by_demo, by_string, by_tests, defined_only, inside
        __all__ = [name for name in dir() if not name.startswith("_")]
        """)
    _write(root, "src/gascert/alpha.py", """\
        __all__ = ["defined_only", "by_demo", "by_attribute", "inside", "by_string",
                   "by_tests", "Record"]

        def defined_only():
            return 1

        def by_demo():
            return 2

        def by_attribute():
            return 3

        def inside():
            return 4

        def by_string():
            return 5

        def by_tests():
            return 6

        class Record:
            pass

        def _private():
            return inside()
        """)
    _write(root, "src/gascert/beta.py", """\
        __all__ = ("unused",)
        unused = 0
        """)
    _write(root, "demos/01_demo.py", "from gascert import by_demo\nprint(by_demo())\n")
    _write(root, "bench/run.py", "import gascert\ngascert.alpha.by_attribute()\n")
    _write(root, "tools/wrap.py", "import gascert\ngetattr(gascert, 'by_string')\n")
    _write(root, "tests/test_alpha.py", "from gascert import by_tests\nby_tests()\nRecord = 1\n")


def test_public_names_read_from_literal_all(tmp_path):
    # the computed __all__ of __init__ is not read
    _tree(tmp_path)
    assert callers.public_names(tmp_path / "src" / "gascert") == [
        ("alpha", "defined_only"), ("alpha", "by_demo"), ("alpha", "by_attribute"),
        ("alpha", "inside"), ("alpha", "by_string"), ("alpha", "by_tests"),
        ("alpha", "Record"), ("beta", "unused")]


def test_loads_and_attributes_count_and_nothing_else(tmp_path, capsys):
    # a load (a demo's call, a module's own call) or an attribute is a reference;
    # a definition, an import, an __all__ entry, a string and the tests are not
    _tree(tmp_path)
    assert callers.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "alpha.defined_only", "alpha.by_string", "alpha.by_tests", "alpha.Record",
        "beta.unused"]
