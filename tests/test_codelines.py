"""``tools/codelines.py``, the code-line count that ROADMAP item 11 and CI read."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

# each line that counts ends in "# +"; the rest are blank, comment-only or docstring lines
SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # a comment-only line
    import os  # +


    class Record:  # +
        """Class docstring."""

        size = (1,  # +
                2)  # +

        def method(self):  # +
            \'\'\'Function docstring,
            over two lines.\'\'\'
            # another comment
            text = "a string"  # +
            "a string statement that is not the first"  # +
            return text  # +


    async def waiting():  # +
        """Async function docstring."""
        return os.sep  # +


    def no_docstring():  # +
        return """a string that is  # +
        not a first statement"""  # +
''')


def test_counts_only_code_lines():
    want = [k for k, line in enumerate(SOURCE.splitlines(), 1) if line.endswith("# +")]
    assert len(want) == 13
    assert codelines.code_lines(SOURCE) == len(want)


def test_docstring_lines_are_the_first_string_statements():
    # the module's, the class's, the method's and the async function's; no other string
    lines = codelines.docstring_lines(codelines.ast.parse(SOURCE))
    assert sorted(lines) == [1, 2, 9, 15, 16, 24]


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    13  a.py", "     1  b.py", "    14  total"]
