import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text('''"""Module
docstring."""

# a comment
import os  # a trailing comment


class C:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
''')
    # import, class, x (two lines), def, return (two lines)
    assert load_tool().code_lines(source) == 7
