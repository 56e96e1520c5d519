import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"


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


def test_every_export_is_reached():
    # every name the package exports is used by another module of the
    # package or by the benchmark, as a name, an attribute or an import: an
    # export that only the tests reach is test code inside src
    package = ROOT / "src" / "disspec"
    init = package / "__init__.py"
    exported = {alias.asname or alias.name for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in [*package.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used |= {node.name, node.asname}
    # gronwall_check is reached only by test_criterion_9_lyapunov_audit; it
    # stays until the Gronwall audit is replaced (ROADMAP item 2)
    assert exported - used == {"gronwall_check"}
