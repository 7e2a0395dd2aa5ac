"""tools/code_lines.py, the code-line counter of the package."""

import importlib.util
import os
import textwrap

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "code_lines.py")


@pytest.fixture(scope="module")
def counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import math  # a trailing comment leaves the line code


    def area(r):
        """Function docstring."""
        # A comment line.
        return max(
            0.0,
            math.pi * r * r,
        )


    NOTE = """a string that is no docstring
    spans two lines"""
    ''')


def test_counts_code_lines_without_docstrings_comments_or_blanks(counter):
    # import, def, the four lines of the multi-line call, and the two
    # lines of the assigned string.
    assert counter.code_lines(SNIPPET) == 8


def test_counts_every_module_of_a_package(counter, tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert counter.package_counts(str(tmp_path)) == {"a.py": 8, "b.py": 1}
    assert sum(counter.package_counts().values()) > 0
