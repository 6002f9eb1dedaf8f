"""tools/src_lines.py counts code lines by its stated rule."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "X = '''a string\n"
        "that is code'''\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):  # a trailing comment\n"
        '        """Function\n'
        '        docstring."""\n'
        "        return (1 +\n"
        "                2)\n"
    )
    assert _tool().count(path) == (16, 6)


def test_the_total_is_the_sum_of_the_files(capsys):
    src = TOOL.parents[1] / "src" / "metriclab"
    tool = _tool()
    assert tool.main([str(src)]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
    files = [(int(t), int(c)) for _, t, c in rows[:-1]]
    assert len(files) == len(list(src.glob("*.py")))
    assert [int(x) for x in rows[-1][1:]] == [sum(t for t, _ in files), sum(c for _, c in files)]
