"""``tools/code_lines.py``: the count ROADMAP aim 2 quotes.

A directory stands for its ``*.py`` files, recursively and sorted, so
``code_lines.py src/repro/testing`` prints what the shell glob
``src/repro/testing/*.py`` does (the package has no subpackage); no
argument, ``-h`` and ``--help`` print the usage and exit 2.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"


def run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True
    )


def test_a_directory_is_its_python_files_recursively_and_sorted(tmp_path):
    (tmp_path / "b.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.py").write_text("# comment\n\ny = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("z = 3\n")
    done = run(str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"     1 {tmp_path / 'b.py'}",
        f"     3 {tmp_path / 'sub' / 'a.py'}",
        "     4 total",
    ]


def test_the_testing_package_counts_as_its_glob():
    package = ROOT / "src" / "repro" / "testing"
    files = [str(path) for path in sorted(package.glob("*.py"))]
    assert run(str(package)).stdout == run(*files).stdout


@pytest.mark.parametrize("args", [(), ("-h",), ("--help",)])
def test_usage_exits_2(args):
    done = run(*args)
    assert done.returncode == 2
    assert done.stdout == "" and done.stderr.startswith("usage:")
