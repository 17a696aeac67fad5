"""Every repository path a CI ``run:`` step names must exist.

CI does not run locally, so a script deleted or renamed while
``.github/workflows/ci.yml`` still invokes it would otherwise surface
only on the next push.  The workflow is read as text (PyYAML is not a
test dependency): each ``run:`` value, inline or a ``|`` / ``>`` block,
is scanned for ``benchmarks/``, ``tools/`` and ``tests/`` paths.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

_RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|tools|tests)/[\w./-]*\w)")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def run_steps(text: str) -> list[str]:
    """The text of every ``run:`` value in a workflow file."""
    lines = text.splitlines()
    steps = []
    i = 0
    while i < len(lines):
        match = _RUN.match(lines[i])
        i += 1
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value[:1] not in ("|", ">"):
            steps.append(value)
            continue
        start = i
        while i < len(lines) and (
            not lines[i].strip() or _indent(lines[i]) > indent
        ):
            i += 1
        steps.append("\n".join(lines[start:i]))
    return steps


def named_paths(text: str) -> set[str]:
    return {path for step in run_steps(text) for path in _PATH.findall(step)}


def test_scan_reads_inline_and_block_steps():
    text = (
        "    steps:\n"
        "      - run: python tools/a.py\n"
        "      - name: block\n"
        "        run: |\n"
        "          python benchmarks/b.py \\\n"
        "            --out x.json\n"
        "\n"
        "          pytest tests/c_test.py::test_x -q\n"
        "      - name: folded\n"
        "        run: >\n"
        "          python tests/d.py\n"
        "      - name: not a run step\n"
        "        with:\n"
        "          path: tools/e.py\n"
    )
    assert named_paths(text) == {
        "tools/a.py", "benchmarks/b.py", "tests/c_test.py", "tests/d.py",
    }


def test_every_path_a_run_step_names_exists():
    paths = named_paths(WORKFLOW.read_text())
    # The scan found the workflow's scripts at all.
    assert "tools/check_import_cycles.py" in paths, sorted(paths)
    missing = sorted(p for p in paths if not (REPO / p).exists())
    assert not missing, f"ci.yml run steps name missing paths: {missing}"
