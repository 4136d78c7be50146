"""The README's library quick start runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block under ``## Library quick start``."""
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    before, block = section.split("```python\n", 1)
    assert "\n## " not in before            # the block belongs to this section
    return block.split("\n```", 1)[0]


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md (Library quick start)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[-1].startswith("pass ")
