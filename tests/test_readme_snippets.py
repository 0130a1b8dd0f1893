"""The README's Python code blocks run, in order, as one session.

A name the README tells users to call is part of the product (the
definition-level reach test counts these blocks as a root), so the blocks
must be real calls: they run here in a scratch working directory, sharing
one namespace the way a reader pastes them into one interpreter.
"""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    """The README's ```python code blocks, in order."""
    blocks, block = [], None
    for line in README.read_text().splitlines():
        if block is None and line.strip() == "```python":
            block = []
        elif block is not None and line.strip() == "```":
            blocks.append("\n".join(block))
            block = None
        elif block is not None:
            block.append(line)
    return blocks


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace: dict = {"__name__": "readme"}
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), namespace)
    assert len(namespace["results"]) == 4
    outcome = namespace["outcome"]
    assert outcome.retries == 1 and outcome.results is not None
    assert "straggler" in capsys.readouterr().out
