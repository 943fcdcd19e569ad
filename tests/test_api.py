"""Public API surface: every exported name resolves, and the README's
library example imports."""

import re
from pathlib import Path

import mmfa

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    missing = [name for name in mmfa.__all__ if not hasattr(mmfa, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(mmfa.__all__) == len(set(mmfa.__all__))


def test_readme_library_import_runs():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    statement = re.search(r"^from mmfa import \(.*?\)$", block, re.S | re.M)
    assert statement is not None
    exec(statement.group(0), {})
