"""README's "Library use" example runs as written against the package."""

import re
from pathlib import Path

import censet

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    assert abs(namespace["geom"].U_K - 0.34976) < 1e-5


def test_namespace_is_what_the_example_uses():
    used = set(re.findall(r"\bcs\.(\w+)", _library_use_block()))
    errors = {"ModeError", "ParseError", "ValidationError"}
    assert set(censet.__all__) == used | errors
    assert all(hasattr(censet, name) for name in censet.__all__)
