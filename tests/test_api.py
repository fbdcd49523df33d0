"""The library API documented in README.md and the package export list."""

import sys
from fractions import Fraction
from pathlib import Path

import quatlef

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The python block under README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs_as_written():
    namespace = {}
    exec(_library_block(), namespace)
    lefschetz_number = namespace["lefschetz_number"]
    lefschetz_via_decomposition = namespace["lefschetz_via_decomposition"]
    inp = namespace["inp"]
    assert lefschetz_number(inp).value == Fraction(478224)
    assert lefschetz_via_decomposition(inp) == Fraction(478224)
    assert namespace["chi"].value == Fraction(119556)
    assert [c.value for c in namespace["components"]] == [Fraction(119556)] * 4


def test_package_exports_each_module_name_once():
    names = quatlef.__all__
    assert len(names) == len(set(names)) == 45
    for name in names:
        obj = getattr(quatlef, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("quatlef.")
        assert name in module.__all__
        assert getattr(module, name) is obj
