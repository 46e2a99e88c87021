"""The package re-exports a name only where a caller outside the unit tests takes it.

A public, non-module attribute of ``errant`` must meet one of these:

- README.md names it in code (an inline code span or a Python example), not after a dot;
- ``tests/test_acceptance.py``, ``bench/`` or ``tools/`` takes it from the package, as
  ``from errant import ...`` or ``errant.<name>``;
- it is an ``ErrantError``, because callers catch those types.

Any other name is imported from its module, such as ``errant.emulator.RunReport``.
A new export comes with one of these callers.
"""

import re
import types
from pathlib import Path

import errant

ROOT = Path(__file__).resolve().parent.parent


def package_names(text):
    """The names a source text takes from the package itself."""
    names = set(re.findall(r"\berrant\.(\w+)", text))
    for listed in re.findall(r"\bfrom errant import (\([^)]*\)|[^\n]*)", text):
        names.update(re.findall(r"\w+", listed))
    return names


def test_every_export_has_a_caller():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"`([^`\n]+)`", readme)
    code += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    # a dotted name such as errant.emulator.RunReport names the module's, not the package's
    named = {name for text in code for name in re.findall(r"(?<![.\w])\w+", text)}
    callers = [ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("bench/*.py")),
               *sorted(ROOT.glob("tools/*.py"))]
    imported = set().union(*(package_names(path.read_text(encoding="utf-8")) for path in callers))
    exports = [
        name for name, value in vars(errant).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert "DryRunBackend" in exports  # the search sees the exports
    orphans = [
        name for name in exports
        if name not in named | imported
        and not (isinstance(getattr(errant, name), type)
                 and issubclass(getattr(errant, name), errant.ErrantError))
    ]
    assert orphans == []
