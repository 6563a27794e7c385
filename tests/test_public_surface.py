"""Every public name is read by a command, the benchmark or the library.

A name in ``fenchelfix.__all__`` that only the tests read is surface with no
caller: delete it, or move it into the tests that use it.  Reads are AST
names and attribute names in ``src/fenchelfix`` (outside ``__init__.py``)
and in ``bench``.  A read inside a public definition counts only once that
definition is itself read, so a class that only its unread factory builds is
unread too.
"""

import ast
import types
from pathlib import Path

import fenchelfix

ROOT = Path(__file__).resolve().parents[1]

# read by no module, and kept on purpose
ALLOWED = {
    "energy",  # the paper's normalized energy function, the self-conjugate quadratic
    "g_scaling_residual",  # the certificate check for two solutions on PSD E
}


def _reads(node) -> set:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unread_public_names() -> set:
    public = {
        name for name in fenchelfix.__all__
        if not isinstance(getattr(fenchelfix, name), types.ModuleType)
    }
    blocks = []  # (the public name a top-level statement defines, or None; what it reads)
    library = [p for p in (ROOT / "src" / "fenchelfix").glob("*.py") if p.name != "__init__.py"]
    for path in library + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None) if path in library else None
            blocks.append((owner if owner in public else None, _reads(node)))
    live = set(ALLOWED)
    while True:
        read = set().union(*(reads for owner, reads in blocks if owner is None or owner in live))
        if read & public <= live:
            return public - live
        live |= read & public


def test_every_public_name_has_a_reader():
    assert unread_public_names() == set()


def test_the_allowed_names_are_public():
    assert ALLOWED <= set(fenchelfix.__all__)
