"""The package root: the names `import ltlx` offers and the modules it loads.

The root holds the names of README's library example and of the
benchmark's direct calls; every other name is imported from its module.
"""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import ltlx

ROOT = Path(__file__).resolve().parent.parent
ROOT_NAMES = {
    "element",
    "text",
    "parse",
    "serialize",
    "parse_rules",
    "parse_path_text",
    "transform_document",
    "canonicalize",
    "encode_core",
    "decode_core",
    "split_sentinel_text",
    "eval_path",
}


def test_root_holds_exactly_the_documented_names():
    public = {
        name
        for name, value in vars(ltlx).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == ROOT_NAMES
    assert all(callable(getattr(ltlx, name)) for name in ROOT_NAMES)


def loaded_by(module):
    """The ltlx modules a fresh interpreter has loaded after `import module`."""
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith('ltlx')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_front_end_or_fact_layers():
    loaded = loaded_by("ltlx")
    assert "ltlx.engine" in loaded
    assert not loaded & {"ltlx.metrics", "ltlx.relalg", "ltlx.cli"}


def test_neither_import_loads_the_rule_compiler():
    # The compiler loads at the first transform, so the other subcommands
    # never compile its source.
    for module in ("ltlx", "ltlx.cli"):
        loaded = loaded_by(module)
        assert "ltlx.rules" in loaded and "ltlx.compiler" not in loaded, module


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages hooks out, so only ltlx and what it imports count.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, ltlx.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
    importers = [
        path.name
        for path in (ROOT / "src" / "ltlx").rglob("*.py")
        if re.search(r"^\s*(import|from)\s+dataclasses\b", path.read_text(), re.MULTILINE)
    ]
    assert importers == []
