"""The package root: the names `import ltlx` offers and the modules it loads.

The root holds the names of README's library example and of the
benchmark's direct calls; every other name is imported from its module.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def python(code):
    """What a fresh interpreter with src on its path prints after running `code`."""
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('ltlx')))"


def loaded_by(module, then=""):
    """The ltlx modules a fresh interpreter has loaded after `import module` and `then`."""
    return set(python(f"import sys, {module}\n{then}\n{LOADED}"))


def loaded_by_cli(*argv):
    """The ltlx modules loaded by one `python -m ltlx.cli` call, which runs as __main__."""
    call = "runpy.run_module('ltlx.cli', run_name='__main__', alter_sys=True)"
    return set(python(f"import runpy, sys\nsys.argv = ['ltlx', *{argv!r}]\ntry: {call}\nexcept SystemExit: pass\n{LOADED}"))


def test_root_holds_exactly_the_documented_names():
    # In a fresh interpreter: each name is set on the root at its first
    # use, so what other tests used must not decide what `dir` shows.
    shown = python(
        "import ltlx, types\n"
        "print(*[n for n in dir(ltlx) if n[0] != '_' and not isinstance(getattr(ltlx, n), types.ModuleType)])"
    )
    assert set(shown) == ROOT_NAMES
    assert all(callable(getattr(ltlx, name)) for name in ROOT_NAMES)


def test_import_loads_only_the_package_root():
    assert loaded_by("ltlx") == {"ltlx"}


def test_neither_import_loads_the_rule_compiler():
    # The compiler loads at the first transform, so the other subcommands
    # never compile its source.
    for module in ("ltlx", "ltlx.cli"):
        assert "ltlx.compiler" not in loaded_by(module), module
    assert loaded_by("ltlx.cli") == {"ltlx", "ltlx.cli", "ltlx.errors", "ltlx.values"}


def test_a_path_parse_loads_no_rule_term_or_engine_layer():
    loaded = loaded_by("ltlx", "ltlx.parse_path_text('//sec#2 lvl')")
    assert loaded == {"ltlx", "ltlx.errors", "ltlx.values", "ltlx.nodes", "ltlx.queryops", "ltlx.syntax"}


def test_each_subcommand_loads_only_its_own_layers():
    sample = str(ROOT / "samples" / "item_list" / "input.xml")
    canon = loaded_by_cli("canon", sample, "-o", os.devnull)
    assert canon == {"ltlx", "ltlx.errors", "ltlx.values", "ltlx.nodes", "ltlx.xmlio"}
    query = loaded_by_cli("query", "-p", "//li#", sample, "-o", os.devnull)
    assert "ltlx.queryops" in query and not query & {"ltlx.rules", "ltlx.terms"}


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
