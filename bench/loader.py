"""Set-up of a workload: import ltlx and load its rule and path files.

Run as a script it times one set-up in a fresh interpreter and prints the
seconds taken; run.py starts it several times for the setup_s metric:

    loader.py WORKLOAD FILE...

Only os, sys and time are imported before the clock starts, so the
standard-library modules ltlx pulls in are charged to ltlx.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def load(workload, files, api=None):
    """Import ltlx and parse the workload's rule (.ltl) and path (.txt) files."""
    import ltlx

    if workload == "cli":
        import ltlx.cli  # noqa: F401  (the CLI's own import cost is part of set-up)
    api = api or ltlx
    loaded = {}
    for path in files:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        if path.endswith(".ltl"):
            loaded[path] = api.parse_rules(source)
        else:
            loaded[path] = [api.parse_path_text(line) for line in source.splitlines() if line]
    return loaded


if __name__ == "__main__":
    started = time.perf_counter()
    load(sys.argv[1], sys.argv[2:])
    print(time.perf_counter() - started)
