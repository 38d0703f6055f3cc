"""Run one workload's program in this process with a span around every call
into a dp4sieve layer (see spans.WRAPS), then write the spans as JSON lines.

    PYTHONPATH=src python3 bench/traced.py SPANS RUN_ID -m dp4sieve.cli ARGS...
    PYTHONPATH=src python3 bench/traced.py SPANS RUN_ID bench/ledger.py ARGS...

The program itself is unchanged: the wrappers replace names in the calling
modules after import, and the program's main() runs inside one entry span.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys

from spans import ENTRY, WRAPS, Tracer


def load_entry(target):
    """(module, argv) for `-m MODULE ARGS...` or `SCRIPT.py ARGS...`."""
    if target[0] == "-m":
        return importlib.import_module(target[1]), target[2:]
    name = os.path.splitext(os.path.basename(target[0]))[0]
    spec = importlib.util.spec_from_file_location(name, target[0])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module, target[1:]


def main(argv) -> int:
    spans_path, run_id, *target = argv
    module, args = load_entry(target)
    tracer = Tracer(run_id)
    for modname, attr, name in WRAPS:
        if modname in sys.modules:
            tracer.patch(sys.modules[modname], attr, name)
    try:
        with tracer.span(ENTRY):
            return module.main(args)
    finally:
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
