"""Run one ``tvdbn`` command in this process under the span tracer.

    python3 perfbench/stage.py <output prefix> <command> [tvdbn arguments...]

Writes ``<prefix>.spans.jsonl`` and ``<prefix>.summary.json`` and exits with
the command's exit code. ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    import tvdbn.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tvdbn.cli.main(argv)
    finally:
        tracer.remove()
        tracer.write_spans(prefix + ".spans.jsonl")
        with open(prefix + ".summary.json", "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
