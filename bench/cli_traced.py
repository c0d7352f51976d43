"""Run one symcalc CLI command with the tracer installed.

    PYTHONPATH=src python3 bench/cli_traced.py SUMMARY.json SPANS.jsonl -- ARGS...

Behaves like ``symcalc ARGS...`` (same stdout and exit code) and writes
the tracer's summary and spans when the command ends.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

from tracer import Tracer


def main() -> int:
    summary_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    start = time.perf_counter()
    cli = importlib.import_module("symcalc.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
