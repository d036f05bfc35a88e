"""Run one clustercap CLI command in this fresh process, as the
``clustercap`` console script would, optionally traced.

    python3 perfbench/launch.py OP_ID SPANS -- ARGV...

SPANS is '-' for an untraced run, else the file the spans are written to
when the command returns.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
IMPORT_START = time.perf_counter()
from clustercap import cli  # noqa: E402

IMPORT_END = time.perf_counter()


def main() -> int:
    op, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py OP_ID SPANS -- ARGV...")
    if spans_path == "-":
        return cli.main(argv)
    import tracer

    trace = tracer.Tracer(op=int(op))
    trace.record(tracer.IMPORT_SPAN, IMPORT_START, IMPORT_END)
    trace.install()
    try:
        return trace.wrap(tracer.MAIN_SPAN, cli.main)(argv)
    finally:
        trace.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
