"""Run the causalproc CLI with the benchmark's tracing wrappers installed.

    python3 shim.py SPANS_OUT OP_ID CLI_ARGS...

Behaves like ``python -m causalproc CLI_ARGS...`` (same output and exit code)
and writes the spans of the call to SPANS_OUT as JSON.
"""

import json
import sys

import spans


def main() -> int:
    out, op_id, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = spans.Tracer()
    tracer.op = op_id
    spans.install(tracer)
    from causalproc import cli

    try:
        return cli.main(args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
