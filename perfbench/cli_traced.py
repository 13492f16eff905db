"""Run one tradekernel CLI command in this process with the layer wrappers installed.

    python3 perfbench/cli_traced.py SPANS_FILE OP_ID -- <tradekernel arguments>

The spans and counters go to SPANS_FILE when the command returns; the
exit code is the command's own.
"""

import json
import sys

import machine
import tracing


def main():
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    machine.check_interpreter()
    machine.use_checkout_source()
    from tradekernel import cli

    rec = tracing.Recorder()
    tracing.install(rec)
    rec.op = op_id
    try:
        rc = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
