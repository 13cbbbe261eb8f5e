"""The asvinit CLI as a fresh process, as a user launches it.

    cli_child.py [--trace-out PREFIX] <asvinit arguments>

With --trace-out the program's public functions are wrapped in spans; the
spans go to PREFIX.jsonl and the per-name summary and counts to
PREFIX.summary.json, written even when the command dies with a traceback.
"""

import json
import sys

from asvinit import cli


def main(argv):
    if argv[:1] != ["--trace-out"]:
        return cli.main(argv)
    import spans

    out, argv = argv[1], argv[2:]
    tracer = spans.Tracer()
    tracer.op_id = 0
    try:
        with tracer.installed():
            return cli.main(argv)
    finally:
        tracer.write(out + ".jsonl")
        with open(out + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
