"""The `starcc` console entry point with the benchmark's span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS.jsonl <starcc arguments>

Times `import starcc` as a span of its own, wraps the layer functions from
outside (see tracer.py), runs starcc.cli.main and writes every span to
SPANS.jsonl when the command ends.  The exit code is the command's.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.op("cli." + argv[0], 0):
            tracer.call("cli.import", __import__, ("starcc.cli",), {})
            import starcc.cli

            tracer.install()
            try:
                return starcc.cli.main(argv)
            finally:
                tracer.uninstall()
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
