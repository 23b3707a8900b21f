"""Run one ``cattab`` command with its layer boundaries traced, then
write the spans as JSON for the parent benchmark process.

Usage: python3 perfbench/cli_child.py SPANS_JSON -- ARGV...

The process exits with the command's own exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    import cattab.cli

    tracer = Tracer()
    code = 1
    try:
        with tracer.patched():
            idx = tracer.open("cli:main")
            try:
                code = cattab.cli.main(argv)
            finally:
                tracer.close(idx)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.payload(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
