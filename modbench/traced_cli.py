"""Run one ``modlab`` CLI invocation with tracing wrappers installed.

    python3 -X importtime -m modbench.traced_cli TRACE_FILE ARGS...

Writes the invocation's spans to TRACE_FILE (JSON lines) and exits with
the CLI's exit code.  Only the standard library is imported before
modlab, so ``-X importtime`` sees the full numpy and modlab imports.
"""

import sys

from modbench.tracing import Tracer, dump


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import modlab.cli

    tracer = Tracer()
    tracer.install()
    try:
        return modlab.cli.main(argv)
    finally:
        dump(trace_path, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
