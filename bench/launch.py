"""Run one freemoment CLI command with the benchmark's tracer installed.

    python bench/launch.py TRACE.json <subcommand> [options...]

Times a fresh `import freemoment`, installs the timing wrappers, calls
`freemoment.cli.main` with the remaining arguments and exits with its code.
TRACE.json receives the command name, the import and command seconds and
every span.
"""

from __future__ import annotations

import json
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import freemoment.cli

    import_s = time.perf_counter() - t
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    t = time.perf_counter()
    try:
        code = freemoment.cli.main(argv)
    finally:
        cmd_s = time.perf_counter() - t
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"command": argv[0], "import_s": import_s, "cmd_s": cmd_s,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
