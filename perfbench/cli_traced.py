"""One traced CLI process: `python cli_traced.py SPAWNED OUT ARGV...`.

Runs `chipfiring.cli.main(ARGV)` exactly as `python -m chipfiring.cli ARGV`
would, with the tracer installed, and writes the spans to OUT as JSON with
three process phases: interpreter start (from SPAWNED, the parent's
`time.monotonic()` just before it started this process, to the first line
here), `import chipfiring.cli`, and `main`.
"""

import time

_started = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run() -> int:
    spawned, out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import chipfiring.cli

    imported = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = chipfiring.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        sys.stdout.flush()
        stats = tracer.stats()
        stats["phases"] = {
            "interpreter_ms": (_started - spawned) * 1e3,
            "import_ms": (imported - t0) * 1e3,
            "main_ms": main_s * 1e3,
        }
        Path(out).write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(run())
