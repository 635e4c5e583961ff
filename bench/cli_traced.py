"""Run one algpaths CLI command under the span tracer.

    python3 bench/cli_traced.py OUT.json <algpaths arguments...>

Stdout, stderr and the exit code are those of `python -m algpaths.cli`.
The span totals and counters, with the time this fresh interpreter took
to import `algpaths.cli` as counter `cli.import_s`, are written to
OUT.json for the benchmark process to add to its own.
"""

import json
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import algpaths.cli
    import_s = time.perf_counter() - t0

    from layertrace import Tracer
    tracer = Tracer(max_spans=0)
    tracer.install()
    try:
        code = algpaths.cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.count("cli.import_s", import_s)
        with open(out_path, "w") as f:
            json.dump({"stats": {name: [s.count, s.total, s.self_time]
                                 for name, s in tracer.stats.items()},
                       "counters": tracer.counters}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
