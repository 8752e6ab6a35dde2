"""Run one ncschur CLI command with spans recorded.

    python3 perfbench/cli_traced.py OUT ARGS...

Behaves like ``python -m ncschur.cli ARGS...`` (same stdout, stderr and
exit code) and writes to OUT a JSON summary: the time ``import ncschur.cli``
took, the memo tables that import left non-empty, per-span calls and self
time, work counts and memo-table statistics. The raw spans go next to it.
"""

import sys
import time

_start = time.perf_counter()
import ncschur.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402

import tracer as tr  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tables = tr.cache_tables()
    warm = tr.census(tables)
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        code = ncschur.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": IMPORT_S, "warm": warm, "spans": tracer.summary(),
                       "counts": tracer.counts, "memo": tr.memo_stats(tables)}, fh)
        tracer.dump(out_path[: -len(".json")] + ".bin")
    return code


if __name__ == "__main__":
    sys.exit(main())
