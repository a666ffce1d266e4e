"""One benchmark job: a fresh interpreter that calls ``zerodyn.cli.main``.

    python3 perfbench/job.py META_PATH TRACE -- ZERODYN_ARGS...

Run from the root of a checkout; zerodyn is imported from its ``src``.
Writes META_PATH (JSON): the monotonic time at which the CLI was ready
to run, the exit code, any uncaught exception, the process's peak
resident memory and, with TRACE=1, the recorded spans and counters.  Exits with the CLI's exit code.
"""

import json
import os
import resource
import sys
import time


def main():
    meta_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import zerodyn.cli

    meta = {"ready": time.monotonic(), "error": None}
    if not os.path.abspath(zerodyn.cli.__file__).startswith(src + os.sep):
        meta["error"] = f"zerodyn imported from {zerodyn.cli.__file__}, not {src}"
        rc = 3
    else:
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer(os.path.basename(meta_path).split(".")[0])
            tracer.install()
        try:
            rc = zerodyn.cli.main(argv)
        except Exception as exc:  # the job must report, not crash silently
            meta["error"] = f"{type(exc).__name__}: {exc}"
            rc = 3
        if tracer is not None:
            meta.update(tracer.dump())
    meta["rc"] = rc
    meta["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
