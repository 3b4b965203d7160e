"""In-process job runner: one warm interpreter runs job lists through
`shearfield.cli.run`, optionally under the boundary tracer.

Run with `PYTHONPATH=src` from the repository root.  Protocol: after the
import, one line `{"ready": true}`; then, per stdin line `{"jobs": [argv,
...]}`, one stdout line `{"seconds": [...], "rc": [...], "out": [...],
"err": [...], "trace": snapshot-or-null}`.  EOF on stdin ends the worker.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter


def run_job(cli, argv) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.run(argv)
        except SystemExit as exc:       # argparse rejecting the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:       # a crash fails this job, not the run
            traceback.print_exc()
            rc = 1
        seconds = perf_counter() - t0
    return seconds, rc, out.getvalue(), err.getvalue()


def main() -> None:
    from shearfield import cli
    tracer = None
    if "--trace" in sys.argv[1:]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    channel = sys.stdout
    channel.write(json.dumps({"ready": True}) + "\n")
    channel.flush()
    for line in sys.stdin:
        reply = {"seconds": [], "rc": [], "out": [], "err": []}
        if tracer is not None:
            tracer.reset()
        for argv in json.loads(line)["jobs"]:
            for key, value in zip(reply, run_job(cli, argv)):
                reply[key].append(value)
            if tracer is not None:
                tracer.end_job()
        reply["trace"] = tracer.snapshot() if tracer is not None else None
        channel.write(json.dumps(reply) + "\n")
        channel.flush()


if __name__ == "__main__":
    main()
