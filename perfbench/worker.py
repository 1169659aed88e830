"""One pass of the benchmark in a fresh interpreter.

Usage: ``python3 perfbench/worker.py`` with ``src`` on ``PYTHONPATH`` and a
JSON job on stdin::

    {"invocations": [{"argv": [...], "limit_s": 5.0}, ...],
     "trace": false, "setup_only": false}

It first times ``import negmom.cli`` plus ``build_parser()``, then runs
each invocation through ``negmom.cli.main`` with stdout and stderr
captured and a SIGALRM time limit.  It writes one JSON object per line to
stdout: the set-up time, one record per invocation as it finishes, and a
closing record with the peak resident memory and, when tracing, the
per-layer metrics.
"""

import sys
import time


def _import_negmom():
    # Runs before the worker's own imports, so that every module negmom
    # pulls in is charged to the measured set-up time.
    t0 = time.perf_counter()
    import negmom.cli
    negmom.cli.build_parser()
    return negmom.cli, time.perf_counter() - t0


class InvocationTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so negmom's handlers let it pass."""


def main() -> int:
    cli, setup_s = _import_negmom()
    import contextlib
    import io
    import json
    import resource
    import signal

    job = json.load(sys.stdin)
    out = sys.stdout

    def emit(record):
        out.write(json.dumps(record) + "\n")
        out.flush()

    emit({"kind": "setup", "setup_s": setup_s, "negmom_file": cli.__file__})
    if job.get("setup_only"):
        return 0

    tracer = None
    if job.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    armed = [False]

    def on_alarm(signum, frame):
        if armed[0]:
            raise InvocationTimeout()

    signal.signal(signal.SIGALRM, on_alarm)
    for i, inv in enumerate(job["invocations"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        record = {"kind": "invocation", "i": i, "exit": None, "error": None, "timeout": False}
        armed[0] = True
        signal.setitimer(signal.ITIMER_REAL, inv["limit_s"])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                record["exit"] = cli.main(inv["argv"])
                armed[0] = False
        except InvocationTimeout:
            record["timeout"] = True
        except SystemExit as exc:       # argparse usage errors
            record["exit"] = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:        # an uncaught error is a failed invocation
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            armed[0] = False
            record["elapsed_s"] = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.settle()
        record["stdout"] = stdout.getvalue()
        record["stderr"] = stderr.getvalue()[-2000:]
        emit(record)

    if tracer is not None:
        tracer.uninstall()
    done = {"kind": "done",
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        done["layers"] = tracer.metrics()
        done["spans"] = tracer.spans()
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
