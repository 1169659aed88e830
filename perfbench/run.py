"""negmom benchmark: end-to-end verdict time, or a per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload symbolic-grid --seed 1 --seconds 30 --trace 0

One client runs the workload's CLI invocations one after another (a
closed loop).  Each pass runs them in a fresh single-threaded
interpreter (``NEGMOM_THREADS=1``, ``PYTHONHASHSEED=0``), so negmom's
caches start cold, and passes repeat until ``--seconds`` have elapsed.
Every output is then checked, outside the timed region, against
``reference.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: median over passes of the time of one pass, where a failed
  or timed-out invocation is charged its time limit;
* ``setup_s``: median time to import negmom and build the CLI parser,
  sampled in every pass and in extra fresh interpreters;
* ``peak_rss_mb``: median peak resident memory of a pass's interpreter;
* ``ok_rate``: invocations that succeeded / invocations attempted, i.e.
  1 - fail rate.  An invocation fails on a non-zero exit, an uncaught
  exception, a timeout, or output that differs from the reference.

``--trace 1`` runs one plain pass and one traced pass (see tracing.py)
and reports the per-layer metrics of BENCHMARK.json, plus
``trace.overhead_s``, the traced minus the plain pass time.  It fails if
a layer the workload is meant to exercise records no calls.  The
aggregated spans go to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of stdout is the JSON result; the lines before it report
each pass, each failure and the run's metadata (Python version, nproc,
seed and negmom's source line count), which is recorded but not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3        # set-up-only interpreters after each pass, besides the pass's own
RUN_BUDGET_S = 150       # passes stop being started or allowed to run past this
TRACE_LIMIT_FACTOR = 3   # tracing slows calls; traced limits stretch by this


@dataclass
class Pass:
    setup_s: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    records: Dict[int, dict] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None
    spans: Optional[list] = None
    duration_s: float = 0.0
    wall_s: float = 0.0                       # charged time, set by grade()
    failures: List[str] = field(default_factory=list)
    wrong_output: bool = False


def _worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), NEGMOM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(job: dict, timeout_s: float) -> Pass:
    """Run one fresh worker interpreter; kill it when timeout_s runs out."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            env=_worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    result = Pass(duration_s=time.monotonic() - t0)
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        kind = rec.get("kind") if isinstance(rec, dict) else None
        if kind == "setup":
            result.setup_s = rec["setup_s"]
            if not Path(rec["negmom_file"]).resolve().is_relative_to(SRC.resolve()):
                raise SystemExit(f"negmom was imported from {rec['negmom_file']}, not {SRC}")
        elif kind == "invocation":
            result.records[rec["i"]] = rec
        elif kind == "done":
            result.peak_rss_mb = rec["peak_rss_mb"]
            result.layers = rec.get("layers")
            result.spans = rec.get("spans")
    if result.setup_s is None:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"worker failed to start negmom (exit {proc.returncode})")
    return result


def run_pass(workload: workloads.Workload, trace: bool, budget_s: float) -> Pass:
    factor = TRACE_LIMIT_FACTOR if trace else 1
    job = {"trace": trace,
           "invocations": [{"argv": list(inv.argv), "limit_s": inv.limit_s * factor}
                           for inv in workload.invocations]}
    limits = sum(inv.limit_s * factor for inv in workload.invocations)
    return run_worker(job, min(limits + 10, budget_s))


def grade(workload: workloads.Workload, p: Pass, checker: workloads.Checker) -> None:
    """Check a pass's outputs and charge each failure its time limit."""
    for i, inv in enumerate(workload.invocations):
        rec = p.records.get(i)
        if rec is None:
            why = "not run: the pass was stopped at its time budget"
        elif rec["timeout"]:
            why = f"timed out after {inv.limit_s:g} s"
        elif rec["error"]:
            why = rec["error"]
        else:
            # a failed verify exits 1 and still prints its rows: check those too
            wrong = checker.check(inv, rec["stdout"]) if rec["exit"] == 0 or rec["stdout"] else None
            p.wrong_output |= wrong is not None
            why = wrong
            if rec["exit"] != 0:
                why = f"exit code {rec['exit']}: {wrong or rec['stderr'].strip()[-300:]}"
        if why is None:
            p.wall_s += rec["elapsed_s"]
        else:
            p.wall_s += inv.limit_s
            p.failures.append(f"[{i}] {inv.label()[:120]}: {why}")


def _peak_rss(passes: List[Pass]) -> List[float]:
    """Per-pass peak RSS; a killed worker reports none, so fall back to the
    largest peak of any worker this run has waited for."""
    found = [p.peak_rss_mb for p in passes if p.peak_rss_mb is not None]
    return found or [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]


def _metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _metadata(seed: int) -> dict:
    sources = sorted((SRC / "negmom").glob("*.py"))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed,
            "source_lines": sum(len(f.read_bytes().splitlines()) for f in sources)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids, for the harness's self-test")
    args = parser.parse_args(argv)
    if not (SRC / "negmom" / "cli.py").is_file():
        sys.stderr.write(f"error: negmom sources not found under {SRC}\n")
        return 2
    specs = _metric_specs()
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    checker = workloads.Checker()
    start = time.monotonic()

    def budget() -> float:
        return RUN_BUDGET_S - (time.monotonic() - start)

    run_worker({"setup_only": True}, 60)      # compiles bytecode; not measured
    passes: List[Pass] = []
    setup: List[float] = []
    if args.trace:
        passes = [run_pass(workload, False, budget()), run_pass(workload, True, budget())]
    else:
        while True:
            passes.append(run_pass(workload, False, budget()))
            # spread set-up samples over the run, so they see what the passes see
            setup += [passes[-1].setup_s] + [run_worker({"setup_only": True}, 60).setup_s
                                             for _ in range(SETUP_SAMPLES)]
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds - passes[-1].duration_s / 2 or budget() <= 0:
                break

    for p in passes:
        grade(workload, p, checker)
    for n, p in enumerate(passes, 1):
        kind = "traced pass" if p.layers else "pass"
        print(f"# {kind} {n}: wall {p.wall_s:.3f} s, peak rss {p.peak_rss_mb} MB, "
              f"failed {len(p.failures)}/{len(workload.invocations)}")
        for f in p.failures:
            print(f"#   failed {f}")
    print("# meta " + json.dumps(_metadata(args.seed)))

    attempted = len(passes) * len(workload.invocations)
    failed = sum(len(p.failures) for p in passes)
    if args.trace:
        plain, traced = passes
        values = dict(traced.layers or {})
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        idle = [m for m in workload.dominant if not values.get(m)]
        if idle:
            sys.stderr.write(f"error: traced run recorded no calls for {idle}; "
                             "a wrapper missed a binding site\n")
            return 1
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"layers": values, "spans": traced.spans}, fh, indent=1)
        wanted = specs["per_layer"]
    else:
        values = {"wall_s": statistics.median(p.wall_s for p in passes),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(_peak_rss(passes)),
                  "ok_rate": (attempted - failed) / attempted}
        wanted = specs["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: no value for metrics {missing}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not any(p.wrong_output for p in passes),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
