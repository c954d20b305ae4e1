"""One timed repetition, run in a fresh interpreter by run.py.

    python3 perfbench/rep.py PLAN.json RESULT.json

The plan names the ring contexts to build, the input files to parse and the
CLI argv lists to run in order.  Set-up (importing clinelab, building the
contexts, parsing every input through `serialize`) is timed first; then
each argv goes through `clinelab.cli.main` in this process, one after the
other (a closed loop with one client), with stdout and stderr captured.
With "trace" set, the layer wrappers are installed between the two phases.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _setup(plan: dict):
    start = time.perf_counter()
    import clinelab
    import clinelab.cli
    from clinelab.serialize import element_from_json, triple_from_json

    for spec in plan["contexts"]:
        if spec[0] == "q":
            clinelab.rationals_matrix(spec[1])
        else:
            clinelab.matrix_ring(spec[1], spec[2])
    for kind, path in plan["inputs"]:
        with open(path, encoding="utf-8") as fh:
            literal = json.load(fh)
        (triple_from_json if kind == "triple" else element_from_json)(literal)
    return clinelab, time.perf_counter() - start


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    clinelab, setup_s = _setup(plan)

    tracer = None
    if plan.get("trace"):
        sys.path.insert(0, HERE)
        import layers

        tracer = layers.install(clinelab)

    ops = []
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    for argv in plan["ops"]:
        out, err = io.StringIO(), io.StringIO()
        issued = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = clinelab.cli.main(argv)
            except Exception as exc:  # counted as a failed operation
                code = f"exception: {type(exc).__name__}: {exc}"
        ops.append({
            "latency_s": time.perf_counter() - issued,
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
        })
    work_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0

    peak_kb = sum(resource.getrusage(w).ru_maxrss
                  for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "setup_s": setup_s,
        "work_s": work_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(plan["trace"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
