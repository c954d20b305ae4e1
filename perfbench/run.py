"""The clinelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record SEEDS     (e.g. 0-20: rewrite expected.json)

Run it from anywhere; it finds the checkout from its own location and runs
clinelab from the checkout's `src/` without installing it.  Workloads,
metric names and units come from BENCHMARK.json.

Every timed repetition runs in a fresh interpreter (`rep.py`), because
clinelab's ring contexts are process-wide caches that never evict: a second
repetition in one process would measure a warmer, larger heap.  A run makes
timed repetitions for about --seconds, with SETUP_REPS set-up-only
repetitions between them, and reports medians over repetitions.  Every
output is checked (`check.py`); a wrong answer counts as a failed operation.

--trace 1 instead makes one untraced and two traced repetitions and prints
the per-layer metrics (`layers.py`) and the tracing overhead; the two traced
repetitions must agree on every call and distinct-argument count where the
workload is deterministic.  sample_mat2z4 adds one untraced --jobs 1
repetition of the same sample as the baseline of the parallel metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  A record of the run, with every repetition's raw values, goes
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

SETUP_REPS = 10
MIN_REPS = 2
REP_TIMEOUT_S = 150
DETERMINISTIC_TRACE = ("sweep_mat2z2", "q_certify")


# --- plans --------------------------------------------------------------------


def _sweep_plan(workload: str, seed: int) -> dict:
    import check
    import gen

    if workload == "sweep_mat2z2":
        argv = ["explore", "sweep", "--ring", "mat2z2", "--jobs", "1"]
        want = check.expected_sweep(2, range(16**3))
        counts = (want["triples_total"], want["triples_hypothesis"],
                  want["triples_strong"], len(want["separations_found"]))
        if counts != check.MAT2Z2_COUNTS:
            raise AssertionError(f"oracle disagrees with the known mat2z2 counts: {counts}")
        contexts = [["matzmod", 2, 2]]
    else:
        sample_seed, count = gen.sample_params(seed)
        argv = ["explore", "sweep", "--ring", "mat2z4", "--mode", "sample",
                "--seed", str(sample_seed), "--count", str(count), "--jobs", "2"]
        want = check.expected_sweep(4, check.sample_indices(4, sample_seed, count))
        contexts = [["matzmod", 4, 2]]
    return {"contexts": contexts, "inputs": [], "ops": [argv], "want": want}


def _query_plan(seed: int, work: str) -> dict:
    import gen

    queries = gen.q_certify_queries(seed)
    contexts, inputs, ops = set(), [], []
    for q in queries:
        argv = []
        for arg in q["argv"]:
            if arg.startswith("{"):
                key = arg[1:-1]
                literal = q["files"][key]
                path = os.path.join(work, f"q{q['index']:03d}_{key}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(literal, fh)
                inputs.append(["triple" if "a" in literal else "element", path])
                first = literal["a"] if "a" in literal else literal
                size = len(first["entries"])
                contexts.add(("q", size) if first["ring"]["type"] == "Q" else ("matzmod", 2, size))
                arg = path
            argv.append(arg)
        ops.append(argv)
    return {"contexts": sorted(contexts), "inputs": inputs, "ops": ops, "queries": queries}


def make_plan(workload: str, seed: int, work: str) -> dict:
    if workload == "q_certify":
        plan = _query_plan(seed, work)
    else:
        plan = _sweep_plan(workload, seed)
    plan["src"] = SRC
    return plan


# --- repetitions ----------------------------------------------------------------


def run_rep(plan: dict, work: str, ops: bool = True, trace: str | None = None) -> dict:
    """One repetition in a fresh interpreter; waits for it to end."""
    body = {k: plan[k] for k in ("src", "contexts", "inputs")}
    body["ops"] = plan["ops"] if ops else []
    body["trace"] = trace
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    started = time.perf_counter()
    # its own session, so a hung repetition goes down with its pool workers
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), plan_path, result_path],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"repetition took over {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"repetition crashed (exit {proc.returncode}): {err[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["process_s"] = time.perf_counter() - started
    return result


def measure(plan: dict, work: str, seconds: int, checker) -> tuple[list, list]:
    """Timed repetitions for about `seconds`, with the set-up-only
    repetitions spread between them so both sample the same stretch of
    machine time.  Another repetition starts while it would end no more
    than half a repetition past the deadline."""
    setups, reps = [], []
    started = time.perf_counter()
    while True:
        reps.append(run_rep(plan, work))
        checker(reps[-1], str(len(reps) - 1))
        elapsed = time.perf_counter() - started
        while len(setups) < SETUP_REPS * min(1.0, elapsed / seconds):
            setups.append(run_rep(plan, work, ops=False)["setup_s"])
        last = reps[-1]["process_s"]
        if len(reps) >= MIN_REPS and time.perf_counter() - started + last / 2 > seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(run_rep(plan, work, ops=False)["setup_s"])
    return setups, reps


class Checker:
    """Checks every operation of every repetition and counts failures."""

    def __init__(self, workload: str, seed: int, plan: dict):
        with open(EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.workload, self.seed, self.plan = workload, seed, plan
        self.attempted = self.failed = 0
        self.passed = set()  # (op index, exit code, stdout) already verified

    def __call__(self, rep: dict, label: str) -> None:
        import check

        for i, op in enumerate(rep["ops"]):
            self.attempted += 1
            key = (i, op["exit"], op["stdout"])
            if key in self.passed:
                continue
            if self.workload == "q_certify":
                reason = check.check_query(self.plan["queries"][i], op, self.expected, self.seed)
            else:
                # sweep_mat2z2 does not depend on the seed: one digest
                key = "stdout" if self.workload == "sweep_mat2z2" else str(self.seed)
                recorded = self.expected[self.workload].get(key)
                reason = check.check_sweep(op, self.plan["want"], recorded)
            if reason is None:
                self.passed.add(key)
            else:
                self.failed += 1
                print(f"FAIL workload={self.workload} seed={self.seed} rep={label} "
                      f"query={i}: {reason}", file=sys.stderr)


# --- metrics ----------------------------------------------------------------------


def _quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, n=100)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(plan: dict, setups: list, reps: list) -> dict:
    # certified (hypothesis) triples per second on sweeps, queries on q_certify
    items = plan["want"]["triples_hypothesis"] if "want" in plan else len(plan["ops"])
    # percentiles over the distinct requests, each timed as its median over
    # repetitions; a sweep is one request, so its p50 and p90 coincide
    latencies_ms = [statistics.median(times) * 1000
                    for times in zip(*([op["latency_s"] for op in r["ops"]] for r in reps))]
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(items / r["work_s"] for r in reps),
        "latency_p50_ms": _quantile(latencies_ms, 50),
        "latency_p90_ms": _quantile(latencies_ms, 90),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(names: list, traced: list, base: dict, serial: dict | None) -> dict:
    """Per-layer metrics named module.function[.split].stat."""
    first = traced[0]["layers"]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value = statistics.mean(r["work_s"] for r in traced) - base["work_s"]
        elif name == "explorer.parallel_speedup":
            value = serial["work_s"] / base["work_s"] if serial else 0.0
        elif name == "explorer.parallel_cpu_ratio":
            value = base["cpu_s"] / serial["cpu_s"] if serial else 0.0
        else:
            key, stat = name.rsplit(".", 1)
            entry = first.get(key, {})
            calls = entry.get("calls", 0)
            if stat == "self_s":
                value = statistics.mean(r["layers"].get(key, {}).get("self_s", 0.0) for r in traced)
            elif stat == "calls":
                value = calls
            elif stat == "reuse":
                value = 1 - entry["distinct"] / calls if calls else 0.0
            elif stat == "holds_ratio":
                value = entry.get("holds", 0) / calls if calls else 0.0
            else:
                raise KeyError(f"unknown layer statistic in {name}")
        out[name] = value
    return out


def _trace_counts(layers: dict) -> dict:
    return {k: (v.get("calls"), v.get("distinct")) for k, v in layers.items()}


# --- run record ---------------------------------------------------------------------


def _commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def _src_fingerprint():
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, files in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _strip_ops(rep: dict) -> dict:
    """The raw values of a repetition without the (already checked) outputs."""
    slim = {k: v for k, v in rep.items() if k not in ("ops", "layers")}
    slim["latencies_s"] = [op["latency_s"] for op in rep["ops"]]
    slim["exits"] = [op["exit"] for op in rep["ops"]]
    return slim


# --- main --------------------------------------------------------------------------


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, seconds: int, trace: bool) -> int:
    spec = _load_benchmark()
    if workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    src_sha, src_lines = _src_fingerprint()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "src_sha256": src_sha, "src_lines": src_lines,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = make_plan(workload, seed, work)
        checker = Checker(workload, seed, plan)
        if trace:
            base = run_rep(plan, work)
            checker(base, "untraced")
            spans = os.path.join(OUT, f"spans_{workload}.bin")
            traced = []
            for i in range(2):
                traced.append(run_rep(plan, work, trace=spans))
                checker(traced[-1], f"traced{i}")
            serial = None
            if workload == "sample_mat2z4":
                serial_plan = dict(plan, ops=[plan["ops"][0][:-1] + ["1"]])
                serial = run_rep(serial_plan, work)
                checker(serial, "jobs1")
            if workload in DETERMINISTIC_TRACE:
                a, b = (_trace_counts(r["layers"]) for r in traced)
                if a != b:
                    checker.failed += 1
                    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                    print(f"FAIL workload={workload} seed={seed}: traced counts differ "
                          f"between two runs: {diff}", file=sys.stderr)
            metrics = per_layer([m["name"] for m in metric_specs], traced, base, serial)
            record["reps"] = {"untraced": _strip_ops(base),
                              "traced": [_strip_ops(r) for r in traced],
                              "jobs1": serial and _strip_ops(serial)}
            record["layers"] = [r["layers"] for r in traced]
        else:
            setups, reps = measure(plan, work, seconds, checker)
            metrics = end_to_end(plan, setups, reps)
            record["reps"] = [_strip_ops(r) for r in reps]
            record["setup_only_s"] = setups
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(loadavg_end=os.getloadavg(), attempted=checker.attempted,
                  failed=checker.failed, metrics=metrics)
    error_rate = checker.failed / checker.attempted
    record["error_rate"] = error_rate
    with open(os.path.join(OUT, f"record_{workload}_seed{seed}_trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    units = {m["name"]: m["unit"] for m in metric_specs}
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    print(f"{workload} error_rate {error_rate:.6g} ({checker.failed}/{checker.attempted})")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def record_digests(seeds) -> int:
    """Rewrite expected.json from the code in this checkout, after checking
    every output with the oracle; run it only on a commit known to be right."""
    import check

    expected = {"sweep_mat2z2": {}, "sample_mat2z4": {}, "q_certify": {}, "spectra_example": {}}
    _write_expected(expected)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        import gen

        examples = {"src": SRC, "contexts": [], "inputs": [],
                    "ops": [["spectra", "example", "--n", str(n)] for n in gen.SPECTRA_EXAMPLE_SIZES]}
        for n, op in zip(gen.SPECTRA_EXAMPLE_SIZES, run_rep(examples, work)["ops"]):
            expected["spectra_example"][str(n)] = check.digest(op["exit"], op["stdout"])
        _write_expected(expected)  # the q_certify checks below look these up
        todo = [("sweep_mat2z2", 0)] + [(w, s) for s in seeds for w in ("sample_mat2z4", "q_certify")]
        for workload, seed in todo:
            plan = make_plan(workload, seed, work)
            checker = Checker(workload, seed, plan)
            rep = run_rep(plan, work)
            checker(rep, "record")
            if checker.failed:
                print(f"not recording {workload} seed {seed}: outputs fail their checks",
                      file=sys.stderr)
                return 1
            digests = [check.digest(op["exit"], op["stdout"]) for op in rep["ops"]]
            if workload == "q_certify":
                expected["q_certify"][str(seed)] = digests
            elif workload == "sample_mat2z4":
                expected["sample_mat2z4"][str(seed)] = digests[0]
            else:
                expected["sweep_mat2z2"]["stdout"] = digests[0]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _write_expected(expected)
    return 0


def _write_expected(expected: dict) -> None:
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS", help="first-last seed range to record")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "clinelab", "__init__.py")):
        print(f"no clinelab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record:
        first, _, last = args.record.partition("-")
        return record_digests(range(int(first), int(last or first) + 1))
    if not args.workload:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
