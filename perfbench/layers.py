"""Per-layer tracing of clinelab, installed from outside the package.

`install()` replaces each traced function with a wrapper at every module
binding that holds it (a `from ... import` copies the binding, so patching
only the defining module would miss calls).  Each wrapper records a span
(name, start, end, parent) in flat in-memory arrays and keeps per-name
aggregates as it goes: calls, self time (duration minus the time covered by
child spans), and, where asked, the number of distinct argument payloads.
`RingElem.__mul__` is only counted.

Sweeps with --jobs > 1 run their blocks in forked pool workers, which
inherit the wrappers.  The worker entry points reset the tracer, run the
block and return the worker's aggregates and spans inside the block's
result; the parent merges them when the pool's results come back.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from array import array
from functools import wraps

# (module, function) -> options; "reuse" keeps distinct argument hashes.
TRACED = {
    ("rings", "commutant"): {"reuse": True},
    ("rings", "is_quasinilpotent"): {"reuse": True},
    ("rings", "nilpotency"): {"reuse": True},
    ("rings", "is_unit"): {"reuse": True},
    ("rings", "in_double_commutant"): {},
    ("linalg", "mat_mul"): {"split": "domain"},
    ("linalg", "rref"): {"split": "field"},
    ("linalg", "det_int"): {},
    ("drazin", "drazin_finite_ring"): {"reuse": True},
    ("drazin", "gdrazin_finite_ring"): {"reuse": True},
    ("drazin", "drazin_matrix"): {},
    ("drazin", "is_polynomial_in"): {},
    ("drazin", "drazin_certificate"): {},
    ("drazin", "gdrazin_certificate"): {},
    ("cline", "check_hypothesis"): {"holds": True},
    ("cline", "cline_drazin"): {},
    ("cline", "cline_gdrazin"): {},
    ("cline", "qnil_transfer"): {},
    ("cline", "nilpotency_transfer"): {},
    ("cline", "units_transfer"): {},
    ("cline", "jacobson_inverse"): {},
    ("cline", "power_transfer"): {},
    ("cline", "special_case_formula"): {},
    ("spectra", "char_poly"): {},
    ("serialize", "element_from_json"): {},
    ("serialize", "certificate_to_json"): {},
    ("serialize", "dumps_canonical"): {},
    ("cli", "main"): {},
}
WORKER_ENTRIES = ("_scan_block", "_scan_explicit")


def _payload_key(args, kwargs) -> int:
    return hash(tuple(
        (a.ctx.label, a.payload) if hasattr(a, "payload") else a
        for a in (*args, *kwargs.values())
    ))


class Tracer:
    """Spans and aggregates of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.mul_calls = [0]  # the counting __mul__ holds this very list
        self.reset()

    def reset(self):
        """Drop spans and zero the aggregates; names and their ids stay."""
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.child_time = array("d")
        self.stack: list[int] = []
        for name in self.names:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.distinct: dict[str, set] = {}
        self.holds: dict[str, int] = {}
        self.mul_calls[0] = 0

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return nid

    def wrap(self, fn, name: str, opts: dict):
        split = opts.get("split")
        reuse = opts.get("reuse", False)
        holds = opts.get("holds", False)
        perf = time.perf_counter
        fixed_id = None if split else self.name_id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if split:
                nid = self.name_id(f"{name}.{_classify(split, args)}")
            else:
                nid = fixed_id
            label = self.names[nid]
            if reuse:
                self.distinct.setdefault(label, set()).add(_payload_key(args, kwargs))
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.child_time.append(0.0)
            self.stack.append(idx)
            start = perf()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self.stack.pop()
                self.span_end[idx] = end
                dur = end - start
                if self.stack:
                    self.child_time[self.stack[-1]] += dur
                self.calls[label] += 1
                self.self_s[label] += dur - self.child_time[idx]
            if holds and result.holds:
                self.holds[label] = self.holds.get(label, 0) + 1
            return result

        return wrapper

    def export(self) -> dict:
        """Aggregates and spans, picklable, for merging into another tracer."""
        return {
            "names": list(self.names),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "distinct": {k: set(v) for k, v in self.distinct.items()},
            "holds": dict(self.holds),
            "mul_calls": self.mul_calls[0],
            "spans": (self.span_name, self.span_parent, self.span_start, self.span_end),
        }

    def merge(self, other: dict) -> None:
        remap = [self.name_id(n) for n in other["names"]]
        for k, v in other["calls"].items():
            self.calls[k] += v
        for k, v in other["self_s"].items():
            self.self_s[k] += v
        for k, v in other["distinct"].items():
            self.distinct.setdefault(k, set()).update(v)
        for k, v in other["holds"].items():
            self.holds[k] = self.holds.get(k, 0) + v
        self.mul_calls[0] += other["mul_calls"]
        names, parents, starts, ends = other["spans"]
        offset = len(self.span_start)
        self.span_name.extend(remap[n] for n in names)
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in parents)
        self.span_start.extend(starts)
        self.span_end.extend(ends)
        self.child_time.extend(0.0 for _ in names)

    def summary(self) -> dict:
        out = {"rings.mul": {"calls": self.mul_calls[0]}}
        for name in self.names:
            entry = {"calls": self.calls[name], "self_s": self.self_s[name]}
            if name in self.distinct:
                entry["distinct"] = len(self.distinct[name])
            if name in self.holds:
                entry["holds"] = self.holds[name]
            out[name] = entry
        return out

    def write_spans(self, path: str) -> None:
        """Binary dump: a names line, then the four span arrays."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            fh.write(len(self.span_start).to_bytes(8, "little"))
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _classify(split: str, args) -> str:
    dom = args[0]
    if split == "field":
        return "fp" if hasattr(dom, "n") else "q"
    if hasattr(dom, "n"):
        return "zmod"
    ints = all(v.denominator == 1 for m in args[1:3] for row in m for v in row)
    return "q_int" if ints else "q_frac"


def _modules(package):
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)
    yield package


def _rebind(package, original, replacement) -> int:
    count = 0
    for mod in _modules(package):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def install(package) -> Tracer:
    """Wrap every traced function of `package` (the imported clinelab)."""
    tracer = Tracer()
    for (modname, fname), opts in TRACED.items():
        mod = importlib.import_module(f"{package.__name__}.{modname}")
        original = getattr(mod, fname)
        wrapper = tracer.wrap(original, f"{modname}.{fname}", opts)
        if not _rebind(package, original, wrapper):
            raise RuntimeError(f"{modname}.{fname} has no binding to patch")

    rings = importlib.import_module(f"{package.__name__}.rings")
    mul = rings.RingElem.__mul__
    cell = tracer.mul_calls

    def counted_mul(self, other):
        cell[0] += 1
        return mul(self, other)

    rings.RingElem.__mul__ = counted_mul

    explorer = importlib.import_module(f"{package.__name__}.explorer")
    for fname in WORKER_ENTRIES:
        _rebind(package, getattr(explorer, fname), _worker_entry(tracer, getattr(explorer, fname)))
    parallel = explorer._parallel_scan

    @wraps(parallel)
    def merged_parallel_scan(*args, **kwargs):
        parts = parallel(*args, **kwargs)
        for part in parts:
            tracer.merge(part.pop("_trace"))
        return parts

    _rebind(package, parallel, merged_parallel_scan)
    return tracer


def _worker_entry(tracer: Tracer, fn):
    @wraps(fn)
    def entry(task):
        tracer.reset()  # a forked worker starts with a copy of the parent's
        part = fn(task)
        part["_trace"] = tracer.export()
        return part

    return entry
