"""Exhaustive and sampled sweeps over finite rings.

A sweep enumerates triples (a, b, c), finds the ones satisfying the quintic
hypothesis (on an indexed ring a class pair at a time, see _class_walk), and
runs the selected identity checks on each, every part of a check once per
distinct input it reads (see _CHECKS).  Any failure aborts immediately with
the offending triple serialized: one counterexample to a proved identity
means an implementation bug, and burying it in statistics would be a
footgun.  Reports are deterministic (byte-identical
JSON for identical inputs, including the sample seed and the worker count).
"""

from __future__ import annotations

import os
import random
import signal
import time
from bisect import bisect_right
from collections import namedtuple
from itertools import islice

from .cline import (
    BACKWARD,
    FORWARD,
    HypothesisReport,
    _remember_hypothesis,
    _special_case_holds,
    _special_case_inverses,
    check_hypothesis,
    cline_drazin,
    cline_gdrazin,
    example_29_triple,
    jacobson_inverse,
    nilpotency_transfer,
    power_transfer,
    qnil_transfer,
    units_transfer,
)
from .drazin import drazin_certificate, gdrazin_certificate, group_inverse
from .errors import (
    BudgetExceeded,
    CertificationError,
    ClineLabError,
    ContextMismatch,
    InputError,
    MissingInverse,
    ReadingValidationError,
    SweepViolation,
    WorkerFailure,
)
from .rings import (
    DEFAULT_TRIPLE_BUDGET,
    RingContext,
    _power_at_most,
    budget_block,
    enumeration_budget,
    is_unit,
    matrix_ring,
    nilpotency,
    require_budget,
    try_inverse,
)
from .serialize import element_to_json, triple_to_json

ALL_CHECKS = ("t22", "t27", "l21", "l26", "l31", "c23", "c24", "c28")
SAMPLE_SPACE_CAP = 2**2**16  # sampled sweeps draw from at most this many triples
# A sweep forks at most one worker per MIN_WORKER_TRIPLES triples, since
# each worker rebuilds the ring's product table and fills its own memos.
# In interleaved --jobs 1 / --jobs 2 CLI runs on 2 vCPUs (CPython 3.11),
# two workers won 12 of 24 runs on an 8,192-triple M_2(Z/4) sample, at
# +50% CPU, 21 of 34 on 16,384, 8 of 10 on 24,576 and 17 of 18 on 32,768
# (0.86 -> 0.68 s wall); M_2(Z/3) samples won 16/24, 20/24 and 9/10 of the
# first three.  Exhaustive sweeps of 4,096-8,000 triples won 8 of 28.
MIN_WORKER_TRIPLES = 2**13


# --- check parts ---------------------------------------------------------------
#
# A check is a sequence of parts.  Each part reads only the inputs its key
# family names, so a sweep runs it once per distinct key and reuses its
# verdict (whether it ran; a failure ends the sweep) on every later triple
# with that key.  Every part also reads the triple's hypothesis report, which
# holds wherever a sweep runs it.
#
#   AB_AC   (a, b, ac): the backward transfers (source ac, target ba, inverse
#           b d^2 a, core b(1 - ac d)a); the unit flags of 1 - ac and 1 - ba
#           and the Jacobson inverse built from s = (1 - ac)^-1; (ac)^2,
#           (ba)^2 and the substitution triple (a, bab, cac), whose products
#           read only a, ab and ac; the group-inverse formula from ac.
#   A_C_BA  (a, c, ba): the forward transfers and the group-inverse formula
#           from ba.
#   AC_BA   (ac, ba): the quasinilpotency and nilpotency transfers, the
#           agreement of the Drazin and g-Drazin inverses of ac and of ba,
#           and the g-Drazin inverses of ba and ac that c24 compares.
#   TRIPLE  (a, b, c): the special-case formula (ba)^d c = b (ac)^d.
#
# Each part is called as part(a, b, c, held) and returns True when it did
# substantive work.  held is the state a scan keeps for the triple's
# (ac, ba) key: its AC_BA parts may store there what the TRIPLE parts of
# every triple with that key read.

AB_AC, A_C_BA, AC_BA, TRIPLE = range(4)


def _gdrazin_backward(a, b, c, held) -> bool:
    cline_gdrazin(a, b, c, BACKWARD)
    return True


def _gdrazin_forward(a, b, c, held) -> bool:
    cline_gdrazin(a, b, c, FORWARD)
    return True


def _drazin_backward(a, b, c, held) -> bool:
    cline_drazin(a, b, c, BACKWARD)
    return True


def _drazin_forward(a, b, c, held) -> bool:
    cline_drazin(a, b, c, FORWARD)
    return True


def _drazin_agreement(a, b, c, held) -> bool:
    for x in (a * c, b * a):
        cd = drazin_certificate(x)
        cg = gdrazin_certificate(x)
        if (cd is None) != (cg is None):
            raise CertificationError("Drazin exists but g-Drazin does not (or vice versa)")
        if cd is not None and cd.inverse != cg.inverse:
            raise CertificationError("Drazin and g-Drazin inverses disagree")
    return True


def _l21(a, b, c, held) -> bool:
    qnil_transfer(a, b, c)
    return True


def _l26(a, b, c, held) -> bool:
    nilpotency_transfer(a, b, c)
    return True


def _l31(a, b, c, held) -> bool:
    u_ac, _ = units_transfer(a, b, c)
    if u_ac:
        s = try_inverse(a.ctx.one() - a * c)
        jacobson_inverse(a, b, c, s)
    return True


def _c23(a, b, c, held) -> bool:
    power_transfer(a, b, c, 2)
    return True


def _c24_inverses(a, b, c, held) -> bool:
    """Keep (ba)^d and (ac)^d for the comparisons of the key's triples; c24
    counts only the strong triples it compares, so this returns False."""
    held["c24"] = _special_case_inverses(b * a, a * c)
    return False


def _c24(a, b, c, held) -> bool:
    if not check_hypothesis(a, b, c).strong_holds:
        return False
    _special_case_holds(b, c, *held["c24"])
    return True


def _group_formula(x, y, left, right) -> bool:
    """y^D = left (x^#)^2 right whenever x has a group inverse x^#."""
    sharp = group_inverse(x)
    if sharp is None:
        return False
    other = drazin_certificate(y)
    if other is None or other.inverse != left * sharp.inverse * sharp.inverse * right:
        raise CertificationError("group-inverse transfer formula failed")
    return True


def _c28_from_ac(a, b, c, held) -> bool:
    return _group_formula(a * c, b * a, b, a)


def _c28_from_ba(a, b, c, held) -> bool:
    return _group_formula(b * a, a * c, a, c)


_CHECKS = {
    "t22": ((AB_AC, _gdrazin_backward), (A_C_BA, _gdrazin_forward)),
    "t27": ((AB_AC, _drazin_backward), (A_C_BA, _drazin_forward), (AC_BA, _drazin_agreement)),
    "l21": ((AC_BA, _l21),),
    "l26": ((AC_BA, _l26),),
    "l31": ((AB_AC, _l31),),
    "c23": ((AB_AC, _c23),),
    "c24": ((AC_BA, _c24_inverses), (TRIPLE, _c24)),
    "c28": ((AB_AC, _c28_from_ac), (A_C_BA, _c28_from_ba)),
}


class SweepReport(
    namedtuple(
        "SweepReport",
        "ring mode theorems triples_total triples_hypothesis triples_strong counters "
        "separations_found seed requested elapsed_seconds",
        defaults=(None, None, 0.0),
    )
):
    """Deterministic record of one sweep.

    elapsed_seconds is informational only and deliberately excluded from
    the canonical JSON so identical runs serialize byte-identically.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        out = self._asdict()
        del out["elapsed_seconds"]
        if self.mode != "sample":
            del out["seed"], out["requested"]
        out["theorems"] = list(self.theorems)
        out["counters"] = {name: dict(vals) for name, vals in sorted(self.counters.items())}
        return out


def _normalize_theorems(theorems) -> tuple:
    if theorems in (None, "all", ("all",), ["all"]):
        return ALL_CHECKS
    if isinstance(theorems, str):
        theorems = tuple(t.strip() for t in theorems.split(",") if t.strip())
    unknown = [t for t in theorems if t not in _CHECKS]
    if unknown:
        raise InputError(f"unknown theorem selection: {unknown} (known: {list(_CHECKS)})")
    return tuple(t for t in ALL_CHECKS if t in theorems)


def _triple_space(ctx: RingContext) -> int:
    """|R|^3, checked against the triple budget when it is to be walked whole."""
    require_budget(ctx, 3, "triples", DEFAULT_TRIPLE_BUDGET)
    return ctx.element_count**3


def _sample_space(ctx: RingContext) -> int:
    """|R|^3 for a sampled sweep, refused over SAMPLE_SPACE_CAP before it is
    built: drawing an index and reading its triple take time quadratic in
    its digit count."""
    n, exp = ctx.n, 3 * ctx.digits
    if not _power_at_most(n, exp, SAMPLE_SPACE_CAP):
        raise BudgetExceeded(
            f"{ctx.label}^3 has {n}^{exp} triples, over the sample bound "
            f"2^{SAMPLE_SPACE_CAP.bit_length() - 1}"
        )
    return ctx.element_count**3


def _triple_by_index(ctx: RingContext, idx: int):
    rest, ci = divmod(idx, ctx.element_count)
    ai, bi = divmod(rest, ctx.element_count)
    return ctx.element_by_index(ai), ctx.element_by_index(bi), ctx.element_by_index(ci)


def _class_walk(ctx, block: range):
    """(idx, a, b, c, report) for each hypothesis triple of a contiguous
    block of triple indices on an indexed ring, in index order.

    For a fixed a, p1 = (ab)(aba), p2 = (ab)(aca), p3 = (ac)(aba) and
    p4 = (ac)(aca) read b only through its class (ab, aba) and c only
    through its class (ac, aca), one partition of the ring.  So the
    hypothesis holds on every triple of a pair of classes or on none, and
    the pair shares one report.  p1 of the b class must equal p4 of the c
    class, and both are the map (x, X) -> xX applied to the class, so
    candidate pairs come from bucketing the classes on it.
    """
    elems = ctx.elements()
    n = len(elems)
    lo, hi = block.start, block.stop
    holds = (True,) * 6
    for ai in range(lo // n**2, -(-hi // n**2)):
        a = elems[ai]
        class_of = [(ay, ay * a) for ay in (a * y for y in elems)]
        members: dict = {}
        for y, key in zip(elems, class_of):
            members.setdefault(key, []).append(y)
        buckets: dict = {}
        for u, aba in members:
            buckets.setdefault(u * aba, []).append((u, aba))
        partners = {}
        for p, pairs in buckets.items():
            for u, aba in pairs:
                hits = []
                for v, aca in pairs:
                    if u * aca == p and v * aba == p:
                        report = HypothesisReport((p, p, p, p), True, aba == aca, holds)
                        hits += [(c.idx, c, report) for c in members[v, aca]]
                hits.sort(key=lambda hit: hit[0])
                partners[u, aba] = hits
        base = ai * n**2
        for bi in range(max(lo - base, 0) // n, min(-(-(hi - base) // n), n)):
            b = elems[bi]
            for ci, c, report in partners[class_of[bi]]:
                idx = base + bi * n + ci
                if lo <= idx < hi:
                    yield idx, a, b, c, report


def _hypothesis_triples(ctx, indices):
    """(idx, a, b, c, report) for each hypothesis triple among the sorted
    triple indices, in index order: a contiguous range on an indexed ring
    by the class walk, anything else by evaluating each triple."""
    if ctx.indexed and isinstance(indices, range):
        yield from _class_walk(ctx, indices)
        return
    for idx in indices:
        a, b, c = _triple_by_index(ctx, idx)
        report = check_hypothesis(a, b, c)
        if report.holds:
            yield idx, a, b, c, report


def _run_parts(parts, a, b, c, held) -> int:
    """Run (name, bit, part) entries on a triple, in order; the bits of the
    checks that did substantive work.  A failing part raises SweepViolation
    naming its check and the triple."""
    mask = 0
    for name, bit, part in parts:
        try:
            if part(a, b, c, held):
                mask |= bit
        except (CertificationError, MissingInverse) as exc:
            raise SweepViolation(name, triple_to_json(a, b, c), str(exc))
    return mask


def _scan_indices(ctx, indices, selected):
    """Run the selected checks on the hypothesis triples among the sorted
    triple indices; returns partial tallies.

    Each key family (see _CHECKS) has one memo.  On the first triple with a
    new key, the family's parts of every selected check run together, in
    check order, and the memo keeps the bitmask of the checks that did
    work; TRIPLE parts run on every triple.  The families run in the order
    AC_BA, AB_AC, A_C_BA, TRIPLE, so the held state of a new (ac, ba) key
    exists before any part reads it.  A triple's mask is the OR of its
    families' masks, and checked and passed count triples from the tally
    of masks.  Keys are element indices (payloads on a ring too large to
    index), and on an indexed ring ac and ba are read off its product
    arithmetic.  Index order puts a outermost, so the two memos whose keys
    hold a are emptied when it changes and keyed without it, and each memo
    holds at most |R|^2 keys.  The ring's element budget is read once, as
    the block starts (rings.budget_block).  Stops at the first violation,
    reporting it with the offending triple; counters then count the
    triples before it.
    """
    family_parts = {family: [] for family in (AB_AC, A_C_BA, AC_BA, TRIPLE)}
    for pos, name in enumerate(selected):
        for family, part in _CHECKS[name]:
            family_parts[family].append((name, 1 << pos, part))
    b_parts, c_parts, pair_parts, triple_parts = (
        family_parts[f] for f in (AB_AC, A_C_BA, AC_BA, TRIPLE)
    )
    by_b: dict = {}  # AB_AC, keyed (b, ac) for the current a
    by_c: dict = {}  # A_C_BA, keyed (c, ba) for the current a
    by_pair: dict = {}  # AC_BA, keyed (ac, ba): (mask, held)
    tally = [0] * (1 << len(selected))
    hypothesis = strong = 0
    separations = []
    violation = None
    indexed, product = ctx.indexed, ctx._product
    last_a = None
    # only a violation ends the scan with a report; budget errors propagate,
    # since running out of enumeration room is not a counterexample
    with budget_block(ctx):
        try:
            for idx, a, b, c, report in _hypothesis_triples(ctx, indices):
                hypothesis += 1
                if report.strong_holds:
                    strong += 1
                else:
                    separations.append(triple_to_json(a, b, c))
                if indexed:
                    ai, bi, ci = a.idx, b.idx, c.idx
                    aci, bai = product(ai, ci).idx, product(bi, ai).idx
                else:
                    ai, bi, ci = a.payload, b.payload, c.payload
                    aci, bai = (a * c).payload, (b * a).payload
                if ai != last_a:
                    last_a = ai
                    by_b.clear()
                    by_c.clear()
                _remember_hypothesis(a, b, c, report)  # read by the checks' guards
                pair = by_pair.get((aci, bai))
                if pair is None:
                    held = {}
                    pair = by_pair[aci, bai] = (_run_parts(pair_parts, a, b, c, held), held)
                mask, held = pair
                done = by_b.get((bi, aci))
                if done is None:
                    done = by_b[bi, aci] = _run_parts(b_parts, a, b, c, held)
                mask |= done
                done = by_c.get((ci, bai))
                if done is None:
                    done = by_c[ci, bai] = _run_parts(c_parts, a, b, c, held)
                mask |= done
                if triple_parts:
                    mask |= _run_parts(triple_parts, a, b, c, held)
                tally[mask] += 1
            examined = len(indices)
        except SweepViolation as exc:
            examined = bisect_right(indices, idx)
            violation = (exc.check, exc.triple_json, exc.detail)
    counters = {}
    for pos, name in enumerate(selected):
        count = sum(n for mask, n in enumerate(tally) if mask >> pos & 1)
        counters[name] = {"checked": count, "passed": count}
    return {
        "examined": examined,
        "hypothesis": hypothesis,
        "strong": strong,
        "counters": counters,
        "separations": separations,
        "violation": violation,
    }


def _scan_block(args):
    """Worker entry: _scan_indices on a (ring, block, selected) task."""
    return _scan_indices(*args)


_scan_explicit = _scan_block  # perfbench/layers.py wraps the worker by both names


def sweep(
    ctx: RingContext,
    theorems="all",
    mode: str = "exhaustive",
    seed: int | None = None,
    count: int | None = None,
    jobs: int = 1,
) -> SweepReport:
    """Verify the selected identities on every hypothesis triple.

    mode "exhaustive" walks all |R|^3 triples in lexicographic payload
    order (guarded by the triple budget); mode "sample" draws `count`
    indices from a seeded generator, so runs are reproducible.  jobs is
    the number of worker processes asked for, at least 1.  The sweep forks
    W = min(jobs, usable CPUs, triples // MIN_WORKER_TRIPLES) of them, and
    scans in process when W <= 1.
    """
    if not ctx.is_finite_ring:
        raise ContextMismatch("sweeps need an enumerable finite ring")
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    selected = _normalize_theorems(theorems)
    started = time.perf_counter()
    if mode == "exhaustive":
        indices = range(_triple_space(ctx))
        seed_out = requested = None
    elif mode == "sample":
        if seed is None or count is None:
            raise InputError("sample mode needs both seed and count")
        if count < 0:
            raise InputError(f"count must be non-negative, got {count}")
        budget = enumeration_budget(DEFAULT_TRIPLE_BUDGET)
        if count > budget:
            raise BudgetExceeded(f"a sample of {count} triples is over the budget {budget}")
        rng = random.Random(seed)
        total_space = _sample_space(ctx)
        indices = sorted({rng.randrange(total_space) for _ in range(count)})
        seed_out, requested = seed, count
    else:
        raise InputError("mode must be 'exhaustive' or 'sample'")

    workers = min(jobs, _usable_cpus(), len(indices) // MIN_WORKER_TRIPLES)
    if workers > 1:
        parts = _parallel_scan(ctx, indices, selected, workers)
    else:
        parts = [_scan_indices(ctx, indices, selected)]

    counters = {name: {"checked": 0, "passed": 0} for name in selected}
    examined = hypothesis = strong = 0
    separations = []
    for part in parts:
        examined += part["examined"]
        hypothesis += part["hypothesis"]
        strong += part["strong"]
        for name in selected:
            counters[name]["checked"] += part["counters"][name]["checked"]
            counters[name]["passed"] += part["counters"][name]["passed"]
        separations.extend(part["separations"])
        if part["violation"] is not None:
            raise SweepViolation(*part["violation"])
    return SweepReport(
        ring=ctx.label,
        mode=mode,
        theorems=selected,
        triples_total=examined,
        triples_hypothesis=hypothesis,
        triples_strong=strong,
        counters=counters,
        separations_found=separations,
        seed=seed_out,
        requested=requested,
        elapsed_seconds=time.perf_counter() - started,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_scan(ctx, indices, selected, workers: int):
    """Scan contiguous blocks of indices in W = workers forked processes,
    worker k taking blocks k, k + W, ... (_sweep_worker).  Blocks
    merge in index order, so the outcome (including which violation wins:
    the lowest-index one) matches a sequential scan whatever W is.  A
    worker's ClineLabError is re-raised; a worker that dies or raises
    anything else ends the sweep with WorkerFailure.

    SIGINT is blocked while forking and takes its default action in the
    workers, so Ctrl-C ends them at once and the parent's KeyboardInterrupt
    reaches cli.main.  However the parent leaves, it kills and reaps every
    worker still running, so a SIGINT to it alone leaves none behind.
    """
    if not hasattr(os, "fork"):
        raise InputError("--jobs above 1 needs os.fork, which this platform lacks")
    import pickle

    size = max(len(indices) // (workers * 4), 1)
    tasks = [(ctx, indices[i : i + size], selected) for i in range(0, len(indices), size)]
    parts = {}  # block -> its part
    running = {}  # pid -> the read end of its pipe
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        for first in range(min(workers, len(tasks))):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _sweep_worker(tasks, first, workers, write_end)
            os.close(write_end)
            running[pid] = open(read_end, "rb")
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for pid, fh in list(running.items()):
            with fh:
                data = fh.read()
            del running[pid]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status == -signal.SIGINT:  # Ctrl-C ended the worker first
                raise KeyboardInterrupt
            if status or not data:
                raise WorkerFailure("a sweep worker process died before it finished its block")
            sent = pickle.loads(data)
            if isinstance(sent, ClineLabError):
                raise sent
            if isinstance(sent, str):
                raise WorkerFailure(f"a sweep worker failed: {sent}")
            parts.update(sent)
    finally:
        for pid, fh in running.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    out = []
    for _, part in sorted(parts.items()):
        out.append(part)
        if part["violation"] is not None:
            break
    return out


def _sweep_worker(tasks, first: int, step: int, write_end: int):
    """A forked sweep worker's body, which never returns: scan the blocks
    first, first + step, ... by _scan_block, read from the module so that a
    wrapper installed there runs, and write one pickle to write_end: a list
    of (block, part), the ClineLabError raised, or "Type: message"."""
    import pickle

    try:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        try:
            sent = [(k, _scan_block(tasks[k])) for k in range(first, len(tasks), step)]
        except ClineLabError as exc:
            sent = exc
        except Exception as exc:
            sent = f"{type(exc).__name__}: {' '.join(str(exc).split())}"
        with open(write_end, "wb") as fh:
            pickle.dump(sent, fh)
        os._exit(0)
    finally:
        os._exit(1)  # reached only when the pickle was not written whole


def find_separation(ctx: RingContext, limit: int):
    """Up to `limit` triples with the hypothesis but aba != aca, in
    deterministic enumeration order; none for limit 0."""
    if not ctx.is_finite_ring:
        raise ContextMismatch("separation search needs a finite ring")
    if limit < 0:
        raise InputError(f"limit must be non-negative, got {limit}")
    found = (
        (a, b, c)
        for _, a, b, c, report in _hypothesis_triples(ctx, range(_triple_space(ctx)))
        if not report.strong_holds
    )
    return list(islice(found, limit))


class Example29Report(
    namedtuple(
        "Example29Report",
        "ring hypothesis_holds strong_holds x_nilpotency_index ac_drazin_index "
        "ba_drazin_index transfer_certified one_minus_ac_unit ba_inverse",
    )
):
    """Everything the 6x6 separation triple is supposed to exhibit."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


def verify_example_29() -> Example29Report:
    """Reproduce the separating 6x6 example end to end.

    Asserts: the quintic hypothesis holds while aba != aca; the 3x3 block
    x has nilpotency index exactly 3; ac is Drazin invertible; and the
    Drazin transfer formula certifies the inverse of ba.  Any failure is
    a reading discrepancy and raises instead of being papered over.
    """
    a, b, c = example_29_triple()
    ctx = a.ctx
    report = check_hypothesis(a, b, c)
    failures = []
    if not report.holds:
        failures.append("quintic hypothesis fails")
    if report.strong_holds:
        failures.append("aba = aca unexpectedly holds (not a separation)")
    x = matrix_ring(2, 3).elem(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    xw = nilpotency(x)
    if not (xw.is_nilpotent and xw.index == 3):
        failures.append(f"x nilpotency witness wrong: {xw}")
    ac_cert = drazin_certificate(a * c)
    if ac_cert is None:
        failures.append("ac has no Drazin inverse")
    if not failures:
        try:
            transfer = cline_drazin(a, b, c, "backward")
        except CertificationError as exc:
            failures.append(f"transfer failed to certify: {exc}")
    if failures:
        raise ReadingValidationError(
            "Example construction does not match its description: "
            + "; ".join(failures)
        )
    return Example29Report(
        ring=ctx.label,
        hypothesis_holds=report.holds,
        strong_holds=report.strong_holds,
        x_nilpotency_index=xw.index,
        ac_drazin_index=ac_cert.index,
        ba_drazin_index=transfer.target.index,
        transfer_certified=True,
        one_minus_ac_unit=is_unit(ctx.one() - a * c),
        ba_inverse=element_to_json(transfer.target.inverse),
    )
