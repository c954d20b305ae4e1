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
import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import islice
from operator import attrgetter

from .cline import (
    BACKWARD,
    FORWARD,
    HypothesisReport,
    _remember_hypothesis,
    check_hypothesis,
    cline_drazin,
    cline_gdrazin,
    example_29_triple,
    jacobson_inverse,
    nilpotency_transfer,
    power_transfer,
    qnil_transfer,
    special_case_formula,
    units_transfer,
)
from .drazin import drazin_certificate, gdrazin_certificate, group_inverse
from .errors import (
    BudgetExceeded,
    CertificationError,
    ContextMismatch,
    InputError,
    MissingInverse,
    ReadingValidationError,
    SweepViolation,
)
from .rings import (
    DEFAULT_TRIPLE_BUDGET,
    RingContext,
    _power_at_most,
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
#   AC_BA   (ac, ba): the quasinilpotency and nilpotency transfers and the
#           agreement of the Drazin and g-Drazin inverses of ac and of ba.
#   TRIPLE  (a, b, c): the special-case formula (ba)^d c = b (ac)^d.
#
# Each part returns True when it did substantive work.

AB_AC, A_C_BA, AC_BA, TRIPLE = range(4)


def _gdrazin_backward(a, b, c) -> bool:
    cline_gdrazin(a, b, c, BACKWARD)
    return True


def _gdrazin_forward(a, b, c) -> bool:
    cline_gdrazin(a, b, c, FORWARD)
    return True


def _drazin_backward(a, b, c) -> bool:
    cline_drazin(a, b, c, BACKWARD)
    return True


def _drazin_forward(a, b, c) -> bool:
    cline_drazin(a, b, c, FORWARD)
    return True


def _drazin_agreement(a, b, c) -> bool:
    for x in (a * c, b * a):
        cd = drazin_certificate(x)
        cg = gdrazin_certificate(x)
        if (cd is None) != (cg is None):
            raise CertificationError("Drazin exists but g-Drazin does not (or vice versa)")
        if cd is not None and cd.inverse != cg.inverse:
            raise CertificationError("Drazin and g-Drazin inverses disagree")
    return True


def _l21(a, b, c) -> bool:
    qnil_transfer(a, b, c)
    return True


def _l26(a, b, c) -> bool:
    nilpotency_transfer(a, b, c)
    return True


def _l31(a, b, c) -> bool:
    u_ac, _ = units_transfer(a, b, c)
    if u_ac:
        s = try_inverse(a.ctx.one() - a * c)
        jacobson_inverse(a, b, c, s)
    return True


def _c23(a, b, c) -> bool:
    power_transfer(a, b, c, 2)
    return True


def _c24(a, b, c) -> bool:
    if not check_hypothesis(a, b, c).strong_holds:
        return False
    special_case_formula(a, b, c)
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


def _c28_from_ac(a, b, c) -> bool:
    return _group_formula(a * c, b * a, b, a)


def _c28_from_ba(a, b, c) -> bool:
    return _group_formula(b * a, a * c, a, c)


_CHECKS = {
    "t22": ((AB_AC, _gdrazin_backward), (A_C_BA, _gdrazin_forward)),
    "t27": ((AB_AC, _drazin_backward), (A_C_BA, _drazin_forward), (AC_BA, _drazin_agreement)),
    "l21": ((AC_BA, _l21),),
    "l26": ((AC_BA, _l26),),
    "l31": ((AB_AC, _l31),),
    "c23": ((AB_AC, _c23),),
    "c24": ((TRIPLE, _c24),),
    "c28": ((AB_AC, _c28_from_ac), (A_C_BA, _c28_from_ba)),
}


@dataclass
class SweepReport:
    """Deterministic record of one sweep.

    elapsed_seconds is informational only and deliberately excluded from
    the canonical JSON so identical runs serialize byte-identically.
    """

    ring: str
    mode: str
    theorems: tuple
    triples_total: int
    triples_hypothesis: int
    triples_strong: int
    counters: dict
    separations_found: list
    seed: int | None = None
    requested: int | None = None
    elapsed_seconds: float = 0.0

    def to_json(self) -> dict:
        out = {
            "ring": self.ring,
            "mode": self.mode,
            "theorems": list(self.theorems),
            "triples_total": self.triples_total,
            "triples_hypothesis": self.triples_hypothesis,
            "triples_strong": self.triples_strong,
            "counters": {
                name: dict(vals) for name, vals in sorted(self.counters.items())
            },
            "separations_found": self.separations_found,
        }
        if self.mode == "sample":
            out["seed"] = self.seed
            out["requested"] = self.requested
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
    count = ctx.element_count
    ci = idx % count
    rest = idx // count
    bi = rest % count
    ai = rest // count
    return (
        ctx.element_by_index(ai),
        ctx.element_by_index(bi),
        ctx.element_by_index(ci),
    )


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


def _scan_indices(ctx, indices, selected):
    """Run the selected checks on the hypothesis triples among the sorted
    triple indices; returns partial tallies.

    Each check part runs once per distinct key of its family (see
    _CHECKS), keyed on element indices (payloads on a ring too large to
    index); checked and passed still count triples.  Index order puts a
    outermost, so the memos whose keys hold a are emptied when it changes
    and each memo holds at most |R|^2 keys.  Stops at the first violation,
    reporting it with the offending triple.
    """
    hypothesis = strong = 0
    counters = {name: {"checked": 0, "passed": 0} for name in selected}
    separations = []
    checks = [(name, _CHECKS[name]) for name in selected]
    memos = {part: {} for _, parts in checks for part in parts}
    ident = attrgetter("idx" if ctx.indexed else "payload")
    last_a = None
    for idx, a, b, c, report in _hypothesis_triples(ctx, indices):
        hypothesis += 1
        if report.strong_holds:
            strong += 1
        else:
            separations.append(triple_to_json(a, b, c))
        ai, bi, ci, aci, bai = map(ident, (a, b, c, a * c, b * a))
        if ai != last_a:
            last_a = ai
            for (family, _), memo in memos.items():
                if family != AC_BA:
                    memo.clear()
        keys = ((ai, bi, aci), (ai, ci, bai), (aci, bai), (ai, bi, ci))
        _remember_hypothesis(a, b, c, report)  # read by the checks' guards
        for name, parts in checks:
            ran = False
            try:
                for part in parts:
                    memo, key = memos[part], keys[part[0]]
                    done = memo.get(key)
                    if done is None:
                        # budget errors propagate: running out of
                        # enumeration room is not a counterexample
                        done = memo[key] = part[1](a, b, c)
                    ran |= done
            except (CertificationError, MissingInverse) as exc:
                return {
                    "examined": bisect_right(indices, idx),
                    "hypothesis": hypothesis,
                    "strong": strong,
                    "counters": counters,
                    "separations": separations,
                    "violation": (name, triple_to_json(a, b, c), str(exc)),
                }
            if ran:
                counters[name]["checked"] += 1
                counters[name]["passed"] += 1
    return {
        "examined": len(indices),
        "hypothesis": hypothesis,
        "strong": strong,
        "counters": counters,
        "separations": separations,
        "violation": None,
    }


def _scan_block(args):
    """Pool worker: scan one block of triple indices (a range or a list);
    the task's ring pickles as its factory call, e.g. matrix_ring(4, 2)."""
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
    indices from a seeded generator, so runs are reproducible.
    """
    if not ctx.is_finite_ring:
        raise ContextMismatch("sweeps need an enumerable finite ring")
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

    if jobs > 1:
        parts = _parallel_scan(ctx, indices, selected, jobs)
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
            name, triple_json, detail = part["violation"]
            raise SweepViolation(name, triple_json, detail)
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


def _parallel_scan(ctx, indices, selected, jobs: int):
    """Partition indices into contiguous blocks and scan them in workers.

    Exhaustive sweeps pass a range, whose slices are ranges and pickle in
    constant size; sampled sweeps pass their sorted index list.  Blocks
    merge in index order, so the outcome (including which violation wins:
    the lowest-index one) matches a sequential scan exactly, whatever the
    number of workers.  That number is capped at the CPU count: a pool
    starts all its workers at once.
    """
    workers = min(jobs, os.cpu_count() or 1)
    size = max(len(indices) // (workers * 4), 1)
    tasks = [
        (ctx, indices[i : i + size], selected) for i in range(0, len(indices), size)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_scan_block, tasks))
    out = []
    for part in results:
        out.append(part)
        if part["violation"] is not None:
            break
    return out


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


@dataclass
class Example29Report:
    """Everything the 6x6 separation triple is supposed to exhibit."""

    ring: str
    hypothesis_holds: bool
    strong_holds: bool
    x_nilpotency_index: int
    ac_drazin_index: int
    ba_drazin_index: int
    transfer_certified: bool
    one_minus_ac_unit: bool
    ba_inverse: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


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
    transfer = None
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
