"""Exhaustive and sampled sweeps over finite rings.

A sweep enumerates triples (a, b, c), finds the ones satisfying the quintic
hypothesis, and re-runs the selected identity checks on each.  Any failure
aborts immediately with the offending triple serialized: one counterexample
to a proved identity means an implementation bug, and burying it in
statistics would be a footgun.  Reports are deterministic (byte-identical
JSON for identical inputs, including the sample seed and the worker count).
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .cline import (
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
    is_unit,
    matrix_ring,
    nilpotency,
    require_budget,
    try_inverse,
    zmod,
)
from .serialize import element_to_json, triple_to_json

ALL_CHECKS = ("t22", "t27", "l21", "l26", "l31", "c23", "c24", "c28")
SAMPLE_SPACE_CAP = 2**2**16  # sampled sweeps draw from at most this many triples


# --- per-triple checks; each returns True when it did substantive work ----


def _check_t22(a, b, c) -> bool:
    cline_gdrazin(a, b, c, "backward")
    cline_gdrazin(a, b, c, "forward")
    return True


def _check_t27(a, b, c) -> bool:
    cline_drazin(a, b, c, "backward")
    cline_drazin(a, b, c, "forward")
    for x in (a * c, b * a):
        cd = drazin_certificate(x)
        cg = gdrazin_certificate(x)
        if (cd is None) != (cg is None):
            raise CertificationError("Drazin exists but g-Drazin does not (or vice versa)")
        if cd is not None and cd.inverse != cg.inverse:
            raise CertificationError("Drazin and g-Drazin inverses disagree")
    return True


def _check_l21(a, b, c) -> bool:
    qnil_transfer(a, b, c)
    return True


def _check_l26(a, b, c) -> bool:
    nilpotency_transfer(a, b, c)
    return True


def _check_l31(a, b, c) -> bool:
    u_ac, _ = units_transfer(a, b, c)
    if u_ac:
        s = try_inverse(a.ctx.one() - a * c)
        jacobson_inverse(a, b, c, s)
    return True


def _check_c23(a, b, c) -> bool:
    power_transfer(a, b, c, 2)
    return True


def _check_c24(a, b, c) -> bool:
    if not check_hypothesis(a, b, c).strong_holds:
        return False
    special_case_formula(a, b, c)
    return True


def _check_c28(a, b, c) -> bool:
    ran = False
    for x, y, left, right in ((a * c, b * a, b, a), (b * a, a * c, a, c)):
        sharp = group_inverse(x)
        if sharp is None:
            continue
        ran = True
        other = drazin_certificate(y)
        if other is None or other.inverse != left * sharp.inverse * sharp.inverse * right:
            raise CertificationError("group-inverse transfer formula failed")
    return ran


_CHECKS = {
    "t22": _check_t22,
    "t27": _check_t27,
    "l21": _check_l21,
    "l26": _check_l26,
    "l31": _check_l31,
    "c23": _check_c23,
    "c24": _check_c24,
    "c28": _check_c28,
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


def _ring_spec(ctx: RingContext):
    from .rings import MatrixRingContext, ZModContext

    if isinstance(ctx, ZModContext):
        return ("zmod", ctx.n)
    if isinstance(ctx, MatrixRingContext):
        return ("matzmod", ctx.n, ctx.size)
    raise ContextMismatch("sweeps need an enumerable finite ring")


def _ring_from_spec(spec) -> RingContext:
    if spec[0] == "zmod":
        return zmod(spec[1])
    return matrix_ring(spec[1], spec[2])


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


def _scan_indices(ctx, indices, selected):
    """Run checks over the given triple indices; returns partial tallies.

    Stops at the first violation, reporting it with the offending triple.
    """
    hypothesis = strong = 0
    counters = {name: {"checked": 0, "passed": 0} for name in selected}
    separations = []
    examined = 0
    for idx in indices:
        a, b, c = _triple_by_index(ctx, idx)
        examined += 1
        report = check_hypothesis(a, b, c)
        if not report.holds:
            continue
        hypothesis += 1
        if report.strong_holds:
            strong += 1
        else:
            separations.append(triple_to_json(a, b, c))
        for name in selected:
            try:
                # budget errors propagate: running out of enumeration room
                # is not a counterexample
                ran = _CHECKS[name](a, b, c)
            except (CertificationError, MissingInverse) as exc:
                return {
                    "examined": examined,
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
        "examined": examined,
        "hypothesis": hypothesis,
        "strong": strong,
        "counters": counters,
        "separations": separations,
        "violation": None,
    }


def _scan_block(args):
    """Pool worker: scan one block of triple indices (a range or a list)."""
    spec, indices, selected = args
    return _scan_indices(_ring_from_spec(spec), indices, selected)


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
    spec = _ring_spec(ctx)
    workers = min(jobs, os.cpu_count() or 1)
    size = max(len(indices) // (workers * 4), 1)
    tasks = [
        (spec, indices[i : i + size], selected) for i in range(0, len(indices), size)
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
    deterministic enumeration order."""
    if not ctx.is_finite_ring:
        raise ContextMismatch("separation search needs a finite ring")
    found = []
    for idx in range(_triple_space(ctx)):
        a, b, c = _triple_by_index(ctx, idx)
        report = check_hypothesis(a, b, c)
        if report.holds and not report.strong_holds:
            found.append((a, b, c))
            if len(found) >= limit:
                break
    return found


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
