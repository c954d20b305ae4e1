"""Sweeps, separation search, and the end-to-end example verification."""

import functools
import hashlib
import itertools
import os

import pytest
from oracles import index_by_digits, scan_per_triple

import clinelab.explorer as explorer
import clinelab.rings as rings

from clinelab import (
    BudgetExceeded,
    CertificationError,
    InputError,
    SweepViolation,
    check_hypothesis,
    drazin_finite_ring,
    example_29_triple,
    find_separation,
    matrix_ring,
    sweep,
    verify_example_29,
    zmod,
)
from clinelab.explorer import _CHECKS, A_C_BA, AB_AC, AC_BA, ALL_CHECKS, TRIPLE, _scan_indices
from clinelab.serialize import dumps_canonical, triple_to_json


def _count_hypothesis_triples_directly(ring):
    """Independent tally via raw product evaluation."""
    hyp = strong = 0
    for a, b, c in itertools.product(ring.elements(), repeat=3):
        p1 = a * b * a * b * a
        p2 = a * b * a * c * a
        p3 = a * c * a * b * a
        p4 = a * c * a * c * a
        if p1 == p2 == p3 == p4:
            hyp += 1
            if a * b * a == a * c * a:
                strong += 1
    return hyp, strong


def test_sweep_z2_exhaustive_counts():
    report = sweep(zmod(2), "all", "exhaustive")
    assert report.triples_total == 8
    hyp, strong = _count_hypothesis_triples_directly(zmod(2))
    assert report.triples_hypothesis == hyp
    assert report.triples_strong == strong
    for name in ALL_CHECKS:
        assert report.counters[name]["passed"] == report.counters[name]["checked"]


def test_sweep_z4_matches_independent_tally():
    report = sweep(zmod(4), "all", "exhaustive")
    hyp, strong = _count_hypothesis_triples_directly(zmod(4))
    assert (report.triples_hypothesis, report.triples_strong) == (hyp, strong)
    assert report.triples_strong <= report.triples_hypothesis <= report.triples_total
    assert len(report.separations_found) == hyp - strong


def test_sweep_theorem_subset_and_counters():
    report = sweep(zmod(4), "l26,l31", "exhaustive")
    assert report.theorems == ("l26", "l31")
    assert set(report.counters) == {"l26", "l31"}


def test_sweep_rejects_unknown_theorems():
    from clinelab import InputError

    with pytest.raises(InputError):
        sweep(zmod(4), "t99", "exhaustive")


def test_sweep_reports_are_byte_identical():
    r1 = sweep(zmod(8), "all", "exhaustive")
    r2 = sweep(zmod(8), "all", "exhaustive")
    assert dumps_canonical(r1.to_json()) == dumps_canonical(r2.to_json())


def test_sample_mode_is_seeded_and_reproducible():
    r1 = sweep(matrix_ring(2, 2), "l26", "sample", seed=99, count=200)
    r2 = sweep(matrix_ring(2, 2), "l26", "sample", seed=99, count=200)
    assert dumps_canonical(r1.to_json()) == dumps_canonical(r2.to_json())
    assert r1.triples_total <= 200
    r3 = sweep(matrix_ring(2, 2), "l26", "sample", seed=100, count=200)
    assert dumps_canonical(r3.to_json()) != dumps_canonical(r1.to_json())


def test_sample_mode_requires_seed_and_count():
    from clinelab import InputError

    with pytest.raises(InputError):
        sweep(zmod(4), "all", "sample")


def test_sample_space_is_bounded_before_it_is_built():
    from clinelab.explorer import _sample_space

    # 3 * 147^2 = 64827: M_147(Z/2) is the largest M_m(Z/2) a sample draws from
    assert _sample_space(matrix_ring(2, 147)) == 2**64827
    with pytest.raises(BudgetExceeded, match=r"M148\(Z/2\)\^3 has 2\^65712 triples"):
        _sample_space(matrix_ring(2, 148))
    assert matrix_ring(2, 148)._count is None


def test_parallel_sweep_matches_sequential(fork_small_sweeps):
    seq = sweep(zmod(4), "l21,l26,l31", "exhaustive", jobs=1)
    par = sweep(zmod(4), "l21,l26,l31", "exhaustive", jobs=2)
    assert dumps_canonical(seq.to_json()) == dumps_canonical(par.to_json())


def test_parallel_exhaustive_all_checks_is_byte_identical(fork_small_sweeps):
    seq = sweep(zmod(6), jobs=1)
    par = sweep(zmod(6), jobs=2)
    assert dumps_canonical(seq.to_json()) == dumps_canonical(par.to_json())


# sha256 of dumps_canonical(report.to_json()), recorded before finite rings
# were indexed; any change to a sweep's canonical output shows here
@pytest.mark.parametrize(
    "ring, kwargs, digest",
    [
        (zmod(12), {}, "f637249d0c0dbb77ec606a6b4940133621cea569cbeb1fbc0f9acf1eea64951e"),
        (matrix_ring(2, 2), {}, "6e92b404acd471514c0f02772571c51a9dc976cd723829690ad81404faefa024"),
        (
            matrix_ring(4, 2),
            {"mode": "sample", "seed": 7, "count": 300, "jobs": 1},
            "061bc68277aa6e23c6a87a3d35bac0a2b98b7a0c18d5f152a98898accd0059a7",
        ),
        (
            matrix_ring(4, 2),
            {"mode": "sample", "seed": 7, "count": 300, "jobs": 2},
            "061bc68277aa6e23c6a87a3d35bac0a2b98b7a0c18d5f152a98898accd0059a7",
        ),
    ],
    ids=["zmod12", "mat2z2", "mat2z4-sample-jobs1", "mat2z4-sample-jobs2"],
)
def test_sweep_canonical_output_is_pinned(fork_small_sweeps, ring, kwargs, digest):
    text = dumps_canonical(sweep(ring, **kwargs).to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_zmod32_all_checks_sweep_is_pinned():
    # recorded before sums, negations and commutants were read off index
    # tables and the hypothesis report was reused by each triple's guards
    report = sweep(zmod(32))
    counts = (
        report.triples_total,
        report.triples_hypothesis,
        report.triples_strong,
        len(report.separations_found),
    )
    assert counts == (32768, 12288, 7680, 4608)
    text = dumps_canonical(report.to_json())
    digest = "438dd97caa1887b2c8ee1e6d93e8ec2d16faf60a8357b276b9c998bf200f1b37"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_mat2z3_all_checks_sweep_is_pinned():
    # recorded with the per-triple scan, before sweeps walked hypothesis
    # classes and ran each check part once per distinct key
    report = sweep(matrix_ring(3, 2))
    counts = (
        report.triples_total,
        report.triples_hypothesis,
        report.triples_strong,
        len(report.separations_found),
    )
    assert counts == (531441, 81585, 80433, 1152)
    text = dumps_canonical(report.to_json())
    digest = "82af6e13b3b53b80f2c6cff34f4a6e391a6ef21fb7674e4269afa96586d1fbc3"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_mat4z2_sample_sweep_stdout_is_pinned(capsys):
    # recorded while M_4(Z/2), over INDEX_CAP and under the element budget,
    # was enumerated by payload scans (40 s); it is eliminated now
    from clinelab import cli

    argv = ["explore", "sweep", "--ring", "mat4z2", "--mode", "sample"]
    assert cli.main(argv + ["--seed", "7", "--count", "200"]) == 0
    digest = "106476d72cf06d97de6550d66d400a16f72b98dda1a93b7dd4601299c4287d5e"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_mat2z6_sample_sweep_stdout_is_pinned(capsys):
    # recorded while M_2(Z/6), over INDEX_CAP and over a composite modulus,
    # was searched by a scan of every payload
    from clinelab import cli

    argv = ["explore", "sweep", "--ring", "mat2z6", "--mode", "sample"]
    assert cli.main(argv + ["--seed", "7", "--count", "2000"]) == 0
    digest = "df722fc4504ec50045ee12ca3f2e46be7ff7c0c5d5841927f7f77d3eb8e4c293"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# --- the class walk and the check memo against the per-triple oracle ---------


def _oracle_sweep(monkeypatch, ring, **kwargs):
    """Canonical JSON of the sweep with the per-triple scan in place of
    _scan_indices, at one job: the oracle does not depend on the count."""
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_scan_indices", scan_per_triple)
        return dumps_canonical(sweep(ring, **{**kwargs, "jobs": 1}).to_json())


@pytest.mark.parametrize(
    "ring, kwargs",
    [
        (zmod(12), {}),
        (zmod(8), {}),
        (matrix_ring(2, 2), {}),
        (zmod(32), {}),
        (matrix_ring(4, 2), {"mode": "sample", "seed": 7, "count": 300}),
        (matrix_ring(4, 2), {"mode": "sample", "seed": 7, "count": 300, "jobs": 2}),
        # two workers cut 1728 triples into blocks of 216 (216 into blocks
        # of 27), and a changes every 144 (36): blocks start and end partway
        # through an a
        (zmod(12), {"jobs": 2}),
        (zmod(6), {"jobs": 2}),
    ]
    + [(matrix_ring(2, 2), {"theorems": name}) for name in ALL_CHECKS],
    ids=["zmod12", "zmod8", "mat2z2", "zmod32", "mat2z4-sample", "mat2z4-sample-jobs2",
         "zmod12-jobs2", "zmod6-jobs2"] + [f"mat2z2-{name}" for name in ALL_CHECKS],
)
def test_sweep_equals_the_per_triple_oracle(monkeypatch, fork_small_sweeps, ring, kwargs):
    expected = _oracle_sweep(monkeypatch, ring, **kwargs)
    assert dumps_canonical(sweep(ring, **kwargs).to_json()) == expected


@pytest.mark.parametrize(
    "ring, lo, hi",
    [
        (matrix_ring(2, 2), 1000, 3001),
        (matrix_ring(2, 2), 700, 701),
        (matrix_ring(2, 2), 515, 515),
        (zmod(12), 150, 1000),
        (zmod(12), 1727, 1728),
    ],
)
def test_blocks_that_cut_through_an_a_equal_the_oracle(ring, lo, hi):
    block = range(lo, hi)
    assert _scan_indices(ring, block, ALL_CHECKS) == scan_per_triple(ring, block, ALL_CHECKS)


@pytest.mark.parametrize("ring", [zmod(4), zmod(12), matrix_ring(2, 2)], ids=str)
@pytest.mark.parametrize("limit", [0, 1, 7, 10**6])
def test_find_separation_equals_the_oracle(ring, limit):
    found = [triple_to_json(*t) for t in find_separation(ring, limit)]
    everything = scan_per_triple(ring, range(ring.element_count**3), ())["separations"]
    assert found == everything[:limit]


@pytest.mark.parametrize("limit", [-1, -3])
def test_find_separation_refuses_a_negative_limit(limit):
    with pytest.raises(InputError, match="limit must be non-negative"):
        find_separation(zmod(4), limit)


# the inputs each key family names, as functions of the triple
_KEY_INPUTS = {
    AB_AC: lambda a, b, c: (a, b, a * c),
    A_C_BA: lambda a, b, c: (a, c, b * a),
    AC_BA: lambda a, b, c: (a * c, b * a),
    TRIPLE: lambda a, b, c: (a, b, c),
}


@functools.lru_cache(maxsize=None)
def _fault_key(ring, family):
    """The first key of the family (its inputs' element indices) whose first
    hypothesis triple comes after, for each input, a hypothesis triple that
    agrees with it on every other input: a memo keyed without that input
    would reuse the pass recorded there."""
    inputs = _KEY_INPUTS[family]
    first, partial = {}, {}
    for idx, triple in enumerate(itertools.product(ring.elements(), repeat=3)):
        if not check_hypothesis(*triple).holds:
            continue
        key = tuple(x.idx for x in inputs(*triple))
        if key in first:
            continue
        first[key] = idx
        shorter = [(i, key[:i] + key[i + 1 :]) for i in range(len(key))]
        for cut in shorter:
            partial.setdefault(cut, idx)
        if all(partial[cut] < idx for cut in shorter):
            return key
    raise AssertionError(f"no key of family {family} in {ring.label} can catch a short key")


_PARTS = [(name, pos) for name in ALL_CHECKS for pos in range(len(_CHECKS[name]))]


@pytest.mark.parametrize("ring", [zmod(8), matrix_ring(2, 2)], ids=["zmod8", "mat2z2"])
@pytest.mark.parametrize("name, pos", _PARTS, ids=[f"{n}-part{p}" for n, p in _PARTS])
def test_a_fault_keyed_on_a_parts_inputs_surfaces_at_the_oracles_triple(
    monkeypatch, ring, name, pos
):
    parts = _CHECKS[name]
    family, part = parts[pos]
    inputs = _KEY_INPUTS[family]
    key = _fault_key(ring, family)

    def faulty(a, b, c, held):
        if tuple(x.idx for x in inputs(a, b, c)) == key:
            raise CertificationError(f"injected fault at {key}")
        return part(a, b, c, held)

    monkeypatch.setitem(_CHECKS, name, parts[:pos] + ((family, faulty),) + parts[pos + 1 :])
    expected = scan_per_triple(ring, range(ring.element_count**3), (name,))["violation"]
    assert expected is not None and expected[2] == f"injected fault at {key}"
    with pytest.raises(SweepViolation) as info:
        sweep(ring, name)
    assert (info.value.check, info.value.triple_json, info.value.detail) == expected


def _counting_fork(monkeypatch) -> list:
    """Patch os.fork to record, in the list returned, each child it starts."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(explorer.os, "fork", counting_fork)
    return forked


def test_parallel_sweep_forks_one_worker_per_cpu_up_to_jobs(monkeypatch, fork_small_sweeps):
    forked = _counting_fork(monkeypatch)
    scan = explorer._scan_block

    def tagged(task):  # runs in a worker; the tag comes back in its part
        return {**scan(task), "block": task[1]}

    expected = dumps_canonical(sweep(zmod(6), jobs=1).to_json())
    assert forked == []
    # the machine's CPU count where the platform has no affinity mask
    monkeypatch.delattr(explorer.os, "sched_getaffinity", raising=False)
    cases = [(2, None, 10**6, 2), (None, None, 10**6, 0), (8, None, 3, 3), (8, {0, 5}, 10**6, 2)]
    for cpus, mask, jobs, workers in cases:
        monkeypatch.setattr(explorer.os, "cpu_count", lambda: cpus)
        if mask is not None:
            monkeypatch.setattr(explorer.os, "sched_getaffinity", lambda pid: mask, raising=False)
        forked.clear()
        report = sweep(zmod(6), jobs=jobs)
        assert dumps_canonical(report.to_json()) == expected
        assert len(forked) == workers
        if workers < 2:
            continue
        # 216 triples in blocks of 216 // (4 * workers), merged in order
        with monkeypatch.context() as patch:
            patch.setattr(explorer, "_scan_block", tagged)
            parts = explorer._parallel_scan(zmod(6), range(216), ALL_CHECKS, workers)
        size = 216 // (4 * workers)
        assert [part["block"] for part in parts] == [
            range(i, min(i + size, 216)) for i in range(0, 216, size)
        ]


def test_a_sweep_forks_one_worker_per_floor_of_triples(monkeypatch):
    forked = _counting_fork(monkeypatch)
    monkeypatch.setattr(explorer.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    expected = dumps_canonical(sweep(zmod(6), jobs=1).to_json())
    # 216 triples: none below the floor, one worker per 108 or 72 of them
    for floor, workers in ((explorer.MIN_WORKER_TRIPLES, 0), (109, 0), (108, 2), (72, 3)):
        monkeypatch.setattr(explorer, "MIN_WORKER_TRIPLES", floor)
        forked.clear()
        assert dumps_canonical(sweep(zmod(6), jobs=10**6).to_json()) == expected
        assert len(forked) == workers


def test_parallel_sample_sweep_matches_sequential(fork_small_sweeps):
    seq = sweep(matrix_ring(2, 2), "l26", "sample", seed=3, count=150, jobs=1)
    par = sweep(matrix_ring(2, 2), "l26", "sample", seed=3, count=150, jobs=2)
    assert dumps_canonical(seq.to_json()) == dumps_canonical(par.to_json())


def test_sweep_triple_budget_enforced(monkeypatch):
    with pytest.raises(BudgetExceeded):
        sweep(matrix_ring(2, 3), "l26", "exhaustive")  # 512^3 triples
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        sweep(zmod(4), "l26", "exhaustive")  # 64 triples > 10
    with pytest.raises(BudgetExceeded):
        find_separation(zmod(4), 1)


def test_budget_env_var_overrides(monkeypatch):
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        sweep(zmod(4), "l26", "exhaustive")  # 64 triples > 10
    monkeypatch.setenv("CLINE_LAB_BUDGET", "100")
    report = sweep(zmod(4), "l26", "exhaustive")
    assert report.triples_total == 64


def _example_29_triple_index():
    a, b, c = example_29_triple()
    ctx = a.ctx
    n = ctx.element_count
    i, j, k = (index_by_digits(ctx, x) for x in (a, b, c))
    return (i * n + j) * n + k


def test_checks_run_on_ring_beyond_element_budget():
    # 6x6 matrices over Z/2 (2^36 elements) are eliminated: the Drazin and
    # g-Drazin checks route through elimination and quasinilpotency is
    # answered as nilpotency, so they all run on a hypothesis triple
    from clinelab.explorer import _scan_indices

    big = matrix_ring(2, 6)
    checks = ("t22", "t27", "l21", "l26", "l31")
    part = _scan_indices(big, [_example_29_triple_index()], checks)
    assert part["violation"] is None
    assert part["hypothesis"] == 1 and part["strong"] == 0
    for name in checks:
        assert part["counters"][name] == {"checked": 1, "passed": 1}


def test_budget_error_propagates_instead_of_masquerading_as_violation(monkeypatch):
    # the quasinilpotency check enumerates the commutant of M_2(Z/4), which
    # a budget of 10 forbids; that must surface as BudgetExceeded, not as a
    # violation, on the hypothesis triple (0, 0, 0)
    from clinelab.explorer import _scan_indices

    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        _scan_indices(matrix_ring(4, 2), [0], ("l21",))


@pytest.mark.parametrize("outcome", ["finish", "violation", "budget"])
def test_the_block_budget_is_released_however_a_scan_ends(monkeypatch, outcome):
    # inside a scan the ring's element checks skip the budget read; after
    # it, a lowered budget gates a cached lookup again
    ring = matrix_ring(2, 2)
    x = ring.element_by_index(6)
    drazin_finite_ring(x)
    slots = []

    def part(a, b, c, held):
        slots.append(rings._block_ring)
        if outcome == "violation":
            raise CertificationError("stand-in failure")
        if outcome == "budget":
            raise BudgetExceeded("stand-in budget")
        return True

    monkeypatch.setitem(_CHECKS, "l26", ((AC_BA, part),))
    expected = {"finish": None, "violation": SweepViolation, "budget": BudgetExceeded}[outcome]
    if expected is None:
        sweep(ring, "l26")
    else:
        with pytest.raises(expected):
            sweep(ring, "l26")
    assert slots and all(slot is ring for slot in slots)
    assert rings._block_ring is None
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        drazin_finite_ring(x)


def test_checks_that_enumerate_nothing_run_on_a_ring_over_the_element_budget(monkeypatch):
    # the budget read as a block starts does not raise: only an enumeration
    # does, as it did when every lookup read the budget
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    report = sweep(matrix_ring(4, 2), "l26,l31", "sample", seed=1, count=10)
    assert report.triples_hypothesis == 4
    assert report.counters["l26"] == report.counters["l31"] == {"checked": 4, "passed": 4}
    with pytest.raises(BudgetExceeded):
        sweep(matrix_ring(4, 2), "l21", "sample", seed=1, count=10)


def test_c24_reads_its_inverses_on_the_first_triple_of_each_key(monkeypatch):
    # this sample's one hypothesis triple is not strong, so c24 compares
    # nothing; its (ac, ba) part still looks up both g-Drazin inverses,
    # which a budget below |M_2(Z/4)| forbids
    kwargs = {"mode": "sample", "seed": 29, "count": 6}
    report = sweep(matrix_ring(4, 2), "c24", **kwargs)
    assert (report.triples_hypothesis, report.triples_strong) == (1, 0)
    assert report.counters["c24"] == {"checked": 0, "passed": 0}
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        sweep(matrix_ring(4, 2), "c24", **kwargs)


def test_violation_aborts_with_serialized_triple(monkeypatch):
    def broken(a, b, c, held):
        raise CertificationError("synthetic failure")

    monkeypatch.setitem(_CHECKS, "l26", ((AC_BA, broken),))
    with pytest.raises(SweepViolation) as info:
        sweep(zmod(2), "l26", "exhaustive")
    exc = info.value
    assert exc.check == "l26"
    assert set(exc.triple_json) == {"a", "b", "c"}
    assert "synthetic failure" in exc.detail


def test_mat2z2_sweep_subset_passes_and_finds_separations():
    report = sweep(matrix_ring(2, 2), "l26,l31", "exhaustive")
    assert report.triples_total == 4096
    assert report.separations_found
    # soundness: every reported separation re-passes the checks
    from clinelab.serialize import triple_from_json

    for triple_json in report.separations_found[:5]:
        a, b, c = triple_from_json(triple_json)
        rep = check_hypothesis(a, b, c)
        assert rep.holds and not rep.strong_holds


# --- separation search --------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_no_separations_in_prime_moduli(p):
    # over Z/p, a^2(b - c) = 0 forces a = 0 or b = c, so weak implies strong
    assert find_separation(zmod(p), 5) == []


def test_separations_exist_in_composite_moduli():
    # (1, 0, 2) in Z/4: all quintic products vanish but aca = 2 != 0 = aba
    found = find_separation(zmod(4), 10)
    assert found
    z4 = zmod(4)
    rep = check_hypothesis(z4.elem(1), z4.elem(0), z4.elem(2))
    assert rep.holds and not rep.strong_holds


def test_separations_exist_in_m2z2_and_unit_shift_triple_qualifies():
    found = find_separation(matrix_ring(2, 2), 3)
    assert len(found) == 3
    ring = matrix_ring(2, 2)
    one = ring.one()
    t = ring.elem([[0, 1], [0, 0]])
    rep = check_hypothesis(one, t, ring.zero())
    assert rep.holds and not rep.strong_holds


def test_find_separation_in_deterministic_order():
    first = find_separation(matrix_ring(2, 2), 4)
    again = find_separation(matrix_ring(2, 2), 4)
    assert [
        (a.payload, b.payload, c.payload) for a, b, c in first
    ] == [(a.payload, b.payload, c.payload) for a, b, c in again]


def test_example_29_triple_is_a_separation_in_its_ring():
    a, b, c = example_29_triple()
    rep = check_hypothesis(a, b, c)
    assert rep.holds and not rep.strong_holds


# --- example verification -----------------------------------------------------


def test_verify_example_29_report():
    report = verify_example_29()
    assert report.hypothesis_holds and not report.strong_holds
    assert report.x_nilpotency_index == 3
    assert report.ac_drazin_index == 3
    assert report.ba_drazin_index == 2
    assert report.transfer_certified
    assert report.one_minus_ac_unit
    json_dict = report.to_json()
    assert json_dict["ring"] == "M6(Z/2)"
