"""End-to-end CLI behavior: JSON formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinelab import cli, explorer
from clinelab.serialize import (
    element_from_json,
    element_to_json,
    triple_from_json,
)
from clinelab import BudgetExceeded, InputError, matrix_ring, rationals_matrix, try_inverse, zmod


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- element literal format ---------------------------------------------------


def test_rational_matrix_round_trip():
    e = rationals_matrix(2).elem([["1/2", -3], [0, "7"]])
    obj = element_to_json(e)
    assert obj["ring"] == {"type": "Q"}
    assert obj["entries"][0][0] == "1/2"
    assert element_from_json(obj) == e


def test_zmod_accepts_bare_int_and_nested_form():
    obj = {"ring": {"type": "Zmod", "n": 4}, "entries": 6}
    e = element_from_json(obj)
    assert e.payload == 2
    assert element_to_json(e)["entries"] == [[2]]
    assert element_from_json(element_to_json(e)) == e


def test_matzmod_round_trip():
    e = matrix_ring(2, 2).elem([[1, 0], [1, 1]])
    assert element_from_json(element_to_json(e)) == e


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.fractions(max_denominator=9), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_rational_serialization_is_lossless(rows):
    e = rationals_matrix(2).elem(rows)
    assert element_from_json(element_to_json(e)) == e


_entry = st.builds(
    Fraction,
    st.integers(-(10**15), 10**15),
    st.one_of(st.just(1), st.integers(1, 10**12)),
)


@settings(max_examples=200)
@given(st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rational_entries_are_written_as_str_of_fraction(rows):
    # entries are formatted from the integer rows and the common
    # denominator; the row view builds the Fractions they must print as
    e = rationals_matrix(3).elem(rows)
    assert element_to_json(e)["entries"] == [[str(v) for v in row] for row in e.payload]


def test_rational_entries_of_integer_and_zero_matrices():
    ring = rationals_matrix(2)
    assert element_to_json(ring.zero())["entries"] == [["0", "0"], ["0", "0"]]
    e = ring.elem([[-4, 0], [7, "-10/5"]])
    assert e.payload.den == 1
    assert element_to_json(e)["entries"] == [["-4", "0"], ["7", "-2"]]
    e = ring.elem([["-3/6", 0], ["1/1000000000000", "999999999999/1000000000000"]])
    assert element_to_json(e)["entries"] == [
        ["-1/2", "0"],
        ["1/1000000000000", "999999999999/1000000000000"],
    ]


@settings(max_examples=40)
@given(st.integers(0, 6560))
def test_matzmod_serialization_is_lossless(idx):
    ring = matrix_ring(3, 2)  # 81 elements
    e = ring.element_by_index(idx % ring.element_count)
    assert element_from_json(element_to_json(e)) == e


def test_power_edge_cases():
    e = matrix_ring(2, 2).elem([[1, 1], [0, 1]])
    assert (e**0).is_one
    assert e**1 == e


def test_bad_literals_rejected():
    with pytest.raises(InputError):
        element_from_json({"ring": {"type": "Q"}, "entries": [[1, 2], [3]]})
    # rows that are strings or objects were read as their characters or keys
    with pytest.raises(InputError, match="rows must be arrays"):
        element_from_json({"ring": {"type": "Q"}, "entries": ["12", "34"]})
    with pytest.raises(InputError, match="rows must be arrays"):
        element_from_json({"ring": {"type": "Q"}, "entries": [{"1": 0, "2": 0}, {"3": 0, "4": 0}]})
    with pytest.raises(InputError):
        element_from_json({"ring": {"type": "What"}, "entries": [[1]]})
    with pytest.raises(InputError):
        element_from_json({"entries": [[1]]})
    with pytest.raises(InputError):
        triple_from_json(
            {
                "a": {"ring": {"type": "Zmod", "n": 4}, "entries": 1},
                "b": {"ring": {"type": "Zmod", "n": 8}, "entries": 1},
                "c": {"ring": {"type": "Zmod", "n": 4}, "entries": 1},
            }
        )


# --- drazin subcommand ---------------------------------------------------------


def test_drazin_compute_on_rational_matrix(tmp_path, capsys):
    path = _write(
        tmp_path,
        "elem.json",
        {"ring": {"type": "Q"}, "entries": [["0", "1"], ["0", "0"]]},
    )
    code, out, _ = _run(capsys, ["drazin", "compute", "--input", path])
    assert code == 0
    data = json.loads(out)
    assert data["exists"] is True
    assert data["index"] == 2
    assert data["witnesses"]["bab_eq_b"] is True
    assert data["witnesses"]["core_nilpotent_index"] == 2


def test_drazin_compute_gdrazin_mode(tmp_path, capsys):
    path = _write(
        tmp_path, "elem.json", {"ring": {"type": "Zmod", "n": 4}, "entries": 2}
    )
    code, out, _ = _run(capsys, ["drazin", "compute", "--input", path, "--mode", "gdrazin"])
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"]["core_quasinilpotent"] is True


def test_drazin_compute_over_the_budget_exits_2(tmp_path, capsys, monkeypatch):
    # M_2(Z/2) is enumerated at any budget: a budget below its 16 elements
    # refuses the lookup and never falls back to elimination over F_2
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    path = _write(
        tmp_path,
        "elem.json",
        {"ring": {"type": "MatZmod", "n": 2, "size": 2}, "entries": [[1, 1], [0, 0]]},
    )
    code, out, err = _run(capsys, ["drazin", "compute", "--input", path])
    assert code == 2 and out == ""
    assert "M2(Z/2) has 16 elements, over the budget 10" in err


def test_drazin_compute_bad_file(tmp_path, capsys):
    code, _, err = _run(capsys, ["drazin", "compute", "--input", str(tmp_path / "nope.json")])
    assert code == 2 and "error" in err


def test_drazin_compute_invalid_json_and_malformed_ring(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["drazin", "compute", "--input", str(bad)])
    assert code == 2 and "error" in err
    malformed = _write(
        tmp_path, "malformed.json", {"ring": {"type": "MatZmod", "n": 2}, "entries": [[0]]}
    )
    code, _, err = _run(capsys, ["drazin", "compute", "--input", malformed])
    assert code == 2 and "malformed" in err


def test_drazin_compute_routes_large_prime_matrix_ring(tmp_path, capsys):
    from clinelab import example_29_triple
    from clinelab.serialize import element_to_json as to_json

    a, _, c = example_29_triple()
    path = _write(tmp_path, "ac.json", to_json(a * c))
    code, out, _ = _run(capsys, ["drazin", "compute", "--input", path])
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 3
    assert data["inverse"]["ring"] == {"type": "MatZmod", "n": 2, "size": 6}


def test_drazin_compute_on_a_huge_prime_modulus_is_fast(tmp_path, capsys):
    # 10^18 + 3 is prime: the primality test must not trial-divide up to 10^9
    n = 1000000000000000003
    path = _write(
        tmp_path,
        "elem.json",
        {"ring": {"type": "MatZmod", "n": n, "size": 2}, "entries": [[1, 0], [0, 0]]},
    )
    for mode in ("drazin", "gdrazin"):
        started = time.perf_counter()
        code, out, _ = _run(capsys, ["drazin", "compute", "--input", path, "--mode", mode])
        assert time.perf_counter() - started < 2
        assert code == 0
        data = json.loads(out)
        assert data["index"] == 1
        assert data["inverse"]["entries"] == [[1, 0], [0, 0]]


def test_drazin_compute_rejects_a_modulus_beyond_the_primality_range(tmp_path, capsys):
    from clinelab.linalg import MILLER_RABIN_BOUND

    path = _write(
        tmp_path,
        "elem.json",
        {
            "ring": {"type": "MatZmod", "n": MILLER_RABIN_BOUND, "size": 2},
            "entries": [[1, 0], [0, 0]],
        },
    )
    code, out, err = _run(capsys, ["drazin", "compute", "--input", path])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "primality" in err


# sha256 of the stdout of drazin compute on an element of M_3(Z/4), which
# is over INDEX_CAP, in each mode; recorded while such rings were searched
# by a scan of every payload
_PINNED_M3Z4 = {
    "drazin": "91521c95e037c5267072d85790c7d8a6bceeda987c8335367da1e8123a52b774",
    "gdrazin": "d0885abb0307f6a1783592af73d3a87320994a4db10dd77f3b4f47ee1d3ff092",
}


@pytest.mark.parametrize("mode", list(_PINNED_M3Z4))
def test_drazin_compute_on_an_unindexed_ring_is_pinned(tmp_path, capsys, mode):
    path = _write(
        tmp_path,
        "elem.json",
        {
            "ring": {"type": "MatZmod", "n": 4, "size": 3},
            "entries": [[1, 2, 3], [0, 2, 1], [3, 3, 0]],
        },
    )
    code, out, _ = _run(capsys, ["drazin", "compute", "--input", path, "--mode", mode])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_M3Z4[mode]


def test_drazin_compute_on_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = _run(capsys, ["drazin", "compute", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "nested" in err


# --- cline subcommands ----------------------------------------------------------


def _separation_triple_json():
    z8 = zmod(8)
    from clinelab.serialize import triple_to_json

    return triple_to_json(z8.elem(2), z8.elem(0), z8.elem(1))


def test_cline_check(tmp_path, capsys):
    path = _write(tmp_path, "triple.json", _separation_triple_json())
    code, out, _ = _run(capsys, ["cline", "check", "--input", path])
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True and data["strong_holds"] is False
    assert len(data["pairwise"]) == 6


def test_cline_transfer(tmp_path, capsys):
    path = _write(tmp_path, "triple.json", _separation_triple_json())
    code, out, _ = _run(
        capsys,
        ["cline", "transfer", "--dir", "backward", "--mode", "drazin", "--input", path],
    )
    assert code == 0
    data = json.loads(out)
    assert data["formula_used"] == "backward"
    assert data["source"]["index"] == 3
    assert data["target"]["index"] == 1


def test_cline_transfer_refuses_non_hypothesis_triple(tmp_path, capsys):
    z8 = zmod(8)
    from clinelab.serialize import triple_to_json

    bad = triple_to_json(z8.elem(1), z8.elem(1), z8.elem(2))
    path = _write(tmp_path, "triple.json", bad)
    code, _, err = _run(
        capsys,
        ["cline", "transfer", "--dir", "forward", "--mode", "gdrazin", "--input", path],
    )
    assert code == 2
    assert "error" in err


def test_cline_jacobson(tmp_path, capsys):
    path = _write(tmp_path, "triple.json", _separation_triple_json())
    code, out, _ = _run(capsys, ["cline", "jacobson", "--input", path])
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    # 1 - ac = -1 = 7 mod 8; ba = 0, so (1 - ba)^(-1) = 1
    assert data["one_minus_ba_inverse"]["entries"] == [[1]]


def test_cline_jacobson_rejects_non_unit(tmp_path, capsys):
    z4 = zmod(4)
    from clinelab.serialize import triple_to_json

    # ac = 1 makes 1 - ac = 0, not a unit
    bad = triple_to_json(z4.elem(1), z4.elem(1), z4.elem(1))
    path = _write(tmp_path, "triple.json", bad)
    code, _, err = _run(capsys, ["cline", "jacobson", "--input", path])
    assert code == 2 and "not a unit" in err


# --- spectra subcommands ---------------------------------------------------------


def test_spectra_example(capsys):
    code, out, _ = _run(capsys, ["spectra", "example", "--n", "8"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 8
    assert data["aba_eq_aca"] is True
    assert data["nonzero_equal"] is True
    assert len(data["char_poly_ac"]) == 9
    assert data["char_poly_ac"][-1] == "1"


def test_spectra_compare(tmp_path, capsys):
    m1 = _write(
        tmp_path, "m1.json", {"ring": {"type": "Q"}, "entries": [["0", "1"], ["0", "0"]]}
    )
    m2 = _write(tmp_path, "m2.json", {"ring": {"type": "Q"}, "entries": [["0"]]})
    code, out, _ = _run(capsys, ["spectra", "compare", "--m1", m1, "--m2", m2])
    assert code == 0
    data = json.loads(out)
    assert data["nonzero_equal"] is True
    assert data["m1"]["zero_multiplicity"] == 2


def _random_q(rng, n):
    """Entries +-(1..9)/(1..9)."""
    return rationals_matrix(n).elem(
        [
            [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def _dense_pair(n):
    """P·D·Q and Q·D·P, D the identity with its last two diagonal entries 0."""
    rng = random.Random(n)
    p, q = _random_q(rng, n), _random_q(rng, n)
    d = rationals_matrix(n).elem([[int(i == j < n - 2) for j in range(n)] for i in range(n)])
    return p * d * q, q * d * p


def _conjugate_pair(seed, j1, j2):
    """P·J1·P^-1 and Q·J2·Q^-1 for random rational P and Q."""
    rng = random.Random(seed)

    def conjugate(rows):
        n = len(rows)
        while True:
            p = _random_q(rng, n)
            p_inv = try_inverse(p)
            if p_inv is not None:
                return p * rationals_matrix(n).elem(rows) * p_inv

    return conjugate(j1), conjugate(j2)


def _jordan(blocks):
    """Block-diagonal rows of the Jordan blocks (eigenvalue, size)."""
    n = sum(size for _, size in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for i in range(at, at + size):
            rows[i][i] = Fraction(lam)
            if i + 1 < at + size:
                rows[i][i + 1] = Fraction(1)
        at += size
    return rows


def _spectra_argv(tmp_path, name):
    """The spectra command line of a pinned case: compare-dense-N compares
    P·D·Q with Q·D·P, compare-conjugate-N two conjugates with repeated
    nonzero eigenvalues and a denominator above 1, example-N the
    truncation."""
    kind, n = name.rsplit("-", 1)
    if kind == "example":
        return ["spectra", "example", "--n", n]
    if kind == "compare-dense":
        pair = _dense_pair(int(n))
    elif n == "6":
        pair = _conjugate_pair(
            6,
            _jordan([("1/2", 2), ("1/2", 1), (-3, 1), (0, 2)]),
            _jordan([("1/2", 1), (-3, 2), (0, 1)]),
        )
    else:
        pair = _conjugate_pair(
            9,
            _jordan([("2/3", 3), (-1, 1), (-1, 1), (0, 2), (5, 1), (0, 1)]),
            _jordan([("2/3", 1), ("2/3", 1), (-1, 2), ("-5/4", 1), (0, 3)]),
        )
    m1, m2 = (_write(tmp_path, f"m{i}.json", element_to_json(m)) for i, m in enumerate(pair))
    return ["spectra", "compare", "--m1", m1, "--m2", m2]


# sha256 of the stdout of spectra compare on each pair, and of spectra
# example at each n, recorded while char_poly still reduced over Fractions
_PINNED_SPECTRA = {
    "compare-dense-8": "2dae208a0cfdeef54485d6c294ec53e272d2d1763ec4ef05cdd22c4176350120",
    "compare-dense-12": "9b73105bc22954a85a27b88947ae489f3a23355553b4b5299254cc2298d3658e",
    "compare-dense-16": "bd96c0bc014a580757b18675c7417e5c666e763bd5837cc8a5d238694cc07bdb",
    "compare-conjugate-6": "c29102011e5fbc8bbd60158029b58bd3278c61679c783ccd3074e14d40e0057f",
    "compare-conjugate-9": "6ab5723b43dbf38610da8f326053d72abce7ad953c1891d82f083725fc486714",
    "example-24": "8c673defc4a0c0e8ddb1f712320f15336271238aa0c4a22788f608e17b9c96cc",
    "example-40": "0c917ced7cd9fb529bd3aa03393d0074e9ff61a5aca7e0c70c52d1c2a5930522",
    "example-64": "e7492def5686d932ff28efc6cdb7d1c639505b0a36ebdef0b6888f88fa1ceaf0",
}


@pytest.mark.parametrize("name", list(_PINNED_SPECTRA))
def test_spectra_stdout_is_pinned(tmp_path, capsys, name):
    code, out, _ = _run(capsys, _spectra_argv(tmp_path, name))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_SPECTRA[name]


# sha256 of the stdout of each command on _separation_triple_json() (explore
# example29 reads no input), recorded while the report types were dataclasses;
# every command exits 0
_PINNED_REPORTS = {
    "explore example29": "e3d6297309758cfb522aef7e43c9b38c73aa6c88ab440cca04c49a8c0810fb44",
    "cline check": "005d1cb39517465f45aa6fbbed214e63eadf7b0ad60f513d22f147b6c3ede90f",
    "cline transfer --dir forward --mode drazin":
        "d2da17709cb98bd25020ed3ee708f87f8606bdcc00211377ce597afb6c938313",
    "cline transfer --dir forward --mode gdrazin":
        "60500780fe1278e255f13733fd93112edc0cfb1e601f6caf56e76c79dcea3d1e",
    "cline transfer --dir backward --mode drazin":
        "b123a7bc93ce2081d4fd2fcfae809fbb838491600e2f247fb2f4540f928f2295",
    "cline transfer --dir backward --mode gdrazin":
        "2993ca9a72816dc0b1482832fa332e103fb874048df351c63c087a7b07ecca0e",
    "cline jacobson": "5697364c365b446c06605338663931ffcd09f72ec67592af947ace8097266d3a",
}


@pytest.mark.parametrize("command", list(_PINNED_REPORTS))
def test_report_stdout_is_pinned(tmp_path, capsys, command):
    argv = command.split()
    if argv[0] == "cline":
        argv += ["--input", _write(tmp_path, "triple.json", _separation_triple_json())]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_REPORTS[command]


# --- explore subcommands -----------------------------------------------------------


def test_explore_sweep_deterministic_bytes(capsys):
    argv = ["explore", "sweep", "--ring", "zmod8", "--theorems", "l26,l31"]
    code1, out1, err1 = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "elapsed" in err1  # timing goes to stderr, not into the report


def test_explore_sweep_sample_flags(capsys):
    argv = [
        "explore", "sweep", "--ring", "mat2z2", "--mode", "sample",
        "--seed", "7", "--count", "64",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "sample" and data["seed"] == 7


def test_explore_separations(capsys):
    code, out, _ = _run(capsys, ["explore", "separations", "--ring", "mat2z2", "--limit", "2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["separations"]) == 2


def test_explore_separations_limit_zero_lists_none(capsys):
    code, out, _ = _run(capsys, ["explore", "separations", "--ring", "zmod4", "--limit", "0"])
    assert code == 0
    assert json.loads(out) == {"ring": "Z/4", "limit": 0, "separations": []}


def test_explore_separations_negative_limit_exits_2(capsys):
    code, out, err = _run(capsys, ["explore", "separations", "--ring", "zmod4", "--limit", "-3"])
    assert code == 2 and out == ""
    assert err == "error: limit must be non-negative, got -3\n"


def test_explore_example29(capsys):
    code, out, _ = _run(capsys, ["explore", "example29"])
    assert code == 0
    data = json.loads(out)
    assert data["hypothesis_holds"] is True
    assert data["x_nilpotency_index"] == 3


def test_explore_sweep_jobs_flag_is_output_invariant(capsys, fork_small_sweeps):
    base = ["explore", "sweep", "--ring", "zmod4", "--theorems", "l26,l31"]
    _, out1, _ = _run(capsys, base + ["--jobs", "1"])
    _, out2, _ = _run(capsys, base + ["--jobs", "2"])
    assert out1 == out2


def test_bad_ring_name(capsys):
    code, _, err = _run(capsys, ["explore", "sweep", "--ring", "banana"])
    assert code == 2 and "unknown ring" in err


def _assert_quick_input_error(capsys, argv):
    def too_slow(signum, frame):
        pytest.fail(f"{argv[:3]} still running after 3 s")

    # the alarm stops a command that never returns; the 2 s bound is below
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(3)
    started = time.perf_counter()
    try:
        code, out, err = _run(capsys, argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 2
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    return err


@pytest.mark.parametrize("command", ["sweep", "separations"])
@pytest.mark.parametrize("ring", ["mat100z2", "mat2000z3", "mat2000z7"])
def test_huge_matrix_ring_searches_exit_2_without_building_the_count(capsys, command, ring):
    # |M_100(Z/2)|^3 = 2^30000 has over 4300 decimal digits, past what
    # Python will print; |M_2000(Z/7)| takes seconds to build at all
    err = _assert_quick_input_error(capsys, ["explore", command, "--ring", ring])
    assert "triples, over the budget" in err


@pytest.mark.parametrize("ring", ["mat2000z3", "mat2000z7"])
def test_huge_matrix_ring_samples_exit_2_without_building_the_count(capsys, ring):
    # drawing from |M_2000(Z/3)|^3 = 3^12000000 triples would take minutes
    argv = ["explore", "sweep", "--ring", ring, "--mode", "sample"]
    err = _assert_quick_input_error(
        capsys, argv + ["--seed", "1", "--count", "1", "--theorems", "l26"]
    )
    assert "triples, over the sample bound 2^65536" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_explore_sweep_with_jobs_below_one_exits_2(capsys, jobs):
    argv = ["explore", "sweep", "--ring", "zmod4", "--theorems", "l26", "--jobs", jobs]
    err = _assert_quick_input_error(capsys, argv)
    assert f"jobs must be at least 1, got {jobs}" in err


# stand-ins for explorer._scan_block, run in the forked workers
def _worker_that_dies(task):
    os._exit(1)


def _worker_that_raises(task):
    raise RuntimeError("not a clinelab error\nwith a second line")


def _worker_over_the_budget(task):
    raise BudgetExceeded("Z/4^3 has 64 triples, over the budget 8")


@pytest.mark.parametrize(
    "worker, message",
    [
        (_worker_that_dies, "a sweep worker process died before it finished its block"),
        (
            _worker_that_raises,
            "a sweep worker failed: RuntimeError: not a clinelab error with a second line",
        ),
        # a clinelab error crosses the pipe as it was raised
        (_worker_over_the_budget, "Z/4^3 has 64 triples, over the budget 8"),
    ],
    ids=["dies", "raises", "budget"],
)
def test_a_failing_sweep_worker_exits_2_with_one_line(
    capsys, monkeypatch, fork_small_sweeps, worker, message
):
    monkeypatch.setattr(explorer, "_scan_block", worker)
    argv = ["explore", "sweep", "--ring", "zmod4", "--theorems", "l26", "--jobs", "2"]
    err = _assert_quick_input_error(capsys, argv)
    assert err == f"error: {message}\n"


def test_a_parallel_sweep_without_fork_exits_2_with_one_line(
    capsys, monkeypatch, fork_small_sweeps
):
    monkeypatch.delattr(explorer.os, "fork")
    argv = ["explore", "sweep", "--ring", "zmod4", "--theorems", "l26", "--jobs", "2"]
    err = _assert_quick_input_error(capsys, argv)
    assert err == "error: --jobs above 1 needs os.fork, which this platform lacks\n"


def test_a_sweep_below_the_fork_floor_runs_without_fork(capsys, monkeypatch):
    # 64 triples are too few to fork for, so the sweep never asks for os.fork
    argv = ["explore", "sweep", "--ring", "zmod4", "--theorems", "l26", "--jobs"]
    _, expected, _ = _run(capsys, argv + ["1"])
    monkeypatch.delattr(explorer.os, "fork")
    assert _run(capsys, argv + ["2"])[:2] == (0, expected)


def test_negative_sample_count_exits_2(capsys):
    argv = ["explore", "sweep", "--ring", "mat2z2", "--mode", "sample", "--seed", "1"]
    err = _assert_quick_input_error(capsys, argv + ["--count", "-5"])
    assert "count must be non-negative" in err


@pytest.mark.parametrize("budget", [None, "1000"])
def test_sample_count_over_the_triple_budget_exits_2_before_drawing(capsys, monkeypatch, budget):
    # 10^8 draws alone would take well over the 2 s bound; the count is
    # checked against the triple budget (2^24 unless CLINE_LAB_BUDGET is set)
    if budget is not None:
        monkeypatch.setenv("CLINE_LAB_BUDGET", budget)
    count = "100000000" if budget is None else "1001"
    argv = ["explore", "sweep", "--ring", "mat2z2", "--mode", "sample", "--seed", "1"]
    err = _assert_quick_input_error(capsys, argv + ["--count", count])
    limit = 2**24 if budget is None else 1000
    assert f"a sample of {count} triples is over the budget {limit}" in err


def test_matzmod_literal_of_huge_size_exits_2_quickly(tmp_path, capsys):
    path = _write(
        tmp_path,
        "elem.json",
        {"ring": {"type": "MatZmod", "n": 2, "size": 100000}, "entries": [[0]]},
    )
    err = _assert_quick_input_error(capsys, ["drazin", "compute", "--input", path])
    assert "100000x100000" in err


_MATZMOD = {"type": "MatZmod", "n": 3, "size": 2}
_IDENTITY = [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "ring, entries, message",
    [
        (_MATZMOD, [[1.7, 0], [0, 1]], "a MatZmod entry must be an integer, got 1.7"),
        (_MATZMOD, [[True, 0], [0, 1]], "a MatZmod entry must be an integer, got True"),
        (_MATZMOD, [["1", 0], [0, 1]], "a MatZmod entry must be an integer, got '1'"),
        ({**_MATZMOD, "n": 3.9}, _IDENTITY, "'n' must be an integer, got 3.9"),
        ({**_MATZMOD, "n": True}, _IDENTITY, "'n' must be an integer, got True"),
        ({**_MATZMOD, "size": 2.0}, _IDENTITY, "'size' must be an integer, got 2.0"),
        ({**_MATZMOD, "size": False}, _IDENTITY, "'size' must be an integer, got False"),
        ({"type": "Zmod", "n": 3}, True, "a Zmod entry must be an integer, got True"),
        ({"type": "Zmod", "n": 3}, [[1.5]], "a Zmod entry must be an integer, got 1.5"),
        ({"type": "Zmod", "n": 3.9}, 1, "'n' must be an integer, got 3.9"),
        ({"type": "Zmod", "n": True}, 1, "'n' must be an integer, got True"),
    ],
    ids=[
        "matzmod-float-entry",
        "matzmod-bool-entry",
        "matzmod-string-entry",
        "matzmod-float-n",
        "matzmod-bool-n",
        "matzmod-float-size",
        "matzmod-bool-size",
        "zmod-bool-entry",
        "zmod-float-entry",
        "zmod-float-n",
        "zmod-bool-n",
    ],
)
def test_modular_literals_take_only_integers(tmp_path, capsys, ring, entries, message):
    # a float was truncated ("n": 3.9 gave Z/3) and a bool taken as 0 or 1
    path = _write(tmp_path, "elem.json", {"ring": ring, "entries": entries})
    err = _assert_quick_input_error(capsys, ["drazin", "compute", "--input", path])
    assert err == f"error: {message}\n"


def test_an_input_that_cannot_be_read_exits_2(tmp_path, capsys):
    # a directory raised IsADirectoryError out of cli.main, with a traceback
    missing = str(tmp_path / "missing.json")
    err = _assert_quick_input_error(capsys, ["drazin", "compute", "--input", missing])
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    err = _assert_quick_input_error(capsys, ["drazin", "compute", "--input", str(tmp_path)])
    assert "Is a directory" in err


def test_numbers_past_the_digit_limit_exit_2(tmp_path, capsys):
    digits = "9" * 5000
    _assert_quick_input_error(capsys, ["explore", "sweep", "--ring", "zmod" + digits])
    path = tmp_path / "elem.json"
    path.write_text('{"ring": {"type": "Zmod", "n": %s}, "entries": 1}' % digits)
    _assert_quick_input_error(capsys, ["drazin", "compute", "--input", str(path)])


@pytest.mark.parametrize(
    "entry",
    ["1/" + "7" * 5000, list(range(100000))],
    ids=["5000-digit-denominator", "list-of-100000-ints"],
)
def test_an_error_line_quotes_a_long_literal_by_a_short_prefix(tmp_path, capsys, entry):
    # the whole literal was echoed: 5,173 bytes and 688,954 bytes of stderr
    path = _write(tmp_path, "elem.json", {"ring": {"type": "Q"}, "entries": [[entry]]})
    err = _assert_quick_input_error(capsys, ["drazin", "compute", "--input", path])
    assert len(err.encode()) < 200


# --- one parser per process ------------------------------------------------------


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


_SRC = str(Path(cli.__file__).resolve().parents[1])


def test_importing_the_cli_loads_no_process_pool_and_no_dataclasses():
    # the modules that `import clinelab.cli` adds, not those `site` loaded
    code = (
        "import sys; before = set(sys.modules); import clinelab.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": _SRC}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "clinelab.cli" in loaded
    heavy = {
        "concurrent.futures", "multiprocessing", "logging", "dataclasses", "inspect", "typing"
    }
    assert loaded.isdisjoint(heavy), sorted(loaded & heavy)


def _fresh_cli(argv, **popen):
    """`python -m clinelab argv` in a new interpreter."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.Popen(
        [sys.executable, "-m", "clinelab", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **popen,
    )


def test_one_process_answers_a_command_sequence_as_fresh_processes_do(
    tmp_path, capsys, monkeypatch
):
    # every query reuses the cached parser; a default or an `fn` left
    # behind by one parse would change what a later query does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    q = _write(tmp_path, "q.json", {"ring": {"type": "Q"}, "entries": [["0", "1"], ["0", "0"]]})
    bad = _write(tmp_path, "bad.json", {"ring": {"type": "Q"}, "entries": [["1/0"]]})
    gdrazin = ["drazin", "compute", "--input", q, "--mode", "gdrazin"]
    default = ["drazin", "compute", "--input", q]  # --mode left at its default
    steps = [
        (gdrazin, 0),
        (default, 0),
        (["drazin", "compute", "--mode", "nope", "--input", q], 2),  # usage error
        (["drazin", "compute", "--input", bad], 2),
        (["spectra", "example", "--n", "4"], 0),
        (gdrazin, 0),
    ]
    for argv, code in steps:
        try:
            got = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            got = exc.code
        captured = capsys.readouterr()
        fresh = _fresh_cli(argv)
        out, err = fresh.communicate(timeout=60)
        assert (got, captured.out, captured.err) == (fresh.returncode, out, err), argv
        assert got == code, argv
        if argv in (gdrazin, default):  # the mode shows in the witnesses
            witnesses = json.loads(out)["witnesses"]
            assert ("core_quasinilpotent" in witnesses) == (argv is gdrazin), argv


# --- Ctrl-C ------------------------------------------------------------------------


@pytest.mark.parametrize("delay", [1.0, 2.0])
def test_ctrl_c_during_a_parallel_sweep_exits_130_with_one_line(delay):
    # a terminal's Ctrl-C sends SIGINT to the whole process group; this
    # sweep starts its pool after about 0.5 s and runs for several seconds
    argv = ["explore", "sweep", "--ring", "mat2z4", "--mode", "sample", "--seed", "1"]
    proc = _fresh_cli(argv + ["--count", "300000", "--jobs", "2"], start_new_session=True)
    try:
        time.sleep(delay)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert (proc.returncode, err, out) == (130, "error: interrupted\n", "")
    with pytest.raises(ProcessLookupError):  # no worker outlives the sweep
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("delay", [1.0, 2.0])
def test_sigint_to_the_parent_alone_during_a_parallel_sweep_ends_its_workers(delay):
    # `kill -INT <pid>` reaches the parent only; it must end the workers
    argv = ["explore", "sweep", "--ring", "mat2z4", "--mode", "sample", "--seed", "1"]
    proc = _fresh_cli(argv + ["--count", "300000", "--jobs", "2"], start_new_session=True)
    try:
        time.sleep(delay)
        os.kill(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert (proc.returncode, err, out) == (130, "error: interrupted\n", "")
    with pytest.raises(ProcessLookupError):  # no worker outlives the sweep
        os.killpg(proc.pid, 0)
