"""Sweep validation and negative controls of the mode-identity suites."""

import multiprocessing
import os
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from symfock import fock, verify, vertex
from symfock.bases import complete_h, elementary_e
from symfock.fock import TWISTED_MINUS, TWISTED_PLUS, combine, composition, corrupted_kernel
from symfock.partitions import partitions_up_to
from symfock.ratfun import RF_ONE, RF_T
from symfock.verify import SweepOptions, _execute_item, run_suite
from symfock.vertex import basis_via_vertex


@pytest.mark.parametrize(
    "suite, opts",
    [
        ("virasoro", SweepOptions(2, 1, corrupt=True)),
        ("fermion", SweepOptions(max_degree=-3, max_mode=2)),
        ("virasoro", SweepOptions(2, 1, charges=())),
        ("twisted-heisenberg", SweepOptions(2, 0)),  # no nonzero mode pair
        ("virasoro", SweepOptions(1, 1, betas=(Fraction(1), Fraction(1)))),
        ("fermion", SweepOptions(1, 1, charges=(1, 1))),
    ],
)
def test_run_suite_rejects_vacuous_sweeps(suite, opts):
    # raised by the call itself, before any item runs
    with pytest.raises(ValueError):
        run_suite(suite, opts, threads=1)


@pytest.mark.parametrize(
    "suite, opts, unread",
    [
        ("duality", SweepOptions(2, 9, charges=(7,), betas=(Fraction(5),)), "max_mode, charges, betas"),
        ("fermion", SweepOptions(2, 1, betas=(Fraction(5),)), "betas"),
        ("corollaries", SweepOptions(2, corrupt=True), "corrupt"),
    ],
)
def test_run_suite_rejects_fields_the_suite_never_reads(suite, opts, unread):
    with pytest.raises(ValueError, match=f"does not read {unread}$"):
        run_suite(suite, opts, threads=1)


def test_run_suite_fills_unset_fields_from_the_suite_default():
    assert [r.ok for r in run_suite("duality", SweepOptions(max_degree=1), threads=1)] == [True, True]
    results = list(run_suite("fermion", SweepOptions(max_degree=1, max_mode=0), threads=1))
    assert [r.name for r in results] == ["pp[a+b=0]", "mm[a+b=0]", "pm[a+b=0]"] and all(r.ok for r in results)


def _doubled_at(op, at):
    """op(k, ...) with its value at k = at doubled."""
    return lambda k, *rest: op(k, *rest).scaled(2) if k == at else op(k, *rest)


# each control swaps one operator that symfock.verify reads for a wrong one
NEGATIVE_CONTROLS = [
    pytest.param("commutation", ("ee", 1, 1), "elementary_e", _doubled_at(elementary_e, 1), id="commutation"),
    # the lower pair h_1-perp e_1 on the right side of he
    pytest.param("commutation", ("he", 2, 2), "complete_h", _doubled_at(complete_h, 1), id="commutation-he"),
    pytest.param(
        "heisenberg", ("comm", -1, 1), "heisenberg_mode", _doubled_at(fock.heisenberg_mode, 1), id="heisenberg-comm"
    ),
    pytest.param(
        "heisenberg", ("action", 1), "heisenberg_mode", _doubled_at(fock.heisenberg_mode, 1), id="heisenberg-action"
    ),
    # the untwisted modes, missing the 1/(1 - t**k) of the positive ones
    pytest.param(
        "twisted-heisenberg", ("comm", -1, 1), "twisted_heisenberg_mode", fock.heisenberg_mode, id="twisted-heisenberg"
    ),
    # the bilinear weight (1-beta) b - beta a off by one: L_k + alpha_k
    pytest.param(
        "virasoro",
        (Fraction(1, 2), -1, 1),
        "virasoro_mode",
        lambda beta, k, v: fock.virasoro_mode(beta, k, v) + fock.heisenberg_mode(k, v),
        id="virasoro",
    ),
    pytest.param(
        "kernel-factorization", ("plus", 0), "complete_h", _doubled_at(complete_h, 1), id="kernel-factorization-plus"
    ),
    pytest.param(
        "kernel-factorization",
        ("conj+", 0),
        "DEFORMED_PLUS",
        fock.corrupted_kernel(fock.DEFORMED_PLUS),
        id="kernel-factorization-conj",
    ),
]


@pytest.mark.parametrize("suite, params, name, wrong", NEGATIVE_CONTROLS)
def test_mode_identity_suites_can_fail(monkeypatch, suite, params, name, wrong):
    item = (suite, params, SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1)))
    assert _execute_item(item).ok
    monkeypatch.setattr(verify, name, wrong)
    result = _execute_item(item)
    assert not result.ok
    assert list(result.witness) == ["charge", "p", "lhs", "rhs"]


# one wrong operator per suite outside the mode identities; corollaries reads
# only crosscheck_corollaries, so its control corrupts the q_k that check reads
OTHER_CONTROLS = [
    pytest.param(
        "duality", ((2, 1), (2, 1)), verify, "schur", _doubled_at(verify.schur, (2, 1)), ["la", "mu", "value"], id="duality"
    ),
    pytest.param(
        "bases-agreement",
        ("schur-routes", (2, 1)),
        verify,
        "basis_via_vertex",
        lambda kind, la: basis_via_vertex(kind, la).scaled(2),
        ["vertex", "generating", "det"],
        id="bases-agreement",
    ),
    # each finite-variable oracle swapped for the other: P_21 != s_21 in 3 variables
    pytest.param(
        "bases-agreement",
        ("hl-oracle", (2, 1)),
        verify,
        "hall_littlewood_oracle",
        verify.schur_oracle,
        ["la", "n"],
        id="hl-oracle",
    ),
    pytest.param(
        "bases-agreement",
        ("schur-oracle", (2, 1)),
        verify,
        "schur_oracle",
        verify.hall_littlewood_oracle,
        ["la", "n"],
        id="schur-oracle",
    ),
    pytest.param(
        "corollaries", ((2, 1),), vertex, "q_coefficient", _doubled_at(vertex.q_coefficient, 1), ["la", "hl_equal", "dual_equal"],
        id="corollaries",
    ),
]


@pytest.mark.parametrize("suite, params, module, name, wrong, keys", OTHER_CONTROLS)
def test_other_suites_can_fail(monkeypatch, suite, params, module, name, wrong, keys):
    item = (suite, params, SweepOptions(max_degree=3))
    assert _execute_item(item).ok
    monkeypatch.setattr(module, name, wrong)
    result = _execute_item(item)
    assert not result.ok
    assert list(result.witness) == keys


@pytest.mark.parametrize("params", [("pp", -2), ("pm", -1)], ids=["pp", "pm-delta"])
def test_twisted_fermion_fails_with_t_doubled(monkeypatch, params):
    # each part of the packed zero test can fail: the t-shifted compositions
    # (pp) and the delta (1-t)**2 p_la term (pm at a+b = -1)
    item = ("twisted-fermion", params, SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1)))
    assert _execute_item(item).ok
    plus, minus, t = verify.ANTICOMMUTATOR_KERNELS["twisted-fermion"]
    monkeypatch.setitem(verify.ANTICOMMUTATOR_KERNELS, "twisted-fermion", (plus, minus, t + t))
    result = _execute_item(item)
    assert not result.ok
    assert list(result.witness) == ["relation", "a", "b", "charge", "p", "lhs", "rhs"]
    assert result.witness["lhs"] != result.witness["rhs"]


def _packed_diff(K1, K2, e, a, b, m, la):
    """{K1[a], K2[b]} - t K1[a+e] K2[b-e] - t K2[b+e] K1[a-e] on z^m p_la, the
    packed zero test of the twisted suite off the delta diagonal a+b = -1."""
    X = lambda x: composition(K1, x, K2, a + b - x, m, la)
    Y = lambda y: composition(K2, y, K1, a + b - y, m, la)
    return combine([(RF_ONE, X(a)), (RF_ONE, Y(b)), (-RF_T, X(a + e)), (-RF_T, Y(b + e))])


@pytest.mark.parametrize(
    "rel, a, b, m",
    [("pm", -2, 0, 1), ("pp", -2, -1, -1)],  # pp lands on the diagonal a+b+2m = -5
    ids=["pm", "pp"],
)
def test_charge_relabelling_holds_on_a_corrupted_kernel(rel, a, b, m):
    # the check at (a, b, m) is the one at (a + eps1 m, b + eps2 m, 0), also
    # where it fails: the key the anticommutator executor skips on
    bad = corrupted_kernel(TWISTED_PLUS)
    K1, K2, e = (bad, TWISTED_MINUS, 1) if rel == "pm" else (bad, bad, -1)
    la = (2, 1)
    at_m = _packed_diff(K1, K2, e, a, b, m, la)
    at_0 = _packed_diff(K1, K2, e, a + K1.eps * m, b + K2.eps * m, 0, la)
    assert at_m == at_0
    assert not at_m.is_zero()


def test_each_relabelled_check_runs_once(monkeypatch):
    # every check calls combine once; a key seen passing is never tested again
    opts = SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1))
    monkeypatch.setattr(verify, "_passed", set())
    calls = []
    monkeypatch.setattr(verify, "combine", lambda terms: calls.append(1) or combine(terms))
    assert all(r.ok for r in run_suite("twisted-fermion", opts, threads=1))
    eps = {"pp": (1, 1), "mm": (-1, -1), "pm": (1, -1)}
    keys, checks, W = set(), 0, opts.max_mode
    for rel, d in verify._items_anticommutators(opts):
        window = range(max(-W, d - W), min(W, d + W) + 1)
        for m in opts.charges:
            for la in partitions_up_to(3):
                for a in window:
                    if rel == "pm" or a <= d - a:
                        keys.add((rel, a + eps[rel][0] * m, d - a + eps[rel][1] * m, la))
                        checks += 1
    assert len(calls) == len(keys) == len(verify._passed) < checks


def test_passing_keys_do_not_hide_a_corrupted_kernel():
    # the corrupted copy is its own kernel object, so its keys are its own
    opts = SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1))
    assert _execute_item(("fermion", ("pm", -1), opts)).ok
    result = _execute_item(("fermion", ("pm", -1), replace(opts, corrupt=True)))
    assert not result.ok and result.witness["relation"] == "pm"


def test_thread_count_reads_cpu_affinity(monkeypatch):
    monkeypatch.delenv("SF_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert verify.thread_count() == 2
    # platforms without sched_getaffinity fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify.thread_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify.thread_count() == 1


def test_pool_never_outnumbers_items(monkeypatch):
    # a stand-in fork context: no process is started
    sizes = []

    class Pool:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize):
            assert chunksize >= 1
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(verify, "_execute_item", lambda item: -item)
    for items, threads in (([1, 2, 3, 4, 5], 16), ([1, 2, 3, 4, 5], 2), (list(range(40)), 8), ([1, 2, 3], 8)):
        assert list(verify._results(items, threads)) == [-i for i in items]
    # three items run in this process
    assert sizes == [5, 2, 8]
