"""Sweep validation and negative controls of the mode-identity suites."""

import json
import multiprocessing
import os
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from symfock import fock, verify, vertex
from symfock.bases import complete_h, elementary_e
from symfock.fock import (
    TWISTED_MINUS,
    TWISTED_PLUS,
    FockVector,
    check_mode_identity,
    combine,
    composition,
    corrupted_kernel,
)
from symfock.partitions import partitions_up_to
from symfock.ratfun import RF_ONE, RF_T, RF_ZERO, RatFun, rf_inv_one_minus_t_pow
from symfock.symfunc import SymFunc
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


_bilinear_column = fock.bilinear_column


def _column_sum(*pieces):
    """sum c col over (c, col), all of one weight and not all zero, as one column."""
    pieces = [(c, 1, col) for c, col in pieces if col.enc]
    return fock._combine(pieces[0][2].weight, pieces)


def _alpha_doubled_at(at):
    """bilinear_column with alpha_at doubled."""

    def wrong(k, m, la, weighted, *rest, **kw):
        col = _bilinear_column(k, m, la, weighted, *rest, **kw)
        return _column_sum((2, col)) if k == at and not weighted and col.enc else col

    return wrong


def _untwisted(k, m, la, *rest):
    """twisted_heisenberg_column without the 1/(1 - t**k) of k > 0: alpha_k."""
    return _bilinear_column(k, m, la, False, *rest)


def _virasoro_plus_alpha(k, m, la, weighted, *rest, **kw):
    """bilinear_column with L^0_k + alpha_k in place of L^0_k, so L^beta_k + alpha_k."""
    col = _bilinear_column(k, m, la, weighted, *rest, **kw)
    if not weighted:
        return col
    alpha = _bilinear_column(k, m, la, False, *rest, **kw)
    return _column_sum((1, col), (1, alpha)) if col.enc or alpha.enc else col


# each control swaps one operator that symfock.verify reads for a wrong one
NEGATIVE_CONTROLS = [
    pytest.param("commutation", ("ee", 1, 1), "elementary_e", _doubled_at(elementary_e, 1), id="commutation"),
    # the lower pair h_1-perp e_1 on the right side of he
    pytest.param("commutation", ("he", 2, 2), "complete_h", _doubled_at(complete_h, 1), id="commutation-he"),
    # the bilinear suites read their mode columns through two hooks
    pytest.param("heisenberg", ("comm", -1, 1), "bilinear_column", _alpha_doubled_at(1), id="heisenberg-comm"),
    pytest.param("heisenberg", ("action", 1), "bilinear_column", _alpha_doubled_at(1), id="heisenberg-action"),
    # the untwisted modes, missing the 1/(1 - t**k) of the positive ones
    pytest.param(
        "twisted-heisenberg", ("comm", -1, 1), "twisted_heisenberg_column", _untwisted, id="twisted-heisenberg"
    ),
    # the bilinear weight (1-beta) b - beta a off by one: L_k + alpha_k
    pytest.param("virasoro", (Fraction(1, 2), -1, 1), "bilinear_column", _virasoro_plus_alpha, id="virasoro"),
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


def _symfunc_witness(suite, params, opts):
    """The witness of one bilinear item through `check_mode_identity` on the
    SymFunc mode actions (the route the suites took before the packed one)."""
    H, T = fock.heisenberg_mode, fock.twisted_heisenberg_mode

    def bracket(op, j, k):
        return lambda v: op(j, op(k, v)) - op(k, op(j, v))

    if suite == "heisenberg" and params[0] == "action":
        _, k = params
        lhs = lambda v: H(k, v)
        if k < 0:
            rhs = lambda v: FockVector(v.charge, v.body.times_p(-k))
        elif k > 0:
            rhs = lambda v: FockVector(v.charge, v.body.diff_p(k).scaled(Fraction(k)))
        else:
            rhs = lambda v: v.scaled(Fraction(v.charge))
    elif suite == "heisenberg":
        _, j, k = params
        lhs, rhs = bracket(H, j, k), lambda v: v.scaled(j if j == -k else 0)
    elif suite == "twisted-heisenberg":
        _, j, k = params
        c = rf_inv_one_minus_t_pow(abs(j)).scale(Fraction(j)) if j == -k else RF_ZERO
        lhs, rhs = bracket(T, j, k), lambda v: v.scaled(c)
    else:
        beta, j, k = params
        central = Fraction(j**3 - j) * (-12 * beta * beta + 12 * beta - 2) / 12 if j == -k else 0
        L = lambda k, v: fock.virasoro_mode(beta, k, v)
        lhs = bracket(L, j, k)
        rhs = lambda v: L(j + k, v).scaled(Fraction(j - k)) + v.scaled(central)
    return check_mode_identity(lhs, rhs, opts.max_degree, opts.charges).witness_json()


def _split_moved(k, deg, m):
    """The normal-ordering split moved from a' < m to a' <= m."""
    return range(k - deg, m + 1), range(m + 1, deg)


BILINEAR_WINDOW = SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1))
# the wrong operators of the bilinear controls, and the moved split
BILINEAR_FAULTS = [
    pytest.param("heisenberg", "bilinear_column", _alpha_doubled_at(1), id="alpha-doubled"),
    pytest.param("twisted-heisenberg", "twisted_heisenberg_column", _untwisted, id="untwisted"),
    pytest.param("virasoro", "bilinear_column", _virasoro_plus_alpha, id="virasoro-plus-alpha"),
    pytest.param("heisenberg", "_pair_ranges", _split_moved, id="heisenberg-split"),
    pytest.param("virasoro", "_pair_ranges", _split_moved, id="virasoro-split"),
]


def _patch_fault(monkeypatch, name, wrong):
    """Apply a bilinear fault to both routes, on empty bilinear caches."""
    monkeypatch.setattr(fock, "_heis_cache", {})
    monkeypatch.setattr(fock, "_vir_cache", {})
    monkeypatch.setattr(fock, name, wrong)
    if hasattr(verify, name):
        monkeypatch.setattr(verify, name, wrong)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("suite, name, wrong", BILINEAR_FAULTS)
def test_packed_witness_is_the_symfunc_witness(monkeypatch, threads, suite, name, wrong):
    opts = replace(verify.SUITES[suite].defaults, **vars(BILINEAR_WINDOW))
    if suite == "virasoro":
        opts = replace(opts, betas=(Fraction(1, 2),))
    _patch_fault(monkeypatch, name, wrong)
    items = verify.SUITES[suite].build(opts)
    results = list(run_suite(suite, opts, threads=threads))
    failed = [(params, r) for params, r in zip(items, results) if not r.ok]
    assert failed
    for params, r in failed:
        assert json.dumps(r.witness) == json.dumps(_symfunc_witness(suite, params, opts)), r.name


def test_moved_split_fails_alpha_0_and_virasoro_but_no_bracket(monkeypatch):
    # a' <= m builds alpha_k and L^0_k at charge m + 1 with the weights of
    # charge m: alpha_0 gains 1 and L^beta_0 gains beta - 1, constants that
    # no heisenberg bracket sees, while (j-k) L_{j+k} at j = -k does
    _patch_fault(monkeypatch, "_pair_ranges", _split_moved)
    failed = {suite: [r.name for r in run_suite(suite, BILINEAR_WINDOW, threads=1) if not r.ok]
              for suite in ("heisenberg", "virasoro")}
    assert failed["heisenberg"] == ["action[k=0]"]
    assert "beta=1/2[j=-1,k=1]" in failed["virasoro"]
    assert not any(name.startswith("beta=1[") for name in failed["virasoro"])


def test_passing_bilinear_items_build_no_ratfun_or_symfunc(monkeypatch):
    # cold fermion kernels and bilinear caches: a passing item of each
    # bilinear suite is packed zero tests only, with no SymFunc fallback
    def refuse(*args, **kwargs):
        raise AssertionError("a passing bilinear item built a RatFun or a SymFunc")

    for name in ("FERMION_PLUS", "FERMION_MINUS"):
        k = getattr(fock, name)
        monkeypatch.setattr(fock, name, fock.VertexKernel(k.name, k.eps, k.a, k.c))
    monkeypatch.setattr(fock, "_heis_cache", {})
    monkeypatch.setattr(fock, "_vir_cache", {})
    items = [
        ("heisenberg", ("comm", -2, 2)),
        ("heisenberg", ("action", 2)),
        ("heisenberg", ("action", 0)),
        ("twisted-heisenberg", ("comm", -2, 2)),
        ("virasoro", (Fraction(1, 3), -2, 2)),
        ("virasoro", (Fraction(2), -1, 2)),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(RatFun, "__init__", refuse)
        patch.setattr(RatFun, "_raw", refuse)
        patch.setattr(SymFunc, "__init__", refuse)
        results = [_execute_item((suite, params, BILINEAR_WINDOW)) for suite, params in items]
    assert all(r.ok for r in results)
    assert fock._heis_cache and fock._vir_cache


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
    record = verify.SUITES["twisted-fermion"]
    plus, minus, t = record.kernels
    monkeypatch.setitem(verify.SUITES, "twisted-fermion", replace(record, kernels=(plus, minus, t + t)))
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
