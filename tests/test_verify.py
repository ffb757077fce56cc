"""Sweep validation and negative controls of the mode-identity suites."""

import hashlib
import json
import multiprocessing
import os
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from symfock import bases, fock, verify, vertex
from symfock.bases import complete_h, elementary_e
from symfock.fock import (
    TWISTED_MINUS,
    TWISTED_PLUS,
    FockVector,
    corrupted_kernel,
    mode_apply,
)
from symfock.partitions import partitions_up_to
from symfock.ratfun import RF_T, RatFun
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

    def wrong(k, m, la, weighted, *rest):
        col = _bilinear_column(k, m, la, weighted, *rest)
        return _column_sum((2, col)) if k == at and not weighted and col.enc else col

    return wrong


def _untwisted(k, m, la, *rest, **kw):
    """twisted_alpha without the 1/(1 - t**k) of k > 0: alpha_k."""
    return fock.alpha(k, m, la, *rest, **kw)


def _virasoro_plus_alpha(k, m, la, weighted, *rest):
    """bilinear_column with L^0_k + alpha_k in place of L^0_k, so L^beta_k + alpha_k."""
    col = _bilinear_column(k, m, la, weighted, *rest)
    if not weighted:
        return col
    alpha = _bilinear_column(k, m, la, False, *rest)
    return _column_sum((1, col), (1, alpha)) if col.enc or alpha.enc else col


def _witness_sha256(result):
    return hashlib.sha256(json.dumps(result.witness).encode()).hexdigest()


# sha256 of each kernel-factorization witness with h_1 doubled (plus, minus)
# or the deformed kernel corrupted (conj+-), recorded on the SymFunc route
# through check_mode_identity; the sides sit at charge m + eps
KERNEL_FACTORIZATION_WITNESSES = {
    ("plus", 0): "753948605f3af085f3f816021abc4baec72204636e79c1aed584bcb1112b19f1",
    ("plus", -1): "619cb7bae139b7fcd2fa53b7ad10c3f1fe727e72eba36b500c8dfcdd73b4e934",
    ("minus", 0): "41c5cc0f90956f36b151086622da97777e1f6d15c24d9277d7e1629555d634c5",
    ("minus", -1): "6e5cf50102b2321ddf8a18a4d4de7f1df3a4d17dd6ad14c79db98d0d647cdeca",
    ("conj+", 0): "fab9a115ac4f3241740f0a69f12b4105e2c49abb97ad88d1a4d8538271182ffc",
    ("conj+", -1): "b96228e94032d5f6b9e192da3057c3919c8b76caf838eca6edc4c23805966de3",
    ("conj-", 0): "1c13f387eb35e321297de450cddd2d42b63e2daf052e0d950bd4e0e25899cda9",
    ("conj-", -1): "f60ec746dabadc75f8c66da4474ceb1a4eba7b18ed018be5155e816e5e300560",
}


# each control swaps one operator that symfock.verify reads, or that the
# operators it reads from fock read, for a wrong one, and pins the sha256 of
# the witness that follows.  verify imports h_k and e_k from bases when an
# item runs, so those are swapped in bases, after the passing run has cached
# every h_k and e_k the item reads (the originals recurse through the module
# name, so only k = 1 or 2 is wrong)
NEGATIVE_CONTROLS = [
    pytest.param(
        "commutation", ("ee", 1, 1), bases, "elementary_e", _doubled_at(elementary_e, 1),
        "cfa3e3f48178ea8628b31db3d74eb9278abfa58e31c8cc6ef720fba9646fd359", id="commutation",
    ),
    # the lower pair h_1-perp e_1 on the right side of he
    pytest.param(
        "commutation", ("he", 2, 2), bases, "complete_h", _doubled_at(complete_h, 1),
        "780df333340760e44b3f349ee143e71c033e164394c8926e0bcdb064f62e9489", id="commutation-he",
    ),
    # fock.alpha and fock.virasoro read their mode columns through bilinear_column
    pytest.param(
        "heisenberg", ("comm", -1, 1), fock, "bilinear_column", _alpha_doubled_at(1),
        "841801ae7f0120b4184eee14cfa33bcb73c3656a2928653089d11cb363038db7", id="heisenberg-comm",
    ),
    pytest.param(
        "heisenberg", ("action", 1), fock, "bilinear_column", _alpha_doubled_at(1),
        "9660d1ffe1c1b37705bc079c7eafd48ad54f153ec3f3c9a9e2862f094b7efd91", id="heisenberg-action",
    ),
    # the untwisted modes, missing the 1/(1 - t**k) of the positive ones
    pytest.param(
        "twisted-heisenberg", ("comm", -1, 1), verify, "twisted_alpha", _untwisted,
        "3c659f4d17931c3dc0947398b7267fb8a3395a8f246a5c3eb60ad976a8009c4c", id="twisted-heisenberg",
    ),
    # the bilinear weight (1-beta) b - beta a off by one: L_k + alpha_k
    pytest.param(
        "virasoro", (Fraction(1, 2), -1, 1), fock, "bilinear_column", _virasoro_plus_alpha,
        "d4dd76fba0ce3008dd5967939c1f43a25a2e69e63b94574d4665f96dd7302ae6", id="virasoro",
    ),
    pytest.param(
        "kernel-factorization", ("plus", 0), bases, "complete_h", _doubled_at(complete_h, 1),
        KERNEL_FACTORIZATION_WITNESSES[("plus", 0)], id="kernel-factorization-plus",
    ),
    pytest.param(
        "kernel-factorization", ("minus", 0), bases, "complete_h", _doubled_at(complete_h, 1),
        KERNEL_FACTORIZATION_WITNESSES[("minus", 0)], id="kernel-factorization-minus",
    ),
    pytest.param(
        "kernel-factorization", ("conj+", 0), verify, "DEFORMED_PLUS", fock.corrupted_kernel(fock.DEFORMED_PLUS),
        KERNEL_FACTORIZATION_WITNESSES[("conj+", 0)], id="kernel-factorization-conj",
    ),
    pytest.param(
        "kernel-factorization", ("conj-", 0), verify, "DEFORMED_MINUS", fock.corrupted_kernel(fock.DEFORMED_MINUS),
        KERNEL_FACTORIZATION_WITNESSES[("conj-", 0)], id="kernel-factorization-conj-minus",
    ),
]


@pytest.mark.parametrize("suite, params, module, name, wrong, sha256", NEGATIVE_CONTROLS)
def test_mode_identity_suites_can_fail(monkeypatch, suite, params, module, name, wrong, sha256):
    item = (suite, params, SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1)))
    assert _execute_item(item).ok
    monkeypatch.setattr(module, name, wrong)
    result = _execute_item(item)
    assert not result.ok
    assert list(result.witness) == ["charge", "p", "lhs", "rhs"]
    assert _witness_sha256(result) == sha256


def _split_moved(k, deg, m):
    """The normal-ordering split moved from a' < m to a' <= m."""
    return range(k - deg, m + 1), range(m + 1, deg)


BILINEAR_WINDOW = SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1))
# the wrong operators of the bilinear controls, and the moved split, with the
# sha256 of their failing items' [name, witness] pairs, recorded when each
# witness still equalled that of the SymFunc vector route (heisenberg_mode,
# twisted_heisenberg_mode and virasoro_mode through check_mode_identity)
BILINEAR_FAULTS = [
    pytest.param(
        "heisenberg", "bilinear_column", _alpha_doubled_at(1),
        "09ddcc2db8577eb3050b4e17fb8499fb43c2b57ea383db8b03f3d22aa5c53246", id="alpha-doubled",
    ),
    pytest.param(
        "twisted-heisenberg", "twisted_alpha", _untwisted,
        "4b747da0631fc28c8be23febb4cce2f58ff9edfee8eb6ca1b08b0874d0b34f3e", id="untwisted",
    ),
    pytest.param(
        "virasoro", "bilinear_column", _virasoro_plus_alpha,
        "5e4dbbd5ebb8ca22c97dd701b7c07ad14c52d2604102cd40e0fd0ea267ab89be", id="virasoro-plus-alpha",
    ),
    pytest.param(
        "heisenberg", "_pair_ranges", _split_moved,
        "6a819498b35476042ecc5221385747ea26af7e53fee2958ff9a549ac325fb4c0", id="heisenberg-split",
    ),
    pytest.param(
        "virasoro", "_pair_ranges", _split_moved,
        "25e717947855f8c811fde43024ae5afd51ae95de8315673b1e5060594567f3f3", id="virasoro-split",
    ),
]


def _patch_fault(monkeypatch, name, wrong):
    """Apply a bilinear fault to fock and verify, on empty bilinear caches."""
    monkeypatch.setattr(fock, "_heis_cache", {})
    monkeypatch.setattr(fock, "_vir_cache", {})
    monkeypatch.setattr(fock, name, wrong)
    if hasattr(verify, name):
        monkeypatch.setattr(verify, name, wrong)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("suite, name, wrong, sha256", BILINEAR_FAULTS)
def test_packed_witness_is_the_symfunc_witness(monkeypatch, threads, suite, name, wrong, sha256):
    opts = verify.SUITES[suite].defaults._replace(**BILINEAR_WINDOW._asdict())
    if suite == "virasoro":
        opts = opts._replace(betas=(Fraction(1, 2),))
    _patch_fault(monkeypatch, name, wrong)
    failed = [[r.name, r.witness] for r in run_suite(suite, opts, threads=threads) if not r.ok]
    assert failed
    assert hashlib.sha256(json.dumps(failed).encode()).hexdigest() == sha256


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


def test_passing_packed_items_build_no_symfunc(monkeypatch):
    # cold fermion kernels and bilinear caches: a passing item of each
    # bilinear suite is packed zero tests only, with no SymFunc fallback
    def refuse(*args, **kwargs):
        raise AssertionError("a passing packed item built a RatFun or a SymFunc")

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
    # so is an anticommutator item, run again on warm kernels with no check
    # skipped; its delta (1-t)**2 may stay one RatFun product per item
    items = [
        ("fermion", ("pm", -1)),
        ("fermion", ("pp", 0)),
        ("twisted-fermion", ("pm", -1)),
        ("twisted-fermion", ("mm", 1)),
    ]
    for refused in (False, True):
        monkeypatch.setattr(verify, "_passed", {})
        with monkeypatch.context() as patch:
            if refused:
                patch.setattr(SymFunc, "__init__", refuse)
            results = [_execute_item((suite, params, BILINEAR_WINDOW)) for suite, params in items]
        assert all(r.ok for r in results)
    # and a kernel-factorization item of each kind, run again on warm kernels
    # and a warm h_s, builds neither a RatFun nor a SymFunc
    items = [("kernel-factorization", (kind, 0), BILINEAR_WINDOW) for kind in ("plus", "minus", "conj+", "conj-")]
    assert all(_execute_item(item).ok for item in items)
    with monkeypatch.context() as patch:
        patch.setattr(RatFun, "__init__", refuse)
        patch.setattr(RatFun, "_raw", refuse)
        patch.setattr(SymFunc, "__init__", refuse)
        results = [_execute_item(item) for item in items]
    assert all(r.ok for r in results)


# one wrong operator per suite outside the mode identities, with its witness's
# keys and sha256; corollaries reads only crosscheck_corollaries, so its
# control corrupts the q_k that check reads
OTHER_CONTROLS = [
    pytest.param(
        "duality", ((2, 1), (2, 1)), bases, "schur", _doubled_at(bases.schur, (2, 1)), ["la", "mu", "value"],
        "40bbab3555c5afe08d69a3d2e26f89f087a27e102fb2bc57fe5909ca55b27f85", id="duality",
    ),
    pytest.param(
        "bases-agreement",
        ("schur-routes", (2, 1)),
        vertex,
        "basis_via_vertex",
        lambda kind, la: basis_via_vertex(kind, la).scaled(2),
        ["vertex", "generating", "det"],
        "4033cba63152ede2fe31e81ab50f9cd36e24f3a16f57b4dc1cecf39d7b7b43d8",
        id="bases-agreement",
    ),
    # each finite-variable oracle swapped for the other: P_21 != s_21 in 3 variables
    pytest.param(
        "bases-agreement",
        ("hl-oracle", (2, 1)),
        bases,
        "hall_littlewood_oracle",
        bases.schur_oracle,
        ["la", "n"],
        "437456f73ac369a0f0d5b4b2a9eba6bf08e8b16fd03eabcca094a5ca8e9c3a6f",
        id="hl-oracle",
    ),
    pytest.param(
        "bases-agreement",
        ("schur-oracle", (2, 1)),
        bases,
        "schur_oracle",
        bases.hall_littlewood_oracle,
        ["la", "n"],
        "437456f73ac369a0f0d5b4b2a9eba6bf08e8b16fd03eabcca094a5ca8e9c3a6f",
        id="schur-oracle",
    ),
    pytest.param(
        "corollaries", ((2, 1),), vertex, "q_coefficient", _doubled_at(vertex.q_coefficient, 1), ["la", "hl_equal", "dual_equal"],
        "7256941a5436b41c2898df5a75123c7d5210597682571294b952d58ddb142c2e", id="corollaries",
    ),
]


@pytest.mark.parametrize("suite, params, module, name, wrong, keys, sha256", OTHER_CONTROLS)
def test_other_suites_can_fail(monkeypatch, suite, params, module, name, wrong, keys, sha256):
    item = (suite, params, SweepOptions(max_degree=3))
    assert _execute_item(item).ok
    monkeypatch.setattr(module, name, wrong)
    result = _execute_item(item)
    assert not result.ok
    assert list(result.witness) == keys
    assert _witness_sha256(result) == sha256


@pytest.mark.parametrize(
    "name, wrong",
    [("complete_h", _doubled_at(complete_h, 1)), ("elementary_e", _doubled_at(elementary_e, 2))],
    ids=["h1-doubled", "e2-doubled"],
)
def test_corollaries_catch_a_corrupted_h_or_e(monkeypatch, name, wrong):
    # the composed side convolves h and e in `vertex`; the direct side's q_k
    # reads neither, so a fault in either shows.  The originals recurse through
    # the patched module name, and the convolution is memoised too, so these
    # caches are emptied around the fault.
    caches = (complete_h, elementary_e, bases.q_coefficient, vertex._convolved_var_modes)
    item = ("corollaries", ((2, 1),), SweepOptions(max_degree=3))
    assert _execute_item(item).ok
    for f in caches:
        f.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(bases, name, wrong)
            patch.setattr(vertex, name, wrong)
            result = _execute_item(item)
    finally:
        for f in caches:
            f.cache_clear()
    assert not result.ok
    assert list(result.witness) == ["la", "hl_equal", "dual_equal"]


@pytest.mark.parametrize(
    "params, sha256",
    [
        (("pp", -2), "096a0e19088fafa213a9e89ee241b260f9752767bdcee3c8584872ad6145d066"),
        (("pm", -1), "06cde35ce7a3408317def4d14c2bb6dc1bec81f785ade733a5fb70f3a4881f78"),
    ],
    ids=["pp", "pm-delta"],
)
def test_twisted_fermion_fails_with_t_doubled(monkeypatch, params, sha256):
    # each part of the packed zero test can fail: the t-shifted compositions
    # (pp) and the delta (1-t)**2 p_la term (pm at a+b = -1); the witnesses
    # are pinned byte for byte, the delta term of pm's right side included
    item = ("twisted-fermion", params, SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1)))
    assert _execute_item(item).ok
    run = partial(verify._run_anticommutators, "twisted-fermion", TWISTED_PLUS, TWISTED_MINUS, RF_T + RF_T)
    monkeypatch.setitem(verify.SUITES, "twisted-fermion", verify.SUITES["twisted-fermion"]._replace(run=run))
    result = _execute_item(item)
    assert not result.ok
    assert list(result.witness) == ["relation", "a", "b", "charge", "p", "lhs", "rhs"]
    assert result.witness["lhs"] != result.witness["rhs"]
    assert _witness_sha256(result) == sha256


@pytest.mark.parametrize("params", list(KERNEL_FACTORIZATION_WITNESSES), ids=lambda p: f"{p[0]}-a{p[1]}")
def test_kernel_factorization_witnesses_are_pinned(monkeypatch, params):
    kind = params[0]
    if kind in ("plus", "minus"):
        module, name, wrong = bases, "complete_h", _doubled_at(complete_h, 1)
    else:
        name = "DEFORMED_PLUS" if kind == "conj+" else "DEFORMED_MINUS"
        module, wrong = verify, corrupted_kernel(getattr(fock, name))
    item = ("kernel-factorization", params, SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1)))
    assert _execute_item(item).ok
    monkeypatch.setattr(module, name, wrong)
    result = _execute_item(item)
    assert not result.ok
    assert _witness_sha256(result) == KERNEL_FACTORIZATION_WITNESSES[params]


def _products(K1, K2, e, a, b, m, la):
    """K1[a] K2[b], K2[b] K1[a], K1[a+e] K2[b-e] and K2[b+e] K1[a-e] on z^m p_la,
    the four products of a twisted relation, through the SymFunc mode actions
    (a route the packed executor does not take)."""
    v = FockVector(m, SymFunc.monomial(la))
    return [
        mode_apply(P, x, mode_apply(Q, y, v))
        for P, x, Q, y in ((K1, a, K2, b), (K2, b, K1, a), (K1, a + e, K2, b - e), (K2, b + e, K1, a - e))
    ]


@pytest.mark.parametrize(
    "rel, a, b, m",
    [("pm", -2, 0, 1), ("pp", -2, -1, -1)],  # pp lands on the diagonal a+b+2m = -5
    ids=["pm", "pp"],
)
def test_charge_relabelling_holds_on_a_corrupted_kernel(rel, a, b, m):
    # each product at (a, b, m) is the one at (a + eps1 m, b + eps2 m, 0) but
    # for the charge label, also where the relation fails: the charge-0 frame
    # the compositions are read in, and the key the executor skips on
    bad = corrupted_kernel(TWISTED_PLUS)
    K1, K2, e = (bad, TWISTED_MINUS, 1) if rel == "pm" else (bad, bad, -1)
    la = (2, 1)
    at_m = _products(K1, K2, e, a, b, m, la)
    at_0 = _products(K1, K2, e, a + K1.eps * m, b + K2.eps * m, 0, la)
    for x, y in zip(at_m, at_0):
        assert (x.charge, y.charge) == (m + K1.eps + K2.eps, K1.eps + K2.eps)
        assert x.body == y.body
    assert not at_m[0].is_zero()
    diff = at_m[0].body + at_m[1].body - (at_m[2].body + at_m[3].body).scaled(RF_T)
    assert not diff.is_zero()


def test_each_relabelled_check_runs_once(monkeypatch):
    # every check is one call of the packed zero test; a key seen passing is
    # never tested again
    opts = SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1))
    monkeypatch.setattr(verify, "_passed", {})
    calls = []
    differ = verify._differ
    monkeypatch.setattr(verify, "_differ", lambda left, right: calls.append(1) or differ(left, right))
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
    assert len(calls) == len(keys) == sum(map(len, verify._passed.values())) < checks


def test_an_item_builds_each_composition_once(monkeypatch):
    # an item keeps one diagonal per (d0, la), shared by its charges, so the
    # t-neighbour compositions one charge built are read, not rebuilt, at the next
    opts = SweepOptions(max_degree=3, max_mode=2)
    monkeypatch.setattr(verify, "_passed", {})
    built = []
    composition = fock.composition

    def counted(k1, j1, k2, j2, la):
        built.append((k1, j1, k2, j2, la))
        return composition(k1, j1, k2, j2, la)

    monkeypatch.setattr(fock, "composition", counted)
    total = 0
    for result in run_suite("twisted-fermion", opts, threads=1):
        assert result.ok and len(set(built)) == len(built), result.name
        total += len(built)
        built.clear()
    assert total


def test_passing_keys_do_not_hide_a_corrupted_kernel():
    # the corrupted copy is its own kernel object, so its keys are its own
    opts = SweepOptions(max_degree=3, max_mode=2, charges=(-1, 0, 1))
    assert _execute_item(("fermion", ("pm", -1), opts)).ok
    result = _execute_item(("fermion", ("pm", -1), opts._replace(corrupt=True)))
    assert not result.ok and result.witness["relation"] == "pm"
    # the item is the delta diagonal, so the witness's right side carries the
    # (1-t)**2 p_la term (p_la at t = 0); it is pinned byte for byte
    assert _witness_sha256(result) == "7df87f7f01dac78302eb33f7f6fe4e10053dd111f04eb3ed8c8fe35bfce833e5"


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
