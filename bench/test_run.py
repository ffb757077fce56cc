"""Self-tests of the benchmark: python3 -m pytest -q bench/test_run.py"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import types
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


def _ok_lines(suite: str, n: int, repeat_last: bool = False) -> bytes:
    names = [f"item{i}" for i in range(n)]
    if repeat_last:
        names[-1] = names[0]
    return b"".join(
        json.dumps({"suite": suite, "identity": name, "status": "ok"}, separators=(",", ":")).encode() + b"\n"
        for name in names
    )


def test_self_time_subtracts_direct_children():
    ticks = iter([0, 10, 30, 40, 45, 100, 200, 205])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.spanned("inner", lambda: None)
    leaf = tracer.spanned("leaf", lambda: None)

    def body():
        inner()  # 10 .. 30
        leaf()  # 40 .. 45

    tracer.spanned("outer", body)()  # 0 .. 100
    tracer.spanned("leaf", lambda: None)()  # 200 .. 205, a root span
    totals = spans.self_times(tracer.names, tracer.spans)
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["ns"] == 100
    assert totals["outer"]["self_ns"] == 100 - 20 - 5
    assert totals["inner"]["self_ns"] == 20
    assert totals["leaf"]["calls"] == 2
    assert totals["leaf"]["durations"] == [5, 5]
    assert list(tracer.spans[3::spans.FIELDS]) == [-1, 0, 0, -1]


def test_self_time_of_nested_grandchildren():
    # root 0..100 > child 10..90 > grandchild 20..50: only direct children count
    records = array("q", [0, 0, 100, -1, 1, 10, 90, 0, 2, 20, 50, 1])
    totals = spans.self_times(["root", "child", "grand"], records)
    assert totals["root"]["self_ns"] == 20
    assert totals["child"]["self_ns"] == 50
    assert totals["grand"]["self_ns"] == 30


def test_mode_on_basis_span_named_by_cache_growth():
    tracer = spans.Tracer()

    class Kernel:
        def __init__(self):
            self._modes = {}

        def mode_on_basis(self, key):
            self._modes.setdefault(key, key)
            return key

    wrapped = tracer.mode_on_basis(Kernel.mode_on_basis)
    k = Kernel()
    for key in (1, 1, 2, 1):
        wrapped(k, key)
    totals = spans.self_times(tracer.names, tracer.spans)
    assert totals[spans.MODE_MISS]["calls"] == 2
    assert totals[spans.MODE_HIT]["calls"] == 2


def test_patch_replaces_every_binding():
    def f():
        return 1

    owner = types.ModuleType("owner")
    user = types.ModuleType("user")
    owner.f = f
    user.alias = f
    user.other = len
    assert spans._patch([owner, user], owner, "f", lambda fn: lambda: fn() + 1)
    assert owner.f() == 2 and user.alias() == 2 and user.other is len
    assert not spans._patch([owner, user], owner, "gone", lambda fn: fn)


def test_digit_bits_uses_balanced_digits():
    assert spans.digit_bits(0, 192) == 0
    assert spans.digit_bits(-5, 192) == 3
    assert spans.digit_bits((3 << 192) + 7, 192) == 3
    # 2**191 - 1 is the largest digit that does not borrow from the next limb
    assert spans.digit_bits((1 << 191) - 1, 192) == 191
    # 2**191 needs the digits (-2**191, 1): the low digit fills the whole limb
    assert spans.digit_bits(1 << 191, 192) == 192


def test_verify_gate_rejects_wrong_item_counts():
    cmd = run.Cmd(("verify", "duality"), "verify", 3)
    assert run.check(cmd, 0, _ok_lines("duality", 3)) is None
    assert run.check(cmd, 0, _ok_lines("duality", 2)) is not None
    assert run.check(cmd, 0, _ok_lines("duality", 4)) is not None
    assert run.check(cmd, 0, _ok_lines("duality", 3, repeat_last=True)) is not None
    assert run.check(cmd, 0, _ok_lines("fermion", 3)) is not None
    assert run.check(cmd, 1, _ok_lines("duality", 3)) is not None
    assert run.check(cmd, 0, b"not json\n") is not None


def test_tau_and_expand_gates():
    tau = run.Cmd(("kp", "--schur", "2,1"), "tau")
    assert run.check(tau, 0, b'{"tau":true,"source":"x","deformed":false}\n') is None
    assert run.check(tau, 0, b'{"left_charge":1,"right_charge":-1,"terms":[]}\n') is not None
    expand = run.Cmd(("expand", "schur", "2,1"), "expand", "schur")
    assert run.check(expand, 0, b'{"terms":[]}\n') is not None
    assert run.check(expand, 0, b'{"terms":[{"p":[1],"coeff":{}}]}\n') is None


def test_route_outputs_must_be_byte_identical():
    cmds = run._expand("schur", "2,1", ("det", "vertex", "generating")) + run._expand(
        "hl", "2,1", ("vertex", "generating")
    )
    same = [b"A\n", b"A\n", b"A\n", b"B\n", b"B\n"]
    assert run.route_mismatches(cmds, same) == set()
    differ = [b"A\n", b"A\n", b"A \n", b"B\n", b"B\n"]
    assert run.route_mismatches(cmds, differ) == {0, 1, 2}


def test_negative_controls_fail_when_the_control_passes():
    corrupt, search = run.CONTROLS
    fail_line = b'{"suite":"fermion","identity":"pp[a+b=0]","status":"fail","witness":{}}\n'
    assert run.check(corrupt, 1, fail_line) is None
    assert run.check(corrupt, 0, _ok_lines("fermion", 27)) is not None
    assert run.check(corrupt, 1, b"") is not None
    assert run.check(search, 0, b'{"found":true,"tau":{},"witness":{}}\n') is None
    assert run.check(search, 0, b'{"found":false}\n') is not None


def test_item_counts_match_the_suite_builders():
    from symfock.verify import _BUILDERS, DEFAULT_OPTIONS

    cmds = [c for w in run.WORKLOADS.values() for c in w.commands(0)] + list(run.CONTROLS)
    checked = 0
    for cmd in cmds:
        if cmd.argv[0] != "verify" or cmd.check != "verify":
            continue
        suite, flags = cmd.argv[1], cmd.argv[2:]
        window = {flags[i].lstrip("-").replace("-", "_"): int(flags[i + 1]) for i in range(0, len(flags), 2)}
        opts = dataclasses.replace(DEFAULT_OPTIONS[suite], **window)
        assert len(_BUILDERS[suite](opts)) == cmd.expect, cmd.argv
        checked += 1
    assert checked == 9


def test_seed_picks_partitions_and_repeats():
    assert run._bases_kp(0)[0].argv == ("kp", "--schur", "5,4,2,1")
    assert run._bases_kp(3) == run._bases_kp(3)
    assert run._bases_kp(1)[0].argv == ("kp", "--schur", "4,3,2,2,1")
    assert {c.argv[2] for c in run._bases_kp(5) if c.check == "expand" and c.argv[1] == "schur"} == {"6,4,1,1"}


def test_shim_records_spans_counts_and_census(tmp_path):
    out = tmp_path / "cmd0"
    env = run.Runner(tmp_path).env(1)
    proc = subprocess.run(
        [sys.executable, str(HERE / "spans.py"), str(out), "7", "verify", "fermion",
         "--max-degree", "2", "--max-mode", "1"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert run.check(run._verify("fermion", 15), 0, proc.stdout) is None
    traces = run.load_traces(tmp_path, 1)
    assert len(traces) == 1 and traces[0]["command"] == 7
    assert traces[0]["missing_hooks"] == []
    totals = traces[0]["totals"]
    assert totals["cli.main"]["calls"] == 1
    assert totals["verify.item"]["calls"] == 15
    assert totals[spans.MODE_MISS]["calls"] > 0
    census = traces[0]["census"]
    entries = sum(k["entries"] for k in census["kernels"].values())
    assert entries == totals[spans.MODE_MISS]["calls"]
    assert census["max_limb_bits"] > 0
