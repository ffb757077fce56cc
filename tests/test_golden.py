"""Golden stdout: verdict lines, witnesses and expansions stay byte-identical.

The hashes are sha256 digests of the stdout of each command, recorded
before the kernel modes moved to the translation identity.  A refactor
that keeps them keeps every verdict, every failure witness and every
vertex-route expansion, and the two thread counts check that output does
not depend on the worker count.  The deformed kp cases were recorded
before the translation tables moved to one common denominator.  `duality`,
`bases-agreement` and `corollaries` never read `--max-mode`, so at
`WINDOW` they exit 2 with no output; they are pinned at `--max-degree 3`,
whose output is what they printed at `WINDOW` while the option was
ignored.  The last three cases run with packed mode columns wider than
64 bits (96 and 128); they were recorded before the Q-valued modes were
packed.  `kp-search --degree-bound 4`, `kp --schur 4,3,2,2,1` and
`kp --dualschur` on 3,3,2,1 and 5,4,2,1 (`--deformed`) were recorded
before the KP check read its diagonal modes from one translation of tau
per leg.  The `twisted-fermion` pair (the `--corrupt` witness carries
Z[t] bodies) and `kernel-factorization --max-degree 5 --max-mode 4`
(twisted modes through `mode_apply`) were recorded before the Z[t]-valued
modes were packed.  `virasoro --max-degree 5 --max-mode 3` and
`kp --dualschur 4,3,2,1 --deformed` were recorded before the fermion and
twisted mode columns were built as integer digit sums.  The
`expand dualschur` cases on 4,2,2,2 and 5,2,2,1 and both `kp --file
kp_tdenominator.json` cases were recorded before the deformed mode bodies
were packed as columns over a factored (1-t^v) denominator.  The two
`--corrupt` cases at `--max-degree 4 --max-mode 3` (`fermion` over the
charges 2,-2,0) were recorded before each charge-relabelled anticommutator
check ran once per process; there the passing `mm` and `pm` items that
follow the failing ones skip checks already passed at another charge.
`virasoro` at the betas -1/3 and 3/2 was recorded before L^beta_k was
built as L^0_k - beta (k-1) alpha_k from two beta-free columns.
`commutation --max-degree 6 --max-mode 4` was recorded before f-perp was
applied from a per-operator plan with integer falling factorials.
`expand schur 3,2,1 --route det` and `expand hl 3,2,1 --route generating`
were recorded before each command imported only the modules it runs; they
hash as the vertex route does on the same partition.
The four `expand ... --route oracle` cases were recorded before the
finite-variable oracles moved to packed exponent keys with int
coefficients.
`heisenberg --max-degree 3 --max-mode 3 --charges=-5,0,5` (charges past
the partitions' weight) and `twisted-heisenberg --max-degree 3 --max-mode 2
--charges=-4,4` were recorded before the bilinear suites were checked on
packed columns with each bilinear assembled once across charges.
Commands run in `data/`, which holds the `--file` inputs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symfock import verify
from symfock.cli import main

DATA = Path(__file__).resolve().parent / "data"
WINDOW = ("--max-degree", "3", "--max-mode", "2")
EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = {
    ("verify", "commutation", *WINDOW): (0, "e84ce5dd5a611241b81deb7f6f8f99b9d2ceb582440aaf1e8747a72077b68804"),
    ("verify", "fermion", *WINDOW): (0, "b929c745aaa9fc3d101149c2037a7b0c43bf1f2ff60297fc3689c50dcc2d6996"),
    ("verify", "twisted-fermion", *WINDOW): (0, "7309adc1355f2481e62ca25b81a33e37f7d953b6a3259697e139b05a78cdd4d3"),
    ("verify", "heisenberg", *WINDOW): (0, "4aac11e8821d5783ebc211501e0759125267b32fda383d31e13aa3ca9dbf925b"),
    ("verify", "twisted-heisenberg", *WINDOW): (0, "a5aa7681b164b0a874d24003c755532a1132b9b10b5f623c83c3fb8c83432f97"),
    ("verify", "virasoro", *WINDOW): (0, "f74097dab22c562655cd16f2de30203d573c356ac7ae9778d18bfcdf7b46ca99"),
    ("verify", "kernel-factorization", *WINDOW): (0, "cafb919a03ba28b3a13bfeefd198200ac4327facee94422242d104dec0283019"),
    ("verify", "duality", *WINDOW): (2, EMPTY),
    ("verify", "bases-agreement", *WINDOW): (2, EMPTY),
    ("verify", "corollaries", *WINDOW): (2, EMPTY),
    ("verify", "duality", "--max-degree", "3"): (0, "213f7dca1d76ba35329d95f8341a40b40b1449198bd77b6c93a48d292656d659"),
    ("verify", "bases-agreement", "--max-degree", "3"): (0, "0a650e0bc4b7cacaf961a5644754d09c2ea4aec81f7516413a7ba3f7252a84bd"),
    ("verify", "corollaries", "--max-degree", "3"): (0, "1883896893fec43cf56f582db53e888283281b6b9514e5fd4d9cc60152141e41"),
    # the failure witness carries kernel-built bodies
    ("verify", "fermion", *WINDOW, "--corrupt"): (1, "0b5641945909bec491dc4a85d12d38e9a267389b9a59ab9df49823cc63afda2b"),
    ("expand", "schur", "3,2,1", "--route", "vertex"): (0, "fb983ca9b21132db292fc1a87c29e2386a86b8b53400c19256eabc8200949a60"),
    ("expand", "hl", "3,2,1", "--route", "vertex"): (0, "4ae67d166d6530821fd71989a79dd8b30f3c46f3e5bb3bd6e3e6acb35037f5ad"),
    ("expand", "dualschur", "3,2,1", "--route", "vertex"): (0, "c0a8b2e98b820908bc948ac8fb9116c79c59ff5b72b5886776b48941944fb357"),
    ("expand", "dualschur", "2,2", "--route", "vertex"): (0, "530ea74b245a61901cab2535b557ea69d38f20c12552b4d643bb944c14e91e43"),
    ("kp", "--schur", "3,2,1"): (0, "6aa5630107a3e4357746f96e965f9d6b7cb19e109796849a5e3ecd93827fb1c7"),
    ("kp", "--dualschur", "3,2,1", "--deformed"): (0, "c3c79fed3ac14bcafb5ef4cb7bde9784eb144e17d927bf1e2709cb26c8c8946d"),
    # S_31 + S_22 is not a deformed tau function; the witness carries deformed-kernel bodies
    ("kp", "--deformed", "--file", "kp_nontau_deformed.json"): (1, "feaa5b1a06b37984bb2dfd32b5ec771b218c902349788329a64b54aa431daf6b"),
    ("kp", "--schur", "5,4,2,1"): (0, "78906ec17c2a3ebb43c000d11a364d23d0464f2a0306064215304242eb755884"),
    # the kp-search witness is a classical Omega tensor
    ("kp-search", "--degree-bound", "4"): (0, "43a2bf758c57034cf56add583be8bf6608c04b9c5b474923d6540fa23c7d99cf"),
    ("kp", "--schur", "4,3,2,2,1"): (0, "9a69632b809723f715f72d027befc7de13fa5112f0c0f38e8900de68e3b58f7a"),
    ("kp", "--dualschur", "3,3,2,1", "--deformed"): (0, "bac2bfd3f32f095f9ac3d4bd0f8783eb96b6095b825eb0952aa4cc1bc87984da"),
    ("kp", "--dualschur", "5,4,2,1", "--deformed"): (0, "2fec472a11fc42ec948c15918b6fc0fcebd8117cd3ab38ed7ff398881c82ce27"),
    ("verify", "heisenberg", "--max-degree", "4", "--max-mode", "4"): (0, "297d1b486ae28ba9bf6242450779ffe98d593fdf296bc3c489736b0bee07df2b"),
    ("verify", "fermion", "--max-degree", "6", "--max-mode", "4"): (0, "188ce3ff20fa3943b3783bac8c741445ccabc11e626049809b6f46250bec2558"),
    ("verify", "twisted-fermion", *WINDOW, "--corrupt"): (1, "9032705bd40bba3764298c51f34d88e278d54f60d1f0ca508d386228ee855830"),
    ("verify", "twisted-fermion", "--max-degree", "4", "--max-mode", "3"): (0, "e493ecb281ce0041efcb75cea0ff0208b511f2ea64af4c716c816ed2fc6836fb"),
    ("verify", "kernel-factorization", "--max-degree", "5", "--max-mode", "4"): (0, "e1546c0301f9371935fa246618c7113aba916d706694b3bbc79e157a0c0a5add"),
    ("verify", "virasoro", "--max-degree", "5", "--max-mode", "3"): (0, "00ef374f110c6edc6ccf05243be3c2f282f761b21f519185622aaf37c044e525"),
    ("kp", "--dualschur", "4,3,2,1", "--deformed"): (0, "77e9d246803c466d8d0ec89d6026b0059942679a0a60393c5894598c5bd36145"),
    ("expand", "dualschur", "4,2,2,2", "--route", "vertex"): (0, "4cc658cf49910489ac10a26b4de29f9848f8518becf0a56a62f99e26bcf40504"),
    ("expand", "dualschur", "5,2,2,1", "--route", "vertex"): (0, "86db385226ddf34af28a671cf6ab0c3a2680c31a5c0b51714f6a4281a299701e"),
    # s_21 + p_2/(1-t) + t p_111/(1-t^2): coefficients with t-denominators
    ("kp", "--file", "kp_tdenominator.json"): (1, "52e248b070910d854f2c0a1537ecdec149bee417544241e04a2af45097f506f3"),
    ("kp", "--deformed", "--file", "kp_tdenominator.json"): (1, "dc0f012a6174f4f1c9614436aa95aa0978dc3c831f713757c9fa24fb8aa00462"),
    ("verify", "twisted-fermion", "--corrupt", "--max-degree", "4", "--max-mode", "3"): (1, "277e992b21fae116ec53eff09d8c6fff5f75aaeef501a4a10a418dc4cacfc45e"),
    ("verify", "fermion", "--corrupt", "--max-degree", "4", "--max-mode", "3", "--charges=2,-2,0"): (1, "26f5575e60b0079aa25694b569fd5af8a15bc161a36a0fd812671c38a11f1aca"),
    ("verify", "virasoro", "--max-degree", "4", "--max-mode", "3", "--charges=-2,0,2", "--beta=-1/3", "--beta=3/2"): (0, "de9dce24146d91623fd4f86e00b9daf046f533e90744946e9539dac50b41e510"),
    ("verify", "commutation", "--max-degree", "6", "--max-mode", "4"): (0, "7231ee497b463d25f197bc457c47d7b09bf7cbaa7567ba05963767d045cb0950"),
    ("expand", "schur", "3,2,1", "--route", "oracle"): (0, "7e5ae189546fbdb2832de3cd918fd52a3c34c165ed99e206c9a01ea7a0d028b2"),
    ("expand", "hl", "2,2,1", "--route", "oracle"): (0, "b0fa7a240b0aacf4d134faee34a87e7f8ef193db3141b6fd1314d7d0814be739"),
    ("expand", "hl", "3,1", "--route", "oracle", "-n", "5"): (0, "ed9ab99a5349343023329400238a5a22f5c24c3513a329d309844a1d2bc3855b"),
    # h_4 in three variables goes through expand_in_variables
    ("expand", "h", "4", "--route", "oracle", "-n", "3"): (0, "6f9dae221528451f98f7880e89bd98c447ea36106a959cc70475941d0469405b"),
    ("verify", "heisenberg", "--max-degree", "3", "--max-mode", "3", "--charges=-5,0,5"): (0, "9c722adbc96e6bbf40a9416c5ec6a7776ec150e514e25c5bc3a11386a0530ea1"),
    ("verify", "twisted-heisenberg", "--max-degree", "3", "--max-mode", "2", "--charges=-4,4"): (0, "a5aa7681b164b0a874d24003c755532a1132b9b10b5f623c83c3fb8c83432f97"),
    ("expand", "schur", "3,2,1", "--route", "det"): (0, "fb983ca9b21132db292fc1a87c29e2386a86b8b53400c19256eabc8200949a60"),
    ("expand", "hl", "3,2,1", "--route", "generating"): (0, "4ae67d166d6530821fd71989a79dd8b30f3c46f3e5bb3bd6e3e6acb35037f5ad"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout(monkeypatch, capsys, threads, argv):
    monkeypatch.setenv("SF_THREADS", threads)
    monkeypatch.chdir(DATA)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]


def test_every_suite_has_a_golden_case():
    # a suite added to verify.SUITES lands with a hash of its output
    pinned = {argv[1] for argv, (_, digest) in GOLDEN.items() if argv[0] == "verify" and digest != EMPTY}
    assert set(verify.SUITE_NAMES) <= pinned


# In-process tests import every module up front, so a handler that misses
# an import of its own passes them; a fresh interpreter per command does
# not, and shows which modules the command loaded.  With no argv the
# driver only builds the parser.
DRIVER = """\
import sys
before = set(sys.modules)
from symfock import cli
cli.build_parser()
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
print(*sorted(set(sys.modules) - before), file=sys.stderr)
sys.exit(code)
"""
SRC = Path(verify.__file__).resolve().parent.parent
NO_VERTEX = {"symfock.verify", "symfock.vertex", "dataclasses"}
NO_FOCK = NO_VERTEX | {"symfock.fock", "symfock.kp"}
FRESH = [
    ((), "1", NO_FOCK | {"symfock.bases", "symfock.symfunc"}),
    (("expand", "schur", "3,2,1", "--route", "det"), "1", NO_FOCK),
    (("expand", "schur", "3,2,1", "--route", "vertex"), "1", {"symfock.verify", "symfock.kp", "dataclasses"}),
    (("expand", "hl", "3,2,1", "--route", "generating"), "1", {"symfock.verify", "symfock.kp", "dataclasses"}),
    (("expand", "schur", "3,2,1", "--route", "oracle"), "1", NO_FOCK),
    (("verify", "heisenberg", *WINDOW), "1", {"symfock.kp"}),
    (("verify", "heisenberg", *WINDOW), "2", {"symfock.kp"}),
    (("kp", "--dualschur", "4,3,2,1", "--deformed"), "1", NO_VERTEX),
    (("kp-search", "--degree-bound", "4"), "1", NO_VERTEX),
]


@pytest.mark.parametrize(
    "argv, threads, unloaded", FRESH, ids=[f"{' '.join(argv) or 'parser'} threads={t}" for argv, t, _ in FRESH]
)
def test_fresh_interpreter_runs_each_command_on_its_own_imports(argv, threads, unloaded):
    env = dict(os.environ, SF_THREADS=threads, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, *argv], cwd=DATA, env=env, capture_output=True, timeout=120
    )
    loaded = set(proc.stderr.decode().splitlines()[-1].split())
    assert "symfock.cli" in loaded and loaded & unloaded == set()
    if argv:
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[argv]
    else:
        assert (proc.returncode, proc.stdout) == (0, b"")
