"""Command-line front end: basis expansion, identity sweeps, KP checking.

Machine-readable output is line-delimited JSON on stdout; human-readable
summaries go to stderr.  Exit codes: 0 success/verified, 1 mathematical
counterexample, 2 usage or input error, 3 internal error (any other
exception, reported as one `error:` line on stderr).  A `verify` window
that is negative or yields no identities is a usage error, never
"verified", and so are negative counts (`expand -n`,
`kp-search --degree-bound`).  Every mode-identity suite,
`commutation` included, evaluates on the charges given by `--charges`.
The bilinear suites (`heisenberg`, `twisted-heisenberg`, `virasoro`) grow
steeply in cost with a charge past the window's weight, since the fermion
pairs of a mode run out to the charge (`fock._pair_ranges`):
`verify heisenberg --max-degree 1 --max-mode 1 --charges=N` takes, on a
shared 2-vCPU host, 0.25 s at N = 12, 1.7 s at 20, 5.0 s at 24 and 15.6 s
at 28, and at N = 99 does not finish in 60 s.
`verify --corrupt` swaps in a corrupted plus kernel as a negative
control; only the anticommutator suites `fermion` and `twisted-fermion`
accept it, and any other suite exits 2.  Likewise an option that is
never read exits 2 rather than being ignored: `--max-mode` and
`--charges` on `duality`, `bases-agreement` and `corollaries`, `--beta`
on every suite but `virasoro` (the fields a suite reads follow from its
record in `verify.SUITES`), and `expand -n` on every route but `oracle`.
An unknown suite exits 2 and names every suite.
`kp --file` with a zero tau (no terms, or only zero coefficients) exits
2 as well: the zero vector is no point of the Sato Grassmannian, so its
vacuous bilinear identity is never reported as TAU.
SF_THREADS caps the worker pool used by `verify` (default: available
parallelism); it must be a positive integer, otherwise `verify` exits 2.

Start-up: each command imports only the modules it runs, so a process
compiles only those (where no bytecode is cached, each start compiles them
from source).  Building the parser imports none; `expand` loads `bases`
and `symfunc`, and `vertex` with `fock` only on the vertex and generating
routes; `kp` and `kp-search` load `bases`, `fock` and `kp`; `verify` loads
every module but `kp`.  `verify -h` reads the suite names from `verify`
only when it prints them.  `kp` and `expand` never import `dataclasses`
(and with it `inspect`).  `verify`'s `SweepOptions`, `CheckResult` and
`Suite` are dataclasses: options and suites are derived with
`dataclasses.replace` (as the benchmark's tests do on
`verify.DEFAULT_OPTIONS`), and a sweep runs long enough that the import
is a small share of it.
"""

from __future__ import annotations

import argparse
import json
import sys

ROW_BASES = ("h", "e", "q")
PARTITION_BASES = ("schur", "hl", "dualschur")


class UsageError(Exception):
    pass


def _parse_partition(text: str):
    from .partitions import as_partition

    text = text.strip()
    if text in ("", "-", "[]"):
        return ()
    text = text.strip("[]")
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad partition syntax: {text!r} (expected e.g. 3,1)") from None
    if parts == (0,):
        return ()
    try:
        return as_partition(parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_charges(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"bad charge list: {text!r} (expected e.g. -2,-1,0,1,2)") from None


def _parse_fraction(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational: {text!r}") from None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


# ---------------------------------------------------------------------------
# expand


def _cmd_expand(args) -> int:
    # every route reads bases (vertex through its series); only the vertex
    # and generating routes need vertex, and with it fock
    from . import bases
    from .symfunc import symfunc_to_json

    basis = args.basis
    la = _parse_partition(args.partition)
    route = args.route
    if args.n is not None and args.n < 0:
        raise UsageError("-n must be nonnegative")
    if args.n is not None and route != "oracle":
        raise UsageError(f"-n is read only by the oracle route, not {route!r}")
    if basis in ROW_BASES:
        if len(la) > 1:
            raise UsageError(f"basis {basis!r} takes a single index k, got {list(la)}")
        k = la[0] if la else 0
        if route not in ("det", "oracle"):
            raise UsageError(f"basis {basis!r} supports routes det, oracle")
        f = {"h": bases.complete_h, "e": bases.elementary_e, "q": bases.q_coefficient}[basis](k)
        if route == "oracle":
            n = args.n if args.n is not None else max(f.degree(), 1)
            _emit(bases.varpoly_to_json(bases.expand_in_variables(f, n), n))
        else:
            _emit(symfunc_to_json(f))
        return 0
    if basis not in PARTITION_BASES:
        raise UsageError(f"unknown basis {basis!r}")
    kind = {"schur": "schur", "hl": "hall_littlewood", "dualschur": "dual_schur"}[basis]
    routes = {
        "schur": ("det", "vertex", "generating", "oracle"),
        "hl": ("vertex", "generating", "oracle"),
        "dualschur": ("det", "vertex", "generating"),
    }[basis]
    if route not in routes:
        raise UsageError(f"basis {basis!r} supports routes {', '.join(routes)}")
    if route == "oracle":
        n = args.n if args.n is not None else max(sum(la), 1)
        if n < len(la):
            raise UsageError(f"oracle route needs n >= len(la) = {len(la)}")
        oracle = bases.schur_oracle if basis == "schur" else bases.hall_littlewood_oracle
        _emit(bases.varpoly_to_json(oracle(la, n), n))
        return 0
    if route == "det":
        f = bases.schur(la) if basis == "schur" else bases.dual_schur(la)
    elif route == "vertex":
        from .vertex import basis_via_vertex

        f = basis_via_vertex(kind, la)
    else:
        from .vertex import generating_coefficient_direct

        f = generating_coefficient_direct(kind, la)
    _emit(symfunc_to_json(f))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from .verify import SweepOptions, run_suite

    suite = args.suite
    opts = SweepOptions(
        max_degree=args.max_degree,
        max_mode=args.max_mode,
        charges=_parse_charges(args.charges) if args.charges is not None else None,
        betas=tuple(_parse_fraction(b) for b in args.beta) if args.beta is not None else None,
        corrupt=args.corrupt,
    )
    try:
        results = run_suite(suite, opts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    total = 0
    for result in results:
        total += 1
        if result.ok:
            _emit({"suite": result.suite, "identity": result.name, "status": "ok"})
        else:
            _emit(
                {
                    "suite": result.suite,
                    "identity": result.name,
                    "status": "fail",
                    "witness": result.witness,
                }
            )
            _note(f"FAIL {result.suite}:{result.name}")
            return 1
    _note(f"{suite}: {total} identities verified")
    return 0


# ---------------------------------------------------------------------------
# kp


def _cmd_kp(args) -> int:
    sources = [s for s in (args.schur, args.dualschur, args.file) if s is not None]
    if len(sources) != 1:
        raise UsageError("exactly one of --schur, --dualschur, --file is required")
    from .bases import dual_schur, schur
    from .kp import omega_apply, tensor_to_json
    from .symfunc import symfunc_from_json

    if args.schur is not None:
        tau = schur(_parse_partition(args.schur))
        label = f"schur[{args.schur}]"
    elif args.dualschur is not None:
        tau = dual_schur(_parse_partition(args.dualschur))
        label = f"dualschur[{args.dualschur}]"
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            tau = symfunc_from_json(payload)
        except OSError as exc:
            raise UsageError(f"cannot read {args.file}: {exc}") from None
        except (json.JSONDecodeError, ValueError) as exc:
            raise UsageError(f"malformed tau file {args.file}: {exc}") from None
        if tau.is_zero():
            raise UsageError(f"tau file {args.file} is zero, which is no point of the Sato Grassmannian")
        label = args.file
    state = omega_apply(tau, tau, deformed=args.deformed)
    if not state:
        _emit({"tau": True, "source": label, "deformed": args.deformed})
        _note("TAU")
        return 0
    _emit(tensor_to_json(state))
    _note(f"NOT A TAU FUNCTION: {label}")
    return 1


def _cmd_kp_search(args) -> int:
    if args.degree_bound < 0:
        raise UsageError("--degree-bound must be nonnegative")
    from .kp import search_negative_control, tensor_to_json
    from .symfunc import symfunc_to_json

    found = search_negative_control(args.degree_bound)
    if found is None:
        _emit({"found": False})
        _note("search space exhausted, no counterexample")
        return 0
    tau, state = found
    _emit({"found": True, "tau": symfunc_to_json(tau), "witness": tensor_to_json(state)})
    _note("found a certified non-tau combination")
    return 0


# ---------------------------------------------------------------------------


class _VerifyHelp(argparse.Action):
    """`verify -h`: argparse's help action, which first sets the help of
    `suite` to the suite names, so that only printing help reads them from
    `verify` and building the parser imports no suite."""

    def __init__(self, option_strings, dest, suite):
        super().__init__(
            option_strings, argparse.SUPPRESS, nargs=0, default=argparse.SUPPRESS,
            help="show this help message and exit",
        )
        self.suite = suite

    def __call__(self, parser, namespace, values, option_string=None):
        from .verify import SUITE_NAMES

        self.suite.help = "|".join(SUITE_NAMES)
        parser.print_help()
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfock",
        description="Exact Q(t) symmetric functions, vertex operators, and KP checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a basis element as JSON")
    p_expand.add_argument("basis", choices=ROW_BASES + PARTITION_BASES)
    p_expand.add_argument("partition", help="comma-separated parts, e.g. 3,1 (index k for h/e/q)")
    p_expand.add_argument("--route", default="det", help="det | vertex | generating | oracle")
    p_expand.add_argument("-n", type=int, default=None, help="variable count for the oracle route")
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="run one identity sweep", add_help=False)
    suite = p_verify.add_argument("suite")
    p_verify.add_argument("-h", "--help", action=_VerifyHelp, suite=suite)
    p_verify.add_argument("--max-degree", type=int, default=None)
    p_verify.add_argument("--max-mode", type=int, default=None)
    p_verify.add_argument("--charges", default=None, help="comma-separated, e.g. --charges=-2,-1,0,1,2")
    p_verify.add_argument("--beta", action="append", default=None, help="repeatable rational; negative as --beta=-1/3")
    p_verify.add_argument("--corrupt", action="store_true", default=None, help=argparse.SUPPRESS)
    p_verify.set_defaults(func=_cmd_verify)

    p_kp = sub.add_parser("kp", help="check the bilinear identity for a tau candidate")
    p_kp.add_argument("--schur", default=None, metavar="PARTITION")
    p_kp.add_argument("--dualschur", default=None, metavar="PARTITION")
    p_kp.add_argument("--file", default=None, help="tau as symmetric-function JSON")
    p_kp.add_argument("--deformed", action="store_true")
    p_kp.set_defaults(func=_cmd_kp)

    p_search = sub.add_parser("kp-search", help="search small Schur combinations violating KP")
    p_search.add_argument("--degree-bound", type=int, default=4)
    p_search.set_defaults(func=_cmd_kp_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        _note(f"error: {exc}")
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:
        _note(f"error: internal error: {exc!r}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
