"""Benchmark for symfock: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload kernel-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --census > bench/census_seed.json

A workload is one client running a fixed list of ``python -m symfock.cli``
commands back to back, each in a fresh process, the way users run them.
Every output is checked (see ``check``); a wrong or missing verdict counts
as a failed command.  Two negative controls run untimed in every run and
must fail, so a build that prints "ok" without computing fails the run.

``--trace 0`` measures the end-to-end metrics at the workload's
``SF_THREADS`` (``Workload.threads``).  The command list runs as many whole
passes as fit in ``--seconds`` (at least one); times are the median over
passes.  ``--trace 1`` runs the list untraced at one worker (and, for a
pooled workload, at its pool size) and then once more with every command
wrapped by ``bench/spans.py``, which yields the per-layer metrics.  Traced
runs use one worker, since spans recorded inside fork workers would be lost.

The last line of stdout is the result; the line before it holds the run
manifest and per-command rows.  ``--census`` runs each suite once at its
default window under ``CENSUS_CAP_S`` and prints the table as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

RUN_BUDGET_S = 170.0  # every run must exit within 180 s
SETUP_SAMPLES = 9  # at least this many per pass, spread over its gaps
SETUP_CODE = "import symfock.cli as c; c.build_parser()"
CENSUS_CAP_S = 150.0  # time cap per suite in the default-window census


@dataclass(frozen=True)
class Cmd:
    """One CLI invocation and how to check its output.

    check: "verify" (exit 0, ``expect`` distinct ok lines), "tau" (exit 0,
    tau true), "found" (exit 0, found true), "expand" (exit 0, one
    non-empty expansion, byte-identical within route group ``expect``),
    "fails" (exit 1 with a fail line: a negative control).
    """

    argv: tuple[str, ...]
    check: str
    expect: object = None


def _verify(suite: str, items: int, *window: str) -> Cmd:
    return Cmd(("verify", suite, *window), "verify", items)


def _expand(basis: str, partition: str, routes: tuple[str, ...]) -> list[Cmd]:
    return [Cmd(("expand", basis, partition, "--route", r), "expand", basis) for r in routes]


# Item counts are what the suite's item builder yields for each window;
# test_run.py checks them against symfock.verify.
def _kernel_sweep(seed: int) -> list[Cmd]:
    return [
        _verify("fermion", 51, "--max-degree", "6", "--max-mode", "4"),
        _verify("twisted-fermion", 39, "--max-degree", "4", "--max-mode", "3"),
        _verify("kernel-factorization", 36),
    ]


def _bilinear_pool(seed: int) -> list[Cmd]:
    return [
        _verify("heisenberg", 54, "--max-degree", "4", "--max-mode", "4"),
        _verify("virasoro", 112, "--max-degree", "5", "--max-mode", "3"),
    ]


# kp cost depends on the p-support of the Schur function, which varies
# threefold between partitions of one weight; a partition and its
# conjugate share the support, so the kp pool holds conjugate pairs.
# The deformed check is cheap only on the staircase (4,3,2,1), which is
# self-conjugate.  Each expand command takes ~0.1 s, so the expand pools
# hold partitions of one weight and length.  The dual-Schur vertex route
# raises PackingOverflow on 5,2,2,1, 4,4,1,1 and 4,2,2,2 and runs for
# minutes on 3,3,3,1, so those stay out of its pool.
KP_SCHUR = ("5,4,2,1", "4,3,2,2,1")
KP_DUALSCHUR = ("4,3,2,1",)
EXPAND_SCHUR = (
    "5,4,2,1", "9,1,1,1", "8,2,1,1", "7,3,1,1", "7,2,2,1", "6,4,1,1", "6,3,2,1", "6,2,2,2",
    "5,5,1,1", "5,3,3,1", "5,3,2,2", "4,4,3,1", "4,4,2,2", "4,3,3,2", "3,3,3,3",
)
EXPAND_DUALSCHUR = ("4,3,2,1", "7,1,1,1", "6,2,1,1", "5,3,1,1")
EXPAND_HL = ("4,3,2,1", "7,1,1,1", "6,2,1,1", "5,3,1,1", "5,2,2,1", "4,4,1,1", "4,2,2,2")


def _pick(pool: tuple[str, ...], seed: int) -> str:
    return pool[seed % len(pool)]


def _bases_kp(seed: int) -> list[Cmd]:
    return [
        Cmd(("kp", "--schur", _pick(KP_SCHUR, seed)), "tau"),
        Cmd(("kp", "--dualschur", _pick(KP_DUALSCHUR, seed), "--deformed"), "tau"),
        Cmd(("kp-search", "--degree-bound", "4"), "found"),
        *_expand("schur", _pick(EXPAND_SCHUR, seed), ("det", "vertex", "generating")),
        *_expand("dualschur", _pick(EXPAND_DUALSCHUR, seed), ("det", "vertex", "generating")),
        *_expand("hl", _pick(EXPAND_HL, seed), ("vertex", "generating")),
        _verify("bases-agreement", 212),
        _verify("duality", 210),
        _verify("corollaries", 12),
        _verify("commutation", 196, "--max-degree", "8", "--max-mode", "6"),
    ]


@dataclass(frozen=True)
class Workload:
    threads: int  # SF_THREADS of the timed runs; above 1 the verify fork pool runs
    commands: Callable[[int], list[Cmd]]


# bilinear-pool is the one workload through the fork pool, whose workers
# each fill their own mode caches; the others stay at one worker so that
# their times show only the single-process code paths.
WORKLOADS = {
    "kernel-sweep": Workload(1, _kernel_sweep),
    "bilinear-pool": Workload(2, _bilinear_pool),
    "bases-kp": Workload(1, _bases_kp),
}

CONTROLS = (
    Cmd(("verify", "fermion", "--corrupt", "--max-degree", "3", "--max-mode", "2"), "fails"),
    Cmd(("kp-search", "--degree-bound", "4"), "found"),
)

# Per-layer metrics (names, units and directions are in BENCHMARK.json):
# the end-to-end metric each should move, and the workloads where its
# layer does the most / least work.
#
#   fock.mode_on_basis.calls, .misses, .miss_ms,
#   fock.mode_cache.hit_ratio             wall_s               kernel-sweep, bilinear-pool / bases-kp
#   fock.mode_cache.entries, .distinct_ratio
#                                         peak_rss_mb, wall_s  kernel-sweep / bases-kp
#   fock.apply_deriv_op.calls, .ms,
#   fock.mode_apply.calls, .self_ms       wall_s               kernel-sweep / bases-kp
#   fock.normal_ordered_pair.calls, .ms,
#   fock.heis_cache.entries, fock.vir_cache.entries
#                                         wall_s, peak_rss_mb  bilinear-pool / kernel-sweep
#   verify.items, .item_ms_p50, .item_ms_max,
#   verify.check_mode_identity.self_ms    wall_s               bilinear-pool / bases-kp
#   verify.pool_speedup, .pool_busy_share wall_s, cpu_s        bilinear-pool / none
#   symfunc.linear_combination.calls, .ms wall_s               kernel-sweep, bases-kp / -
#   symfunc.mul.calls, .ms,
#   symfunc.perp_apply.calls, .ms         wall_s               bases-kp / kernel-sweep
#   ratfun.add.calls, .mul.calls, .eq.calls
#                                         wall_s               all
#   ratfun.reduce.calls, .ms,
#   ratfun.poly_gcd.calls                 wall_s               bases-kp / kernel-sweep
#   ratfun.max_limb_bits                  none (headroom)      all
#   partitions.multiplicities.calls       wall_s               kernel-sweep / bilinear-pool
#   bases.oracle.ms, bases.det.ms         wall_s               bases-kp / others
#   vertex.basis_via_vertex.ms, .generating.ms
#                                         wall_s               bases-kp / others
#   kp.omega_apply.ms, kp.add_product.ms  wall_s               bases-kp / others
#   cli.emit_ms, cli.stdout_bytes         wall_s               bases-kp / kernel-sweep
#   trace.overhead_share                  -                    all


# ---------------------------------------------------------------------------
# checks


def check(cmd: Cmd, code: int, out: bytes) -> str | None:
    """None if the command's exit code and stdout are right, else why not."""
    try:
        rows = [json.loads(line) for line in out.decode().splitlines()]
    except ValueError:
        return "stdout is not JSON lines"
    if not all(isinstance(r, dict) for r in rows):
        return "stdout line is not a JSON object"
    if cmd.check == "fails":
        if code == 1 and rows and rows[-1].get("status") == "fail":
            return None
        return f"negative control was not detected (exit {code})"
    if code != 0:
        return f"exit {code}"
    if cmd.check == "verify":
        suite = cmd.argv[1]
        ok = {r.get("identity") for r in rows if r.get("suite") == suite and r.get("status") == "ok"}
        if len(rows) != cmd.expect or len(ok) != cmd.expect:
            return f"{len(ok)} distinct ok lines in {len(rows)}, expected {cmd.expect}"
        return None
    if len(rows) != 1:
        return f"{len(rows)} output lines, expected 1"
    row = rows[0]
    if cmd.check == "tau" and row.get("tau") is not True:
        return "not reported as a tau function"
    if cmd.check == "found" and row.get("found") is not True:
        return "no KP counterexample found"
    if cmd.check == "expand" and not (isinstance(row.get("terms"), list) and row["terms"]):
        return "empty expansion"
    return None


def route_mismatches(cmds: list[Cmd], outs: list[bytes]) -> set[int]:
    """Indices of expand commands whose route group disagrees byte for byte."""
    groups: dict[object, list[int]] = {}
    for i, cmd in enumerate(cmds):
        if cmd.check == "expand":
            groups.setdefault(cmd.expect, []).append(i)
    bad: set[int] = set()
    for idx in groups.values():
        if len({outs[i] for i in idx}) > 1:
            bad.update(idx)
    return bad


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Outcome:
    argv: tuple[str, ...]
    code: int
    out: bytes
    wall: float
    cpu: float
    rss_mb: float
    error: str | None = None
    stderr_tail: str = ""


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)


class Runner:
    """Starts each process in its own session, under one run deadline."""

    def __init__(self, scratch: Path, budget_s: float = RUN_BUDGET_S):
        self.scratch = scratch
        self.deadline = time.monotonic() + budget_s

    def env(self, threads: int) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        env["SF_THREADS"] = str(threads)
        # fixed hashing keeps the traced counts exactly repeatable
        env["PYTHONHASHSEED"] = "0"
        return env

    def spawn(self, args: list[str], threads: int, cap: float | None = None) -> Outcome:
        remaining = self.deadline - time.monotonic()
        limit = remaining if cap is None else min(cap, remaining)
        if limit <= 0:
            return Outcome(tuple(args), -1, b"", 0.0, 0.0, 0.0, "run deadline passed")
        err_path = self.scratch / "stderr"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env(threads),
                stdout=subprocess.PIPE, stderr=err, start_new_session=True,
            )
        fired = threading.Event()

        def kill() -> None:
            fired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(limit, kill)
        timer.start()
        status = None
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            proc.stdout.close()
            if status is None:  # interrupted before the process was reaped
                _kill_group(proc.pid)
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(
            tuple(args), proc.returncode, out, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        )
        if fired.is_set():
            outcome.error = f"killed after {limit:.0f} s"
        outcome.stderr_tail = err_path.read_bytes()[-400:].decode(errors="replace")
        return outcome

    def cli(self, argv: tuple[str, ...], threads: int, trace_out: Path | None = None, cmd_id: int = 0) -> Outcome:
        if trace_out is None:
            args = ["-m", "symfock.cli", *argv]
        else:
            args = [str(HERE / "spans.py"), str(trace_out), str(cmd_id), *argv]
        outcome = self.spawn(args, threads)
        outcome.argv = argv
        return outcome

    def run_pass(
        self, cmds: list[Cmd], threads: int, trace_dir: Path | None = None,
        between: Callable[[], None] = lambda: None,
    ) -> Pass:
        """Run every command once; ``between`` runs before each and after the last."""
        result = Pass()
        for i, cmd in enumerate(cmds):
            between()
            trace_out = None if trace_dir is None else trace_dir / f"cmd{i}"
            o = self.cli(cmd.argv, threads, trace_out, i)
            o.error = o.error or check(cmd, o.code, o.out)
            result.outcomes.append(o)
        between()
        for i in route_mismatches(cmds, [o.out for o in result.outcomes]):
            result.outcomes[i].error = result.outcomes[i].error or "routes disagree"
        return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# metrics


def setup_time(runner: Runner) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds its parser."""
    o = runner.spawn(["-c", SETUP_CODE], 1, cap=30)
    if o.code != 0:
        raise SystemExit(f"cannot import symfock.cli (exit {o.code})")
    return o.wall


def end_to_end(setup: list[float], passes: list[Pass], checked: list[Outcome]) -> dict:
    timed = [o for p in passes for o in p.outcomes]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in timed), "MB"),
        "ok_share": (sum(o.error is None for o in checked) / len(checked), "ratio"),
    }


def load_traces(trace_dir: Path, n: int) -> list[dict]:
    from array import array

    traces = []
    for i in range(n):
        base = trace_dir / f"cmd{i}"
        if not base.with_suffix(".json").exists():
            continue
        header = json.loads(base.with_suffix(".json").read_text())
        records = array("q")
        with open(base.with_suffix(".spans"), "rb") as fh:
            records.frombytes(fh.read())
        header["totals"] = spans.self_times(header["names"], records)
        traces.append(header)
    return traces


def per_layer(traces: list[dict], ref: Pass, pooled: Pass, traced: Pass, workers: int) -> dict:
    totals: dict[str, dict] = {}
    counts: dict[str, int] = {}
    entries = distinct = heis = vir = limb = 0
    for tr in traces:
        for name, row in tr["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "durations": []})
            for key in ("calls", "ns", "self_ns"):
                acc[key] += row[key]
            acc["durations"] += row["durations"]
        for name, value in tr["counts"].items():
            counts[name] = counts.get(name, 0) + value
        census = tr["census"]
        for k in census.get("kernels", {}).values():
            entries += k["entries"]
            distinct += k["distinct"]
        heis += census.get("heis_cache", 0)
        vir += census.get("vir_cache", 0)
        limb = max(limb, census.get("max_limb_bits", 0))

    def row(name: str) -> dict:
        return totals.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "durations": []})

    def ms(name: str, key: str = "ns") -> float:
        return row(name)[key] / 1e6

    hits, misses = row(spans.MODE_HIT)["calls"], row(spans.MODE_MISS)["calls"]
    items = [d / 1e6 for d in row("verify.item")["durations"]]
    values = {
        "fock.mode_on_basis.calls": hits + misses,
        "fock.mode_on_basis.misses": misses,
        "fock.mode_on_basis.miss_ms": ms(spans.MODE_MISS),
        "fock.mode_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fock.mode_cache.entries": entries,
        "fock.mode_cache.distinct_ratio": distinct / entries if entries else 0.0,
        "fock.apply_deriv_op.calls": row("fock.apply_deriv_op")["calls"],
        "fock.apply_deriv_op.ms": ms("fock.apply_deriv_op"),
        "fock.mode_apply.calls": row("fock.mode_apply")["calls"],
        "fock.mode_apply.self_ms": ms("fock.mode_apply", "self_ns"),
        "fock.normal_ordered_pair.calls": row("fock.normal_ordered_pair")["calls"],
        "fock.normal_ordered_pair.ms": ms("fock.normal_ordered_pair"),
        "fock.heis_cache.entries": heis,
        "fock.vir_cache.entries": vir,
        "verify.items": len(items),
        "verify.item_ms_p50": statistics.median(items) if items else 0.0,
        "verify.item_ms_max": max(items, default=0.0),
        "verify.check_mode_identity.self_ms": ms("verify.check_mode_identity", "self_ns"),
        "verify.pool_speedup": ref.wall / pooled.wall,
        "verify.pool_busy_share": pooled.cpu / (workers * pooled.wall),
        "symfunc.linear_combination.calls": row("symfunc.linear_combination")["calls"],
        "symfunc.linear_combination.ms": ms("symfunc.linear_combination"),
        "symfunc.mul.calls": row("symfunc.mul")["calls"],
        "symfunc.mul.ms": ms("symfunc.mul"),
        "symfunc.perp_apply.calls": row("symfunc.perp_apply")["calls"],
        "symfunc.perp_apply.ms": ms("symfunc.perp_apply"),
        "ratfun.add.calls": counts.get("ratfun.add", 0),
        "ratfun.mul.calls": counts.get("ratfun.mul", 0),
        "ratfun.eq.calls": counts.get("ratfun.eq", 0),
        "ratfun.reduce.calls": row("ratfun.reduce")["calls"],
        "ratfun.reduce.ms": ms("ratfun.reduce"),
        "ratfun.poly_gcd.calls": counts.get("ratfun.poly_gcd", 0),
        "ratfun.max_limb_bits": limb,
        "partitions.multiplicities.calls": counts.get("partitions.multiplicities", 0),
        "bases.oracle.ms": ms("bases.oracle"),
        "bases.det.ms": ms("bases.det"),
        "vertex.basis_via_vertex.ms": ms("vertex.basis_via_vertex"),
        "vertex.generating.ms": ms("vertex.generating"),
        "kp.omega_apply.ms": ms("kp.omega_apply"),
        "kp.add_product.ms": ms("kp.add_product"),
        "cli.emit_ms": ms("cli.emit"),
        "cli.stdout_bytes": sum(len(o.out) for o in traced.outcomes),
        "trace.overhead_share": traced.wall / ref.wall - 1.0,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec}


def manifest(workload: str, seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sys.path.insert(0, str(SRC))
    from symfock import ratfun

    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sf_threads": {name: w.threads for name, w in WORKLOADS.items()},
        "workload": workload,
        "seed": seed,
        "limb_bits": getattr(ratfun, "LIMB_BITS", None),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def _rows(label: str, p: Pass) -> list[dict]:
    return [
        {"pass": label, "argv": " ".join(o.argv), "exit": o.code, "wall_s": round(o.wall, 4),
         "cpu_s": round(o.cpu, 4), "rss_mb": round(o.rss_mb, 1), "error": o.error,
         **({"stderr": o.stderr_tail} if o.error else {})}
        for o in p.outcomes
    ]


# ---------------------------------------------------------------------------
# entry points


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    w = WORKLOADS[workload]
    cmds = w.commands(seed)
    BUILD.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        runner = Runner(scratch)
        info = manifest(workload, seed)
        labelled: list[tuple[str, Pass]] = []
        if not trace:
            # Set-up samples sit between the commands, so their median
            # covers the whole run rather than one moment of host load.
            setup_time(runner)  # the first start also writes bytecode caches
            setup: list[float] = []
            per_gap = -(-SETUP_SAMPLES // (len(cmds) + 1))

            def sample_setup() -> None:
                setup.extend(setup_time(runner) for _ in range(per_gap))

            start = time.perf_counter()
            passes = []
            while True:
                passes.append(runner.run_pass(cmds, w.threads, between=sample_setup))
                labelled.append((f"timed{len(passes)}", passes[-1]))
                elapsed = time.perf_counter() - start
                if elapsed + passes[-1].wall > seconds or runner.deadline - time.monotonic() < 2 * passes[-1].wall:
                    break
        else:
            ref = runner.run_pass(cmds, 1)
            pooled = runner.run_pass(cmds, w.threads) if w.threads > 1 else ref
            traced = runner.run_pass(cmds, 1, trace_dir=scratch)
            labelled += [("untraced-1", ref), ("traced-1", traced)]
            if pooled is not ref:
                labelled.append((f"untraced-{w.threads}", pooled))
        controls = runner.run_pass(list(CONTROLS), 1)
        labelled.append(("controls", controls))
        checked = [o for _, p in labelled for o in p.outcomes]
        if trace:
            traces = load_traces(scratch, len(cmds))
            metrics = per_layer(traces, ref, pooled, traced, w.threads)
            info["missing_hooks"] = sorted({h for tr in traces for h in tr["missing_hooks"]})
            info["census"] = [{"argv": " ".join(tr["argv"]), **tr["census"]} for tr in traces]
        else:
            metrics = end_to_end(setup, passes, checked)
            info["setup_samples_s"] = setup
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(o.error is not None for o in checked)
    info["commands"] = [r for label, p in labelled for r in _rows(label, p)]
    print(json.dumps({"manifest": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def census() -> int:
    """Each suite once at its default window, one worker, under a time cap."""
    sys.path.insert(0, str(SRC))
    from symfock.verify import SUITE_NAMES

    BUILD.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="census-", dir=BUILD))
    rows = []
    try:
        for suite in SUITE_NAMES:
            runner = Runner(scratch, budget_s=CENSUS_CAP_S)
            o = runner.cli(("verify", suite), 1)
            lines = o.out.decode().splitlines()
            ok = sum('"status":"ok"' in line for line in lines)
            if o.error:
                status = f"did not finish in {CENSUS_CAP_S:.0f} s"
            else:
                status = "verified" if o.code == 0 else f"exit {o.code}"
            rows.append({
                "suite": suite, "status": status, "items_ok": ok, "wall_s": round(o.wall, 2),
                "peak_rss_mb": round(o.rss_mb, 1),
            })
            print(json.dumps(rows[-1]), file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info = manifest("census", 0)
    info["cap_s"] = CENSUS_CAP_S
    print(json.dumps({"manifest": info, "suites": rows}, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--census", action="store_true", help="default-window census instead of a run")
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so it kills the command it was running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "symfock" / "cli.py").is_file():
        print(f"no symfock sources under {SRC}", file=sys.stderr)
        return 2
    if args.census:
        return census()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
