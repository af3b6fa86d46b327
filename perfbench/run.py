"""heckekl benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload kl_fill --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a heckekl checkout; it uses only the standard library
and the sources under src/.  Every op runs in a fresh child process and the
children run one at a time; the parent only waits, taking wall time, CPU
time and peak RSS from os.wait4.  Every op's output is checked.  Ops start
until --seconds of op time is measured and at least MIN_OPS have run.  A
fixed reference loop (refloop.py) runs before and after every op, and times
are reported scaled to a machine on which it takes REF_SECONDS (see
README.md for why).

--trace 0 reports the end-to-end metrics (per workload):
  setup_s        median wall time of a child that imports heckekl and
                 builds the workload's group (several per run), scaled
  op_s           median wall time per op, spawn to exit, scaled
  cpu_s          median user+sys CPU time per op, scaled
  peak_rss_mb    largest peak RSS over the run's ops
  success_ratio  ops that passed every check / ops attempted
                 (1 - fail_ratio; the table also prints fail_ratio)
For kl_fill, a library op, the op ends at the marker the child writes when
the KL matrix is built; the child then digests the matrix and spot-checks
it against KLOracle, outside the timed region.

--trace 1 alternates an untraced op with a traced one, where the layers'
entry points are wrapped from outside (see opchild.py) and every call
records a span.  It reports the per-layer metrics (spans.py), medians over
the traced ops, and writes the spans to .perfbench/<run>/spans.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Work files go to .perfbench/ at the checkout root.  Set-up
failures (for example no src/heckekl) exit with 2 and print no result.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import OVERHEAD_METRIC, per_layer_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
OPCHILD = str(BENCH / "opchild.py")
REFLOOP = str(BENCH / "refloop.py")
PY = sys.executable

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
SETUP_SAMPLES = 7
# a run's op_s is the median of at least this many ops (verify_d4's ops
# are long enough that --seconds alone may allow only two)
MIN_OPS = 3
# Reported times are scaled to a machine on which refloop.py takes this
# long (its usual time on the 2-vCPU Xeon host this was written on): each
# op's wall and CPU time is multiplied by REF_SECONDS over the mean of the
# reference loops timed just before and just after it.
REF_SECONDS = 0.6
# a run must end within 180 s: no op starts after SOFT_LIMIT_S, and a child
# still running at HARD_LIMIT_S is killed (and its op counted as failed)
SOFT_LIMIT_S = 50.0
HARD_LIMIT_S = 160.0
REF_LIMIT_S = 10.0
# the CLI fixes its own verify seed (heckekl.verification._SEED), so
# verify_d4's input does not depend on --seed
VERIFY_SEED_NOTE = "verify_d4 ignores --seed: the CLI runs its checks with a fixed seed"


class SetupError(RuntimeError):
    """The benchmark could not set up; it prints no result."""


@dataclass
class Proc:
    """One finished child: exit code, wall and CPU seconds, peak RSS."""

    code: int
    t0: float
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: Path
    stderr: Path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, stdout: Path, stderr: Path, deadline: float) -> Proc:
    """Run argv to completion, killing it at the monotonic ``deadline``."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    try:
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(deadline - time.monotonic(), 0.0))
        finally:
            os.close(fd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, ru = os.wait4(pid, 0)
    wall = time.monotonic() - t0
    return Proc(
        os.waitstatus_to_exitcode(status), t0, wall,
        ru.ru_utime + ru.ru_stime, ru.ru_maxrss, stdout, stderr,
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def chain_text(perm) -> str:
    """The chain that adds the generators in ``perm`` one at a time."""
    return "<".join(["@"] + [",".join(map(str, perm[:k])) for k in range(1, len(perm) + 1)])


def chain_for_seed(seed: int) -> tuple[str, str]:
    """factorize_warm's chain: generators 1..5 added one at a time in a
    seeded order.  Returns (order key such as "31524", chain text)."""
    perm = random.Random(seed).sample(range(1, 6), 5)
    return "".join(map(str, perm)), chain_text(perm)


@dataclass
class Op:
    """One op: its raw timings, the reference loop's around it, and, when
    it failed a check, why."""

    op_id: int
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    failure: str | None = None
    ref_wall_s: float = REF_SECONDS
    ref_cpu_s: float = REF_SECONDS
    per_layer: dict = field(default_factory=dict)

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * REF_SECONDS / self.ref_wall_s

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * REF_SECONDS / self.ref_cpu_s

    def record(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "per_layer"}


def check_exit(proc: Proc) -> str | None:
    if proc.code != 0:
        tail = proc.stderr.read_text(errors="replace").strip().splitlines()[-1:]
        return f"exit code {proc.code}" + (f": {tail[0]}" if tail else "")
    return None


def check_cli_output(proc: Proc, digest: str, flags: tuple[str, ...]) -> str | None:
    """A CLI op passes when it exits 0, its stdout has the pinned sha256
    and every named flag of its JSON output is true."""
    failure = check_exit(proc)
    if failure:
        return failure
    got = sha256_file(proc.stdout)
    if got != digest:
        return f"stdout sha256 {got} != pinned {digest}"
    try:
        obj = read_json(proc.stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    false = [f for f in flags if obj.get(f) is not True]
    return f"flags not true: {false}" if false else None


class Workload:
    """A named set of inputs.  Subclasses give the group, the op's command
    line, and the checks on its output."""

    name = ""
    group = ""
    why = ""

    def __init__(self, seed: int, run_dir: Path, pinned: dict):
        self.seed = seed
        self.dir = run_dir
        self.pinned = pinned

    def inputs(self) -> dict:
        """What the seed chose, recorded with the run."""
        return {"seed": self.seed}

    def prepare(self, deadline: float) -> None:
        """Fixtures made once per run, outside the timed region."""

    def before_op(self) -> None:
        """Per-op reset, outside the timed region."""

    def cleanup(self) -> None:
        """Remove the fixtures once the run is over."""

    def argv(self, op_id: int, traced: bool) -> list:
        raise NotImplementedError

    def timing(self, proc: Proc, op_id: int, traced: bool) -> tuple[float, float, int]:
        """(wall s, CPU s, peak RSS kB) of op ``op_id``, run by ``proc``."""
        return proc.wall_s, proc.cpu_s, proc.maxrss_kb

    def check(self, proc: Proc, op_id: int, deadline: float) -> str | None:
        """Why the op failed, or None when its output is correct."""
        raise NotImplementedError

    # helpers for ops run through opchild.py
    def report_path(self, op_id: int) -> Path:
        return self.dir / f"report-{op_id}.json"

    def trace_args(self, op_id: int, traced: bool) -> list:
        args = ["--report", str(self.report_path(op_id)), "--op-id", str(op_id)]
        return args + (["--spans", str(self.dir / "spans.jsonl")] if traced else [])


class CliWorkload(Workload):
    """The op is one heckekl command line, timed spawn to exit.  Traced, it
    runs in-process in opchild.py, and the child's work after the op
    (statistics, writing spans) is taken off its time."""

    def cli_args(self) -> list:
        raise NotImplementedError

    def argv(self, op_id: int, traced: bool) -> list:
        if traced:
            return [PY, OPCHILD, "cli", *self.trace_args(op_id, True), "--", *self.cli_args()]
        return [PY, "-m", "heckekl.cli", *self.cli_args()]

    def timing(self, proc: Proc, op_id: int, traced: bool) -> tuple[float, float, int]:
        if not traced:
            return super().timing(proc, op_id, traced)
        report = read_json(self.report_path(op_id))
        mark, done = report["marker"], report["done"]
        return (proc.wall_s - (done["t"] - mark["t"]),
                proc.cpu_s - (done["cpu_s"] - mark["cpu_s"]), proc.maxrss_kb)


class KLFill(Workload):
    name = "kl_fill"
    group = "D5"
    why = (
        "library D5 build + KLCache.fill + kl_matrix: only the KL recursion "
        "(klbasis + laurent) works, so a kernel change shows here alone"
    )

    def argv(self, op_id: int, traced: bool) -> list:
        return [PY, OPCHILD, "fill", "--group", self.group, "--seed", str(self.seed),
                *self.trace_args(op_id, traced)]

    def timing(self, proc: Proc, op_id: int, traced: bool) -> tuple[float, float, int]:
        mark = read_json(self.report_path(op_id))["marker"]
        return mark["t"] - proc.t0, mark["cpu_s"], mark["maxrss_kb"]

    def check(self, proc: Proc, op_id: int, deadline: float) -> str | None:
        failure = check_exit(proc)
        if failure:
            return failure
        report = read_json(self.report_path(op_id))
        want = self.pinned["kl_digest"][self.group]
        if report["digest"] != want:
            return f"KL matrix digest {report['digest']} != pinned {want}"
        bad = [(x, w) for x, w, got, oracle in report["spot"] if got != oracle]
        return f"KLOracle disagrees at (x, w) = {bad}" if bad else None


class FactorizeWarm(CliWorkload):
    name = "factorize_warm"
    group = "A5"
    why = (
        "CLI factorize at A5 on a filled --cache-dir: load, hybrid transition/matmul/"
        "compare, JSON output and the cache rewrite, with no KL recursion"
    )

    def __init__(self, seed, run_dir, pinned):
        super().__init__(seed, run_dir, pinned)
        self.order, self.chain = chain_for_seed(seed)
        self.pristine = run_dir / "pristine-cache"
        self.cache_dir = run_dir / "cache"

    def inputs(self) -> dict:
        return {"seed": self.seed, "chain": self.chain}

    def prepare(self, deadline: float) -> None:
        proc = spawn(
            [PY, "-m", "heckekl.cli", "kl", "--group", self.group, "--cache-dir", str(self.pristine),
             "--output", str(self.dir / "fixture-kl.json")],
            self.dir / "fixture.out", self.dir / "fixture.err", deadline,
        )
        if proc.code != 0 or len(os.listdir(self.pristine)) != 1:
            raise SetupError(f"could not build the {self.group} cache fixture: {check_exit(proc)}")
        (self.dir / "fixture-kl.json").unlink()
        failure = self.cache_failure(self.pristine, deadline)
        if failure:
            raise SetupError(f"the {self.group} cache fixture is wrong: {failure}")
        self.pristine_payload = self.cache_payload(self.pristine)

    def before_op(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.copytree(self.pristine, self.cache_dir)

    def cleanup(self) -> None:
        shutil.rmtree(self.pristine, ignore_errors=True)
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def cli_args(self) -> list:
        return ["factorize", "--group", self.group, "--cache-dir", str(self.cache_dir),
                "--chain", self.chain]

    def check(self, proc: Proc, op_id: int, deadline: float) -> str | None:
        digest = self.pinned["factorize_stdout"][self.order]
        failure = check_cli_output(proc, digest, ("product_equals_kl", "nonnegative"))
        if failure:
            return failure
        # The CLI rewrote the cache, which must still load to the same KL
        # matrix.  A file whose uncompressed content equals the fixture's
        # (checked at set-up) does; any other file is loaded and digested.
        try:
            if self.cache_payload(self.cache_dir) == self.pristine_payload:
                return None
        except OSError:
            pass
        failure = self.cache_failure(self.cache_dir, deadline)
        return f"rewritten cache: {failure}" if failure else None

    @staticmethod
    def cache_payload(cache_dir: Path) -> bytes:
        (path,) = cache_dir.iterdir()
        with gzip.open(path, "rb") as fh:
            return fh.read()

    def cache_failure(self, cache_dir: Path, deadline: float) -> str | None:
        """Load the cache in cache_dir in a child; why its KL matrix is wrong, or None."""
        report = self.dir / "cachecheck.json"
        proc = spawn(
            [PY, OPCHILD, "cachecheck", "--cache-dir", str(cache_dir), "--group", self.group,
             "--report", str(report)],
            self.dir / "cachecheck.out", self.dir / "cachecheck.err", deadline,
        )
        failure = check_exit(proc)
        if failure:
            return f"does not load: {failure}"
        got = read_json(report)
        want = self.pinned["kl_digest"][self.group]
        if got["digest"] != want:
            return f"KL matrix digest {got['digest']} != pinned {want}"
        return None if got["complete"] else "columns are missing"


class VerifyD4(CliWorkload):
    name = "verify_d4"
    group = "D4"
    why = (
        "CLI verify --suite all at D4: Hecke products and bar, parabolic_kl, KLOracle "
        "and Bruhat order; the KL fill is negligible"
    )

    def inputs(self) -> dict:
        return {"seed": self.seed, "note": VERIFY_SEED_NOTE}

    def cli_args(self) -> list:
        return ["verify", "--group", self.group, "--suite", "all"]

    def check(self, proc: Proc, op_id: int, deadline: float) -> str | None:
        return check_cli_output(proc, self.pinned["verify_stdout"][self.group], ("all_passed",))


WORKLOADS = {cls.name: cls for cls in (KLFill, FactorizeWarm, VerifyD4)}


def run_op(wl: Workload, op_id: int, traced: bool, deadline: float) -> Op:
    wl.before_op()
    stem = wl.dir / f"op-{op_id}"
    proc = spawn(wl.argv(op_id, traced), stem.with_suffix(".out"), stem.with_suffix(".err"), deadline)
    # a report that is missing or malformed fails the op, it does not stop the run
    try:
        failure = wl.check(proc, op_id, deadline)
        if failure is None:
            wall, cpu, rss = wl.timing(proc, op_id, traced)
            per_layer = read_json(wl.report_path(op_id))["per_layer"] if traced else {}
    except (OSError, ValueError, KeyError) as exc:
        failure = f"output could not be checked: {exc!r}"
    if failure is None:
        proc.stdout.unlink()
    else:
        wall, cpu, rss, per_layer = proc.wall_s, proc.cpu_s, proc.maxrss_kb, {}
    return Op(op_id, traced, wall, cpu, rss, failure, per_layer=per_layer)


def measure_ref(wl: Workload) -> Proc:
    # its own short deadline, so that the loop after an op killed at the
    # run's deadline still runs
    proc = spawn([PY, REFLOOP], wl.dir / "ref.out", wl.dir / "ref.err", time.monotonic() + REF_LIMIT_S)
    if proc.code != 0:
        raise SetupError(f"reference loop failed: {check_exit(proc)}")
    return proc


def measure_setup(wl: Workload, deadline: float) -> list[float]:
    """Wall times of SETUP_SAMPLES children that import heckekl and build
    the group, after one unmeasured child that compiles the bytecode."""
    code = f"import heckekl; heckekl.coxeter_system({wl.group!r}, allow_large=True)"
    times = []
    for k in range(SETUP_SAMPLES + 1):
        proc = spawn([PY, "-c", code], wl.dir / "setup.out", wl.dir / "setup.err", deadline)
        if proc.code != 0:
            raise SetupError(f"set-up child failed: {check_exit(proc)}")
        if k:
            times.append(proc.wall_s)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    if not (SRC / "heckekl" / "__init__.py").is_file():
        raise SetupError(f"no heckekl sources under {SRC}")
    pinned = read_json(BENCH / "pinned.json")
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = WORKLOADS[name](seed, run_dir, pinned)

    before = measure_ref(wl)
    setup = measure_setup(wl, deadline)
    after = measure_ref(wl)
    setup_ref_s = (before.wall_s + after.wall_s) / 2
    t = time.monotonic()
    wl.prepare(deadline)
    fixture_s = time.monotonic() - t

    ops: list[Op] = []
    measured = 0.0
    before = measure_ref(wl)
    while (len(ops) < MIN_OPS or measured < seconds) and time.monotonic() - start < SOFT_LIMIT_S:
        for traced in (False, True) if trace else (False,):
            op = run_op(wl, len(ops), traced, deadline)
            after = measure_ref(wl)
            op.ref_wall_s = (before.wall_s + after.wall_s) / 2
            op.ref_cpu_s = (before.cpu_s + after.cpu_s) / 2
            before = after
            ops.append(op)
            measured += op.wall_s

    untraced = [op for op in ops if not op.traced]
    failed = sum(op.failure is not None for op in ops)
    if trace:
        traced = [op for op in ops if op.traced and op.failure is None]
        metrics = {}
        for metric, unit in per_layer_units().items():
            values = [op.per_layer[metric] for op in traced if metric in op.per_layer]
            if metric == OVERHEAD_METRIC and traced:
                values = [statistics.median(op.scaled_wall_s for op in traced)
                          / statistics.median(op.scaled_wall_s for op in untraced)]
            metrics[metric] = {"value": statistics.median(values) if values else 0, "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setup) * REF_SECONDS / setup_ref_s,
            "op_s": statistics.median(op.scaled_wall_s for op in untraced),
            "cpu_s": statistics.median(op.scaled_cpu_s for op in untraced),
            "peak_rss_mb": max(op.maxrss_kb for op in untraced) / 1024,
            "success_ratio": 1 - failed / len(ops),
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}

    wl.cleanup()
    record = {
        "workload": name, "group": wl.group, "inputs": wl.inputs(), "trace": trace,
        "seconds": seconds, "setup_s": setup, "setup_ref_s": setup_ref_s, "fixture_s": fixture_s,
        "ops": [op.record() for op in ops], "metrics": metrics,
        "wall_s": time.monotonic() - start,
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": metrics, "record": record,
    }


def print_table(res: dict) -> None:
    rec = res["record"]
    inputs = ", ".join(f"{k} {v}" for k, v in rec["inputs"].items())
    n = res["attempted"]
    print(f"== {rec['workload']} ({rec['group']}; {inputs}; trace {int(rec['trace'])}): "
          f"{n} ops, {res['failed']} failed, fail_ratio {res['failed'] / n:.4g}, "
          f"{len(rec['setup_s'])} set-ups, run wall {rec['wall_s']:.1f} s")
    for op in rec["ops"]:
        if op["failure"]:
            print(f"   op {op['op_id']} FAILED: {op['failure']}")
    for name, m in res["metrics"].items():
        print(f"   {name:<52} {m['value']:>14.6g} {m['unit']}")
    ops = [op for op in rec["ops"] if not op["traced"]]
    print(f"   unscaled: setup_s {statistics.median(rec['setup_s']):.4g} s, "
          f"op_s {statistics.median(op['wall_s'] for op in ops):.4g} s, "
          f"cpu_s {statistics.median(op['cpu_s'] for op in ops):.4g} s; reference loop "
          f"{statistics.median(op['ref_wall_s'] for op in ops):.4g} s (scaled to {REF_SECONDS} s)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="op time to measure per workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_table(results[name])
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    out = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
