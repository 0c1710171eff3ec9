#!/usr/bin/env python3
"""symfair benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 42 --seconds 20 --trace 0

Workloads: grid, frontier, large-m, cli (see BENCHMARK.json and README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and its overhead. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code: 0, or 1 if an output check failed, or 2 if there is no package.

The package is imported from this checkout's ``src/`` (it need not be
installed). Every time is scaled to a reference speed (see ``SpeedProbe``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LAYER_UNITS = {m["name"]: m["unit"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
SETUP_REPEATS = 5
# A run that still lacks samples stops after this many multiples of --seconds.
HARD_CAP_FACTOR = 2.5


# ---------------------------------------------------------------- speed probes


def _loop_work() -> int:
    # Pure interpreter work of the kind the library does: sorting with a key,
    # integer arithmetic, dict stores and set building. It never calls
    # symfair, so a change to the library cannot move it. Of the mixes tried
    # it tracked the library's own slowdowns most closely.
    acc = 0
    table: dict[int, int] = {}
    for r in range(20):
        order = sorted(range(30), key=lambda v: (v * r) % 11)
        for x in order:
            acc += (x * r) % 7
            if acc & 1:
                table[x] = acc
        acc += len({x % 9 for x in order})
    return acc


def _loop_sample() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        _loop_work()
        best = min(best, time.process_time() - t0)
    return best


def _start_sample() -> float:
    # Started exactly like the cli workload's commands: output captured.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


class SpeedProbe:
    """Scales measured times to a reference speed of the host.

    The benchmark was defined on a shared 2-vCPU host whose speed swings by up
    to 1.8x for seconds at a time. Around every timed operation the probe
    times a reference task that symfair cannot influence, and the operation's
    time is multiplied by ``nominal / mean(reference times)``. ``nominal`` is
    the reference task's time when the host is not slowed, so scaled times
    read as that host's unslowed times.

    Two references. In-process work is timed in process CPU time, which
    leaves out the time the host gives the CPU to others, and scaled by a
    pure-Python loop timed the same way. Subprocess work is timed in wall
    time and scaled by a bare interpreter start (``python -c pass``), which
    tracks it where the loop was found not to. With ``interval`` set, the
    loop also runs from a timer signal every ``interval`` seconds during an
    operation, so a slowdown in the middle of a long operation is seen too;
    the time those samples take is not counted as the operation's.
    """

    def __init__(self, nominal: float, sample, clock, interval: float = 0.0) -> None:
        self.nominal = nominal
        self.sample = sample
        self.clock = clock
        self.interval = interval
        self.last = None
        self._seen: list[float] = []
        self._spent = 0.0

    def start(self) -> None:
        self.last = self.sample()

    def _on_timer(self, signum, frame) -> None:
        t0 = self.clock()
        self._seen.append(self.sample())
        self._spent += self.clock() - t0

    def measure(self, call, op):
        """(outcome, scaled seconds, factor) of ``call(op)``."""
        self._seen = [self.last]
        self._spent = 0.0
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = self.clock()
        try:
            outcome = call(op)
        finally:
            elapsed = self.clock() - t0
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        elapsed -= self._spent
        self.last = self.sample()
        self._seen.append(self.last)
        f = self.nominal / statistics.mean(self._seen)
        return outcome, elapsed * f, f


def loop_probe(interval: float = 0.0) -> SpeedProbe:
    return SpeedProbe(0.000150, _loop_sample, time.process_time, interval)


def start_probe() -> SpeedProbe:
    return SpeedProbe(0.045, _start_sample, time.perf_counter)


def pin_to_one_cpu() -> None:
    # The probe and the work it scales (and every child process) share a core.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


# ---------------------------------------------------------------- environment


def environment() -> dict:
    import importlib.metadata

    import numpy
    import symfair

    try:
        installed = importlib.metadata.version("symfair")
    except importlib.metadata.PackageNotFoundError:
        installed = None

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "symfair_imported_from": Path(symfair.__file__).resolve().relative_to(ROOT).as_posix(),
        "symfair_installed_version": installed,
    }


# ---------------------------------------------------------------- passes


class Pass:
    """One run over every op of a workload, with scaled times and outcomes."""

    def __init__(self):
        self.times: list[float] = []      # scaled seconds per op
        self.factors: list[float] = []
        self.outcomes = []

    @property
    def seconds(self) -> float:
        return sum(self.times)


def run_pass(ops, call, probe: SpeedProbe, tracer=None) -> Pass:
    p = Pass()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        outcome, scaled, f = probe.measure(call, op)
        p.times.append(scaled)
        p.factors.append(f)
        p.outcomes.append(outcome)
    return p


class Verdicts:
    """Failure accounting and output checks across all passes of a run."""

    def __init__(self, workload_name: str, seed: int):
        self.name = workload_name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.reference = None

    def add(self, ops, p: Pass, log: bool) -> None:
        for op, outcome in zip(ops, p.outcomes):
            self.attempted += op.weight
            self.failed += outcome.failed
            replay = f"--workload {self.name} --seed {self.seed} (op {op.label})"
            if log and outcome.failed:
                print(f"failed: {outcome.failed}/{op.weight} of {replay}: {outcome.detail}",
                      file=sys.stderr)
            for msg in outcome.wrong:
                if log:
                    print(f"WRONG: {replay}: {msg}", file=sys.stderr)
                self.wrong.append(f"{op.label}: {msg}")
        signature = [o.signature for o in p.outcomes]
        if self.reference is None:
            self.reference = signature
        elif signature != self.reference:
            self.wrong.append("outcomes differ between passes of the same inputs")


def rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def subprocess_ms(argv, env, probe: SpeedProbe, repeats: int) -> list[float]:
    def call(_):
        subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True)

    probe.start()
    return [probe.measure(call, None)[1] * 1000 for _ in range(repeats)]


# ---------------------------------------------------------------- setup time


def build_workload(name: str, seed: int, workdir: Path):
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def setup_only(name: str, seed: int) -> int:
    t0 = time.perf_counter()
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        sys.path.insert(0, str(SRC))
        build_workload(name, seed, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure_setup(name: str, seed: int) -> list[float]:
    """Scaled seconds to import symfair and build the inputs, in fresh processes."""
    probe = start_probe()
    probe.start()
    values = []
    for _ in range(SETUP_REPEATS):
        proc, _, f = probe.measure(lambda _: subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-only"], capture_output=True, text=True, timeout=120, cwd=ROOT), None)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr.strip()[-300:]}")
        values.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"] * f)
    return values


# ---------------------------------------------------------------- untraced run


def end_to_end(workload, args) -> tuple[Verdicts, dict, dict]:
    from tracing import percentile

    verdicts = Verdicts(workload.name, args.seed)
    ops = workload.ops
    min_samples = int(10 / (1 - workload.tail_pct / 100)) + 1
    probe = start_probe() if workload.name == "cli" else loop_probe(workload.probe_interval)
    passes: list[Pass] = []
    probe.start()
    start = time.perf_counter()
    while True:
        p = run_pass(ops, workload.run, probe)
        verdicts.add(ops, p, log=not passes)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(passes) * len(ops) >= min_samples:
            break
        if elapsed >= args.seconds * HARD_CAP_FACTOR:
            break
    wall = time.perf_counter() - start
    peak = rss_mb(children=workload.name == "cli")
    setups = measure_setup(workload.name, args.seed)

    weights = sum(op.weight for op in ops) * len(passes)
    busy = sum(p.seconds for p in passes)
    latencies = [t / op.weight * 1000 for p in passes for op, t in zip(ops, p.times)]
    # The median is taken over each operation's median across passes: one
    # slow sample of the operation that happens to sit in the middle of the
    # ranking cannot move it.
    typical = [statistics.median(p.times[i] for p in passes) / op.weight * 1000
               for i, op in enumerate(ops)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (weights / busy, "1/s"),
        "latency_ms_p50": (statistics.median(typical), "ms"),
        "latency_ms_tail": (percentile(latencies, workload.tail_pct), "ms"),
        "ok_share": (1 - verdicts.failed / verdicts.attempted, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    info = {
        "passes": len(passes),
        "samples": len(latencies),
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": sum(1 for x in latencies if x > metrics["latency_ms_tail"][0]),
        "wall_s": round(wall, 3),
        "mean_speed_factor": round(statistics.mean(f for p in passes for f in p.factors), 4),
        "setup_s_samples": [round(x, 4) for x in setups],
        "failed_share": verdicts.failed / verdicts.attempted,
    }
    return verdicts, metrics, info


# ---------------------------------------------------------------- traced run


def traced(workload, args) -> tuple[Verdicts, dict, dict]:
    from tracing import COUNT_METRICS, Tracer, layer_metrics, percentile

    verdicts = Verdicts(workload.name, args.seed)
    ops = workload.ops
    is_cli = workload.name == "cli"
    # The cli workload's measured op is a subprocess, which a wrapper cannot
    # see into; its traced passes run the same argv through symfair.cli.main.
    call = workload.run_in_process if is_cli else workload.run
    tracer = Tracer()
    loop, starts = loop_probe(workload.probe_interval), start_probe()
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    per_pass: list[dict] = []
    sub_ms = {"check": [], "solve": []}
    loop.start()
    if is_cli:
        starts.start()
    start = time.perf_counter()
    while True:
        if is_cli:
            p = run_pass(ops, workload.run, starts)
            verdicts.add(ops, p, log=not plain)
            for op, t in zip(ops, p.times):
                sub_ms[op.payload["argv"][0]].append(t * 1000)
            loop.start()
        p = run_pass(ops, call, loop)
        verdicts.add(ops, p, log=not plain)
        plain.append(p)
        tracer.install()
        try:
            spans = tracer.new_pass()
            q = run_pass(ops, call, loop, tracer=tracer)
        finally:
            tracer.uninstall()
        verdicts.add(ops, q, log=False)
        traced_passes.append(q)
        per_pass.append(layer_metrics(spans, dict(enumerate(q.factors))))
        if time.perf_counter() - start >= args.seconds:
            break

    values: dict[str, float] = {}
    for key in per_pass[0]:
        seen = [m[key] for m in per_pass]
        if key in COUNT_METRICS:
            if any(v != seen[0] for v in seen):
                verdicts.wrong.append(f"count {key} differs between traced passes: {seen}")
            values[key] = seen[0]
        else:
            values[key] = statistics.median(seen)

    overheads = [q.seconds / p.seconds - 1 for p, q in zip(plain, traced_passes)]
    values["trace.overhead_ratio"] = statistics.median(overheads)
    for key in ("cli.floor_ms", "cli.import_ms", "cli.check_ms_p50", "cli.solve_ms_p50"):
        values[key] = 0.0
    if is_cli:
        import workloads

        env = workloads.cli_env()
        # The floor is the unit cli times are scaled to, so it is reported unscaled.
        values["cli.floor_ms"] = statistics.median(_start_sample() * 1000 for _ in range(5))
        imported = subprocess_ms([sys.executable, "-c", "import symfair"], env, starts, 5)
        values["cli.import_ms"] = statistics.median(imported) - starts.nominal * 1000
        values["cli.check_ms_p50"] = percentile(sub_ms["check"], 50)
        values["cli.solve_ms_p50"] = percentile(sub_ms["solve"], 50)
    metrics = {key: (value, LAYER_UNITS[key]) for key, value in values.items()}
    info = {
        "traced_passes": len(traced_passes),
        "spans_per_pass": len(tracer.passes[0]),
        "overhead_samples": [round(x, 4) for x in overheads],
        "counts_digest": hashlib.sha256(json.dumps(
            {k: metrics[k][0] for k in COUNT_METRICS}, sort_keys=True).encode()).hexdigest()[:16],
    }
    tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json",
                 {"workload": workload.name, "seed": args.seed, **info})
    return verdicts, metrics, info


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid", "frontier", "large-m", "cli"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symfair" / "__init__.py").is_file():
        print(f"error: no symfair package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    workdir = OUT / f"run-{os.getpid()}"
    try:
        workload = build_workload(args.workload, args.seed, workdir)
        print("env " + json.dumps(environment(), sort_keys=True))
        run = traced if args.trace else end_to_end
        verdicts, metrics, info = run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    correct = not verdicts.wrong
    for msg in verdicts.wrong[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
