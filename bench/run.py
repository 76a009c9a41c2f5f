"""ftors benchmark: time to verdict on fixed CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every ftors command runs in a fresh
interpreter (`bench/child.py`), one at a time: a closed loop with a single
client.  Rounds of the workload's command list, with the same inputs, repeat
while the next round is expected to end within `--seconds`; at least one
round always runs.

`--trace 0` prints the end-to-end metrics.  The benchmark and its children
run pinned to one CPU, and each child times fixed reference slices
(`bench/reference.py`) after its imports and during and after
`ftors.cli.main`.  Every time of a child is scaled to reference speed (times
`reference.NOMINAL_S` over the child's median slice), summed over a round,
and the median over rounds is reported.  So one slow moment of the host moves
one sample, and a slow minute slows the slices as much as the command:
`verdict_s` (time inside `ftors.cli.main`), `cpu_s` (user plus system CPU of
the children, set-up included), `setup_s` (process start until `ftors.cli`
is imported, median over every child of the run) and `peak_rss_mb` (max-RSS
of a child, the largest per-command median).  `failed_ratio` is
`failed / attempted` in the last line.

`--trace 1` runs each command of a round untraced and then traced with the
wrappers of `bench/tracer.py`, and prints the per-layer metrics of the traced
rounds and the tracing overhead.  Counters must repeat exactly between traced
rounds.

Each run writes `bench/out/<workload>-seed<N>-trace<T>.json` with the run
record (machine, versions, load, seed, repeat count, child environment), every
command with its timings and the SHA-256 of its report, and the metrics.  The
last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import reference
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = OUT / "work"

SETUP_SAMPLES = 2        # per round: import-only children top up the commands' own
HARD_LIMIT_S = 150.0     # commands still running then are killed and count as failed
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class Child:
    """One child process, as seen from outside and as it reported."""

    label: str
    argv: list[str]
    exit_code: int | None = None
    timed_out: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    setup_s: float | None = None
    verdict_s: float | None = None
    report_sha256: str | None = None
    reference: list = field(default_factory=list)   # (wall, CPU) of its reference slices
    failure: str | None = None
    layers: dict = field(default_factory=dict)


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(CHILD_ENV)
        self.count = 0
        self.info: dict = {}

    def spawn(self, label: str, argv: list[str], mode: str = "plain") -> Child:
        """Start one child, wait for it, and read what it reported."""
        self.count += 1
        result = WORK / f"child-{self.count}.json"
        report = WORK / f"report-{self.count}.json"
        for path in (result, report):
            path.unlink(missing_ok=True)
        ftors_argv = argv + ["--format", "json", "--out", str(report)] if argv else []
        child = Child(label, argv)
        if time.monotonic() >= self.deadline:
            child.timed_out = True
            child.failure = f"not started: the {HARD_LIMIT_S:.0f} s run limit was reached"
            return child
        with open(WORK / "children.log", "ab") as log:
            spawn_t = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), repr(spawn_t), str(result),
                 mode, *ftors_argv],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                status, usage = self._reap(proc, child)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        child.wall_s = time.monotonic() - spawn_t
        child.exit_code = os.waitstatus_to_exitcode(status)
        child.cpu_s = usage.ru_utime + usage.ru_stime
        child.rss_mb = usage.ru_maxrss / 1024.0
        try:
            data = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = {}   # the child died before reporting; the checks below say why
        if "tracer_error" in data:
            raise SystemExit(f"error: tracer: {data['tracer_error']}")
        child.setup_s = data.get("setup_s")
        child.verdict_s = data.get("verdict_s")
        child.layers = data.get("layers", {})
        child.reference = data.get("reference", [])
        if data and not self.info:
            self.info = {"python": data["python"], "numpy": data["numpy"]}
        if child.timed_out:
            child.failure = f"timed out after {child.wall_s:.1f} s"
        elif child.exit_code != 0:
            child.failure = f"exit code {child.exit_code}"
        elif child.setup_s is None or (argv and child.verdict_s is None):
            child.failure = "the child reported no timings"
        if argv and report.is_file():
            child.report_sha256 = hashlib.sha256(report.read_bytes()).hexdigest()
        return child

    def _reap(self, proc: subprocess.Popen, child: Child):
        delay = 0.0005   # backs off to 50 ms, as Popen.wait does
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= self.deadline:
                proc.kill()
                child.timed_out = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            delay = min(2 * delay, 0.05)
            time.sleep(delay)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage

    def round(self, cmds: list[workloads.Command], modes=("ref",)) -> list[list[Child]]:
        """Run each command once per child mode (see child.py), back to back; one
        list per mode."""
        out: list[list[Child]] = [[] for _ in modes]
        for cmd in cmds:
            for children, mode in zip(out, modes):
                child = self.spawn(cmd.label, list(cmd.argv), mode)
                if child.failure is None:
                    path = WORK / f"report-{self.count}.json"
                    try:
                        report = json.loads(path.read_text(encoding="utf-8"))
                    except (OSError, ValueError) as exc:
                        child.failure = f"unreadable report: {exc}"
                    else:
                        child.failure = cmd.check(report)
                children.append(child)
        return out


# ---------------------------------------------------------------------------
# numbers

def describe(values: list[float], unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} {unit}"
    if n >= 11:
        ordered = sorted(values)
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.4f} {unit}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f", n={n}"


def verdict_time(child: Child) -> float:
    """Time inside cli.main; a child that reported none counts with its wall time."""
    return child.verdict_s if child.verdict_s is not None else child.wall_s


def per_command(rounds: list[list[Child]], measure) -> list[float]:
    """Each command's median over the rounds, in command order."""
    return [statistics.median(measure(r[i]) for r in rounds) for i in range(len(rounds[0]))]


def slice_time(children: list[Child], column: int):
    """A function giving a child's median reference slice (column 0 wall time,
    1 CPU time); a child that died before reporting gets the run's median."""
    every = [s[column] for c in children for s in c.reference] or [reference.NOMINAL_S]
    fallback = statistics.median(every)

    def of(child: Child) -> float:
        if not child.reference:
            return fallback
        return statistics.median(s[column] for s in child.reference)
    return of


def scaled(rounds: list[list[Child]], measure, column: int) -> list[float]:
    """Each round's total of `measure` over its children, each child's value
    scaled to reference speed: times NOMINAL_S over its median slice."""
    unit = slice_time([c for r in rounds for c in r], column)
    return [sum(measure(c) * reference.NOMINAL_S / unit(c) for c in r) for r in rounds]


def main_cpu(child: Child) -> float:
    """CPU time of a child, set-up included, without its reference slices."""
    return child.cpu_s - sum(s[1] for s in child.reference)


def sum_layers(children: list[Child]) -> dict[str, float]:
    total: dict[str, float] = {}
    for child in children:
        for key, value in child.layers.items():
            total[key] = total.get(key, 0) + value
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ftors").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tracer.ALL)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be at least 0 and --seconds at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ftors" / "cli.py").is_file():
        print(f"error: no ftors sources at {SRC / 'ftors'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # the children inherit this: every child and every reference slice runs on one CPU
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = Runner(start + HARD_LIMIT_S)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "cpu_model": cpu_model(), "loadavg_before": os.getloadavg(),
        "child_env": CHILD_ENV, "prime": workloads.PRIME,
        "loop": "closed, one client: one child process at a time",
    }

    runner.spawn("warm-up", [])   # compiles bytecode and fills the file cache; not counted
    setups: list[Child] = []
    rounds: list[list[Child]] = []
    traced: list[list[Child]] = []
    durations = []
    cmds = workloads.commands(args.workload, args.seed, WORK)
    while True:
        began = time.monotonic()
        if args.trace:
            plain, traced_round = runner.round(cmds, ("plain", "trace"))
            traced.append(traced_round)
        else:
            (plain,) = runner.round(cmds)
        rounds.append(plain)
        probes = SETUP_SAMPLES - len(cmds) * (2 if args.trace else 1)
        setups += [runner.spawn("set-up probe", [], "plain" if args.trace else "ref")
                   for _ in range(probes)]
        durations.append(time.monotonic() - began)
        spent = time.monotonic() - start
        # start another round only if it should end within --seconds
        if spent + statistics.median(durations) > min(args.seconds, HARD_LIMIT_S):
            break

    record["loadavg_after"] = os.getloadavg()
    record["rounds"] = len(rounds)
    record.update(runner.info)
    children = [c for r in rounds + traced for c in r]
    failures = [f"{c.label}: {c.failure}" for c in children if c.failure]
    setup_children = [c for c in setups + children if c.exit_code is not None]
    setup_raw = [c.setup_s if c.setup_s is not None else c.wall_s for c in setup_children]
    correct = not failures

    if args.trace:
        raws = [sum_layers(r) for r in traced]
        counters = [tracer.split_counters(raw) for raw in raws]
        if any(c != counters[0] for c in counters[1:]):
            failures.append("layer counters differ between traced rounds of the same inputs")
            correct = False
        unused = tracer.unused(raws[0], args.workload)
        if unused and correct:
            print(f"error: tracer: no call recorded on {args.workload} for "
                  f"{', '.join(unused)}; update bench/tracer.py LAYERS", file=sys.stderr)
            return 1
        per_round = [tracer.layer_metrics(raw) for raw in raws]
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        overhead = (sum(per_command(traced, verdict_time))
                    / sum(per_command(rounds, verdict_time)))
        values[tracer.OVERHEAD] = overhead
        metrics = {name: {"value": values[name], "unit": tracer.metric_unit(name)}
                   for name in tracer.metric_names()}
        summary = [f"tracing overhead: traced / untraced time in cli.main = {overhead:.4f} "
                   f"over {len(traced)} round pair(s)"]
    else:
        verdict = scaled(rounds, verdict_time, 0)
        cpu = scaled(rounds, main_cpu, 1)
        unit = slice_time(setup_children, 0)
        setup = [raw * reference.NOMINAL_S / unit(c) for raw, c in zip(setup_raw, setup_children)]
        metrics = {
            "verdict_s": {"value": statistics.median(verdict), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
            "peak_rss_mb": {"value": max(per_command(rounds, lambda c: c.rss_mb)), "unit": "MB"},
        }
        slices = [s[0] for c in setup_children for s in c.reference]
        summary = [f"times are at reference speed: measured time x {reference.NOMINAL_S} s / "
                   "the child's median reference slice",
                   f"verdict_s    {describe(verdict, 's')} rounds: time in cli.main, summed "
                   "over a round"]
        summary += [f"  {cmd.label:<18} measured "
                    f"{describe([verdict_time(r[i]) for r in rounds], 's')}"
                    for i, cmd in enumerate(cmds)]
        summary += [f"  reference slice    measured {describe(slices, 's')}",
                    f"setup_s      {describe(setup, 's')} children; measured "
                    f"{describe(setup_raw, 's')}",
                    f"cpu_s        {describe(cpu, 's')} rounds: child CPU time without its "
                    "slices, summed over a round",
                    f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.4f} MB: largest "
                    "per-command median"]

    attempted = len(children)
    failed = sum(1 for c in children if c.failure)
    summary.append(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    results = {
        "record": record,
        "setup_probes": [asdict(c) for c in setups],
        "rounds": [[asdict(c) for c in r] for r in rounds],
        "traced_rounds": [[asdict(c) for c in r] for r in traced],
        "failures": failures,
        "metrics": metrics,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"ftors benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(rounds)} round(s) of {len(rounds[0])} command(s), {record['nproc']} CPUs "
          f"({record['cpu_model']}), Python {record.get('python')}, numpy {record.get('numpy')}")
    for line in summary + [f"FAILED {f}" for f in failures] + [f"results in {path}"]:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
