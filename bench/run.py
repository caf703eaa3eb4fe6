"""Benchmark of the `sentinel` CLI: seeded inputs, timed commands, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload daily --seed 1 --seconds 15 --trace 0

With ``--trace 0`` every command runs as its own ``python -m
cvesentinel.cli`` process (``src`` on the path) and the end-to-end
metrics are printed. With ``--trace 1`` the same commands also run in
process through ``traced.py``, which records a span around each library
call, and the per-layer metrics are printed instead. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The metric names and units are those of
``BENCHMARK.json``. The exit code is 1 when an output is wrong or a
command exited non-zero, and 0 otherwise.

Generated inputs and stores live under ``.bench_work/`` in the checkout
and are removed when the run ends; span files of traced runs are kept in
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from generate import generate
from reference import CheckFailed
from workloads import WORKLOADS, Command, Output, RunAborted, Workload

SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MB = 1024 * 1024


@dataclass
class Result:
    command: Command
    wall: float
    peak_rss_mb: float
    code: int
    output: Output


class Cli:
    """Runs `sentinel` commands as child processes, one at a time, through ``launcher.py``."""

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir  # where a command's stdout and stderr land
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.env.pop("SENTINEL_STORE", None)
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def spawn(self, argv: list[str], stdout: Path | None, stderr: Path | None) -> tuple[float, float, int]:
        """Wall seconds, peak RSS (MB) and exit code of one child process."""
        request = {"argv": argv, "cwd": str(self.root), "env": self.env,
                   "stdout": stdout and str(stdout), "stderr": stderr and str(stderr)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["wall_s"], reply["peak_rss_kb"] / 1024, reply["code"]

    def run(self, command: Command) -> Result:
        out_path, err_path = self.out_dir / "stdout", self.out_dir / "stderr"
        wall, rss, code = self.spawn(
            [sys.executable, "-m", "cvesentinel.cli", *command.argv], out_path, err_path
        )
        output = Output(
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )
        return Result(command, wall, rss, code, output)

    def import_seconds(self) -> float:
        """Interpreter start plus `import cvesentinel.cli`."""
        wall, _, code = self.spawn([sys.executable, "-c", "import cvesentinel.cli"], None, None)
        if code != 0:
            raise RuntimeError("cannot import cvesentinel.cli")
        return wall


class Tally:
    """Counts commands attempted and failed, and whether every output checked out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, cli: Cli, command: Command) -> Result:
        self.attempted += 1
        result = cli.run(command)
        if result.code != 0:
            self.failed += 1
            tail = result.output.stderr.strip().splitlines()[-1:]
            raise RunAborted(f"`sentinel {command.argv[0]}` exited {result.code}: {tail}")
        self.verify(command.name, lambda: command.check(result.output))
        return result

    def verify(self, what: str, check) -> None:
        try:
            check()
        except CheckFailed as exc:
            self.correct = False
            print(f"check failed ({what}): {exc}", file=sys.stderr)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _setup(cli: Cli, tally: Tally, workload: Workload, state: Path) -> tuple[float, list[Result]]:
    state.mkdir(parents=True)
    results = [tally.run(cli, command) for command in workload.setup(state)]
    return sum(r.wall for r in results), results


def _enough(rounds: int, minimum: int, started: float, seconds: int) -> bool:
    elapsed = time.perf_counter() - started
    return (elapsed >= seconds and rounds >= minimum) or elapsed >= 3 * seconds


def measure(cli: Cli, tally: Tally, workload: Workload, work: Path, seconds: int) -> dict[str, float]:
    """End-to-end metrics: set-up repeated, then timed rounds for ``seconds``."""
    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(work / f"state{i - 1}")
        setups.append(_setup(cli, tally, workload, work / f"state{i}")[0])
    state = work / f"state{SETUP_REPEATS - 1}"

    run_s, peak_rss = [], []
    started = time.perf_counter()
    while not _enough(len(run_s), MIN_ROUNDS, started, seconds):
        workload.before_round(state)
        results = [tally.run(cli, command) for command in workload.round(state)]
        run_s.append(sum(r.wall for r in results))
        peak_rss.append(max(r.peak_rss_mb for r in results))
    print(f"set-up seconds: {' '.join(f'{v:.3f}' for v in setups)}")
    print(f"round seconds ({len(run_s)} rounds): {' '.join(f'{v:.3f}' for v in run_s)}")
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": statistics.median(peak_rss),
        "store_mb": _dir_bytes(state / "store") / MB,
    }


def measure_traced(
    cli: Cli, tally: Tally, workload: Workload, work: Path, seconds: int, trace_file: Path
) -> dict[str, float]:
    """Per-layer metrics: each round runs the commands through the CLI and in process."""
    sys.path.insert(0, str(cli.root / "src"))
    import traced

    rounds: list[dict[str, float]] = []
    spans: list[dict] = []
    started = time.perf_counter()
    while not _enough(len(rounds), MIN_TRACED_ROUNDS, started, seconds):
        n = len(rounds)
        state = work / f"cli{n}"
        _, results = _setup(cli, tally, workload, state)
        results += [tally.run(cli, command) for command in workload.round(state)]
        imports = [cli.import_seconds() for _ in range(3)]
        tracer = traced.Tracer()
        traced.replay(workload, work / f"lib{n}", tracer, tally)
        rounds.append(traced.layer_metrics(tracer, results, statistics.median(imports)))
        spans.append(tracer.export())
        shutil.rmtree(state)
        shutil.rmtree(work / f"lib{n}")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"rounds": spans}), encoding="utf-8")
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cvesentinel" / "cli.py").is_file():
        print("error: run from the root of a cvesentinel checkout (src/cvesentinel is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = Tally()
    values: dict[str, float] = {}
    cli = Cli(root, work)  # started first, while this process is still small
    try:
        inputs = generate(args.workload, args.seed, work / "inputs")
        workload = WORKLOADS[args.workload](inputs)
        if args.trace:
            trace_file = root / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.json"
            values = measure_traced(cli, tally, workload, work, args.seconds, trace_file)
        else:
            values = measure(cli, tally, workload, work, args.seconds)
    except RunAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        tally.correct = False
    finally:
        cli.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<48} {values[name]:>14.6f} {unit}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and tally.correct:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(f"commands attempted {tally.attempted}, failed {tally.failed}, "
          f"outputs {'correct' if tally.correct else 'WRONG'}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct and not tally.failed else 1


if __name__ == "__main__":
    sys.exit(main())
