"""Run the modalign benchmark.

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload bank_tools --seed 3 --trace 0

One workload runs in one process. It makes whole timed passes through
`modalign.cli.main` until --seconds (by default `run_seconds` of
BENCHMARK.json) have passed, checking every output. Before each pass it
imports modalign afresh and writes its inputs again, a batch of times, and
it reports the median of all those set-ups as setup_s.
With --trace 1 it makes one untraced and one traced pass and reports the
per-layer metrics instead. The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("transfer_default", "transfer_ablation", "bank_tools")
# Before each pass, set-ups repeat until both of these are reached.
SETUP_BATCH = 2
SETUP_BATCH_S = 0.5
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"))


def import_modalign_cli():
    """Import modalign afresh from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "modalign" or m.startswith("modalign.")]:
        del sys.modules[name]
    cli = importlib.import_module("modalign.cli")
    origin = Path(sys.modules["modalign"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"modalign was imported from {origin}, not from {ROOT / 'src'}")
    return cli


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_pass(workload, cli):
    workload.clear()
    cpu0, t0 = cpu_seconds(), perf_counter()
    outcomes = workload.run_pass(cli)
    wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return wall, cpu, rss_mib, workload.check(outcomes)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import tracing
    from perfbench.workloads import make_workload

    workload = make_workload(name, seed)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    inputs = work / "in"
    setups = []

    def set_up():
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = perf_counter()
        cli = import_modalign_cli()
        inputs.mkdir(parents=True)
        workload.setup(inputs)
        setups.append(perf_counter() - t0)
        return cli

    def set_up_batch():
        # Batches are spread over the run, one before every pass, so that
        # the median of the set-ups sees the same machine as the passes do.
        t0, n = perf_counter(), 0
        while n < SETUP_BATCH or perf_counter() - t0 < SETUP_BATCH_S:
            cli = set_up()
            n += 1
        return cli

    try:
        walls, cpus, rss, ops = [], [], [], []
        start = perf_counter()
        while not walls or (not trace and perf_counter() - start < seconds):
            cli = set_up_batch()
            if not walls and hasattr(workload, "check_decoders"):
                workload.check_decoders(sys.modules["modalign"])
            wall, cpu, peak, pass_ops = timed_pass(workload, cli)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            ops += pass_ops
        if trace:
            cli = set_up_batch()
            with tracing.Tracer() as tracer:
                traced_wall, _, _, pass_ops = timed_pass(workload, cli)
            ops += pass_ops
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures: dict[tuple[str, str], int] = {}
    for op in ops:
        for problem in op.problems:
            key = (op.name + (" [known fault]" if op.known else ""), problem)
            failures[key] = failures.get(key, 0) + 1
    for (op_name, problem), times in sorted(failures.items()):
        print(f"FAILED {name}/{op_name} (x{times}): {problem}")

    if trace:
        values = tracing.layer_metrics(tracer, traced_wall - statistics.median(walls))
        units = tracing.LAYER_UNITS
        for absent in tracer.absent:
            print(f"absent span: {absent} (attribute not found)")
        print(f"traced pass {traced_wall:.3f} s, {len(tracer.spans)} spans; untraced pass {walls[0]:.3f} s")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            # After the first pass: later passes can raise the high-water
            # mark through heap fragmentation alone, which would tie it to
            # the number of passes that fit in the run.
            "peak_rss_mib": rss[0],
        }
        units = dict(END_TO_END)
        print(
            f"{len(setups)} set-ups, {len(walls)} timed passes: "
            f"wall_s {', '.join(f'{w:.3f}' for w in walls)}"
        )
    failed = sum(op.failed for op in ops)
    print(f"{name} seed {seed}: attempted {len(ops)}, failed {failed}")
    for metric, value in values.items():
        print(f"  {metric:40s} {value:16.6f} {units[metric]}")
    return {
        "correct": not any(op.failed and not op.known for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in values},
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="minimum timed length of a run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "modalign" / "__init__.py").is_file():
        print(f"error: no modalign source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(bench["run_seconds"])
    if args.workload == "all":
        return run_all(args)

    # No more BLAS threads than this process may run on.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
