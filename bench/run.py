"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record PATH]

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  ``--record`` also writes the whole
run, with its inputs and environment, as a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import mean_round_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_LAUNCHES = 7
DEADLINE_S = 170


# The same call the installed ``modmckay`` script makes.
SETUP_CODE = "import sys; from modmckay.cli import main; sys.exit(main(['f', '--weight', '1']))"
IMPORT_CODE = ("import time; t = time.perf_counter(); import modmckay.cli; "
               "print(repr(time.perf_counter() - t))")


def fresh_python(code: str) -> tuple[float, str]:
    """Wall time and stdout of one fresh interpreter running ``code``
    with the checkout's sources on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return time.perf_counter() - start, out


def setup_s() -> float:
    """Median time from a fresh interpreter to the first CLI answer.  The
    first launch, which writes the bytecode caches that an installed
    package already has, is not counted."""
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        elapsed, out = fresh_python(SETUP_CODE)
        if out != "1\n":
            raise workloads.CheckError(f"modmckay f --weight 1 printed {out!r}")
        times.append(elapsed)
    return statistics.median(times[1:])


def import_s() -> float:
    """Median time to import modmckay.cli in a fresh interpreter, the
    first launch not counted."""
    return statistics.median([float(fresh_python(IMPORT_CODE)[1])
                              for _ in range(SETUP_LAUNCHES + 1)][1:])


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py"))


def run_worker(ops: list[workloads.Op], seconds: float, trace: bool, timeout: float):
    """Runs the worker to its end; returns the first round's (code, error,
    output) per op and the worker's summary."""
    job = json.dumps({"src": str(SRC), "ops": [op.argv for op in ops],
                      "seconds": seconds, "trace": trace})
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    try:
        raw, _ = proc.communicate(job.encode(), timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    outputs, pos = [], 0
    while True:
        end = raw.index(b"\n", pos)
        header = json.loads(raw[pos:end])
        pos = end + 1 + header["bytes"]
        if "summary" in header:
            return outputs, header["summary"]
        outputs.append((header["code"], header["error"], raw[end + 1:pos].decode()))


def command_round_s(ops: list[workloads.Op], call_s: list[list[float]]) -> dict[str, list[float]]:
    """Each round's time split by command and output format, such as
    ``diameter json`` or ``bfs csv``."""
    out: dict[str, list[float]] = {}
    for i, op in enumerate(ops):
        fmt = [op.argv[j + 1] for j, arg in enumerate(op.argv) if arg == "--format"]
        rounds = out.setdefault(" ".join([op.argv[0]] + fmt), [0.0] * len(call_s))
        for r, times in enumerate(call_s):
            rounds[r] += times[i]
    return out


def check_outputs(ops, outputs) -> list[str]:
    """Every answered call's output against its check; failed calls are
    counted by the worker, not checked."""
    problems = []
    for op, (code, error, text) in zip(ops, outputs):
        if code != 0:
            if not op.may_fail:
                problems.append(f"{' '.join(op.argv)}: failed ({error or f'exit {code}'})")
            continue
        try:
            op.check(text)
        except Exception as exc:  # any fault in parsing or comparing means a wrong answer
            problems.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the run as JSON to this path")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "modmckay" / "cli.py").is_file():
        print(f"error: no modmckay sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    ops = workloads.make(args.workload, args.seed)
    metrics: dict[str, float] = {}
    if args.trace:
        metrics["cli.import_s"] = import_s()
        metrics["repo.src_lines"] = src_lines()
    else:
        metrics["setup_s"] = setup_s()
    outputs, summary = run_worker(ops, args.seconds, bool(args.trace),
                                  DEADLINE_S - (time.perf_counter() - started))
    problems = check_outputs(ops, outputs)
    if summary["mismatched"]:
        problems.append(f"{summary['mismatched']} outputs differ from the first round's")
    if args.trace:
        metrics.update(summary["layers"])
    else:
        metrics["round_s"] = mean_round_s(summary["call_s"])
        metrics["peak_rss_mb"] = summary["peak_rss_kb"] / 1024

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for problem in problems:
        print(f"WRONG {problem}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} calls per round, "
          f"{len(summary['call_s'])} rounds, {summary['failed']} of {summary['attempted']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, problems=problems,
                      command_round_s=command_round_s(ops, summary["call_s"]),
                      calls=[op.argv for op in ops],
                      failures=[" ".join(op.argv) for op, (code, _, _) in zip(ops, outputs)
                                if code != 0],
                      python=platform.python_version(), nproc=os.cpu_count(),
                      machine=platform.machine())
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
