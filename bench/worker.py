"""The process that runs a workload through ``modmckay.cli.main``.

Reads a job as JSON on stdin: the checkout's ``src`` directory, the argv
of every call in one round, the seconds to measure and whether to trace.
It runs the round again and again, closed loop on one thread, until the
time is up.  After each call of the first round it streams the output to
stdout, framed as a JSON header line followed by the raw bytes, for the
parent to check; every later output is compared with the first by
digest.  The last frame holds the timings.  Keeping the checks in the
parent keeps the oracle's memory out of this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time


def emit(header: dict, payload: bytes = b"") -> None:
    out = sys.stdout.buffer
    out.write(json.dumps(dict(header, bytes=len(payload))).encode() + b"\n")
    out.write(payload)
    out.flush()


def call(main, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """One CLI call: (seconds, exit code, stdout, error).  An exception
    escaping ``main`` is the error and leaves no exit code."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        error = None
    except Exception as exc:  # the program's own fault, recorded as a failed call
        code, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    return time.perf_counter() - start, code, buf.getvalue(), error


def digest(code, text, error) -> str:
    return hashlib.sha256(f"{code}|{error}|".encode() + text.encode()).hexdigest()


def mean_round_s(rounds: list[list[float]]) -> float:
    """The time of one round, averaged over the rounds."""
    return statistics.fmean(map(sum, rounds))


def run_rounds(cli, ops, seconds, expected, on_round=None) -> dict:
    """Whole rounds, at least two, until ``seconds`` have passed.  While
    ``expected`` is empty, the round's outputs are streamed to the parent
    after each call and their digests become ``expected``."""
    rounds, failed, mismatched, output_bytes = [], 0, 0, 0
    t_end = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < t_end:
        first = not expected
        times = []
        for i, argv in enumerate(ops):
            dt, code, text, error = call(cli.main, argv)
            times.append(dt)
            failed += code != 0
            if first:
                payload = text.encode()
                output_bytes += len(payload)
                expected.append(digest(code, text, error))
                emit({"op": i, "code": code, "error": error}, payload)
                del payload
            else:
                mismatched += digest(code, text, error) != expected[i]
            del text
        rounds.append(times)
        if on_round:
            on_round()
    return {"call_s": rounds, "failed": failed, "mismatched": mismatched,
            "attempted": len(rounds) * len(ops), "output_bytes": output_bytes}


def gap_metrics(plans: list[tuple]) -> dict[str, float]:
    """Planner length against the oracle's BFS distance, for the recorded
    plans whose graph has at most 10^5 vertices."""
    import oracle

    dist_cache, gaps = {}, []
    for p, src, tgt, length in plans:
        if p ** len(src) > 10**5:
            continue
        key = (p, src)
        if key not in dist_cache:
            dist_cache[key] = oracle.bfs(len(src) + 1, p, src)
        gaps.append(length - dist_cache[key][tgt])
    return {"planner.gap_moves_mean": statistics.fmean(gaps) if gaps else 0.0,
            "planner.optimal_pairs": sum(g == 0 for g in gaps)}


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import modmckay.cli as cli

    ops, seconds = job["ops"], job["seconds"]
    expected: list[str] = []

    if not job["trace"]:
        result = run_rounds(cli, ops, seconds, expected)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        emit({"summary": result})
        return 0

    from tracer import Tracer, layer_metrics

    plain = run_rounds(cli, ops, seconds / 2, expected)
    tracer = Tracer()
    emitted, counted, plans, per_round = 0, 0, [], []

    def on_plan(args, plan):
        nonlocal emitted
        emitted += plan.length
        if not per_round:  # the first traced round
            plans.append((plan.p, plan.source, plan.target, plan.length))

    tracer.hooks[("planner", "plan_path")] = on_plan
    snaps = [tracer.snapshot()]

    def on_round():
        nonlocal counted
        snaps.append(tracer.snapshot())
        per_round.append(layer_metrics(snaps[-2], snaps[-1], emitted - counted))
        counted = emitted

    tracer.install()
    try:
        traced = run_rounds(cli, ops, seconds / 2, expected, on_round)
    finally:
        tracer.uninstall()
    layers = {name: statistics.median_low(r[name] for r in per_round) for name in per_round[0]}
    layers.update(gap_metrics(plans))
    layers["trace.overhead_ratio"] = mean_round_s(traced["call_s"]) / mean_round_s(plain["call_s"])
    layers["cli.output_bytes"] = plain["output_bytes"]
    emit({"summary": {
        "call_s": plain["call_s"] + traced["call_s"],
        "failed": plain["failed"] + traced["failed"],
        "mismatched": plain["mismatched"] + traced["mismatched"],
        "attempted": plain["attempted"] + traced["attempted"],
        "layers": layers,
    }})
    return 0


if __name__ == "__main__":
    sys.exit(main())
