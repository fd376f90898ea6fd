"""Serial pipeline benchmark for gridtopo.

    python3 perfbench/run.py --workload random-3d --seed 1 --seconds 55 --trace 0

Makes the workload's input from the seed, then times runs of the pipeline,
each in a fresh process and one at a time, within ``--seconds`` (at least
two timed runs); no run starts that would end after the window.  The first
run is the reference: after its timings are taken it is checked against the
oracles, and every later run is judged against its output digest.  With
``--trace 1`` one run after the reference takes the tracemalloc probes, and
the runs after it are traced.  Prints every metric with its unit, then one
JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.

``--record`` checks each workload at its default seed against the exact
census (``oracle.count_contours``) and rewrites ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_serial  # first: it puts the checkout's src/ on sys.path
import bench_checks

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEADLINE_S = 160  # a run must end within 180 s
MIN_RUNS = 2  # even when --seconds has run out
SETUP_REPS = 100

END_TO_END = {"run_s": "s", "tree_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Span name -> per-layer metric name; every other span reports "<name>_s".
SELF_TIME_NAMES = {"run": "trace.unattributed_s", "tree.contour_tree": "tree.contour_tree_self_s"}


def band_problem(name: str, seed: int, share: float) -> str | None:
    lo, hi = bench_serial.WORKLOADS[name].band
    if lo <= share <= hi:
        return None
    return (
        f"seed {seed} gives {name} a supernode share of {share:.5f}, outside "
        f"its band [{lo}, {hi}]: the input lacks the property the workload is for"
    )


def write_raw_input(name: str, seed: int, tmp: Path) -> Path | None:
    """The raw file a raw-ingest workload reads; None for array workloads."""
    wl = bench_serial.WORKLOADS[name]
    if not wl.raw_f32_big:
        return None
    raw = tmp / "input.raw"
    bench_serial.write_input(wl, seed, raw)
    return raw


def make_job(name: str, seed: int, kind: str, check: str | None,
             raw: Path | None, out_dir: Path) -> dict:
    return {
        "workload": name, "seed": seed, "pass": kind, "check": check,
        "raw_path": str(raw) if raw else None, "out_dir": str(out_dir),
        "setup_reps": SETUP_REPS,
    }


def run_child(job: dict, timeout: float) -> dict:
    """One run in a fresh interpreter; an error record if it did not finish."""
    cmd = [sys.executable, str(HERE / "bench_serial.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return {"error": lines[-1]}
    return json.loads(proc.stdout.splitlines()[-1])


def judge(record: dict, out_dir: Path, reference_digest: str) -> bool:
    """A run counts as correct when it did not raise and its outputs match."""
    return "error" not in record and bench_checks.digest(out_dir) == reference_digest


def self_times(rows: list) -> tuple[dict, float, list[str]]:
    """Seconds per span name net of child spans, the root span's duration,
    and any way the spans fail to nest into one root that they cover."""
    problems = []
    covered = [0] * len(rows)
    for name, start, end, parent in rows[1:]:
        if parent is None:
            problems.append(f"span {name} has no parent")
            continue
        _, p_start, p_end, _ = rows[parent]
        if not p_start <= start <= end <= p_end:
            problems.append(f"span {name} leaves its parent")
        covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), cov in zip(rows, covered):
        out[name] = out.get(name, 0.0) + (end - start - cov) / 1e9
    run_s = (rows[0][2] - rows[0][1]) / 1e9
    if abs(sum(out.values()) - run_s) > 1e-6 * run_s:
        problems.append("self times do not add up to the traced run")
    return out, run_s, problems


def per_layer(plain: list, traced: list, memory: dict, counts: dict) -> tuple[dict, list]:
    problems = []
    selves, runs = [], []
    for rec in traced:
        own, run_s, bad = self_times(rec["spans"])
        selves.append(own)
        runs.append(run_s)
        problems += bad
    layer = {}
    for name in selves[0]:
        metric = SELF_TIME_NAMES.get(name, f"{name}_s")
        layer[metric] = statistics.median(s.get(name, 0.0) for s in selves)
    layer["trace.run_s"] = statistics.median(runs)
    layer["trace.overhead_share"] = (
        layer["trace.run_s"] / statistics.median(r["run_s"] for r in plain) - 1
    )
    layer.update(memory)
    layer.update(counts)
    return layer, problems


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    return "ratio" if metric.endswith("_share") else "count"


def measure(args) -> int:
    start = time.monotonic()
    problems: list[str] = []
    # With tracing, the reference run is the untraced run that
    # trace.overhead_share compares against; the time after it goes to spans.
    timed = "spans" if args.trace else "plain"
    good: dict[str, list] = {"plain": [], timed: []}
    attempted = failed = 0
    metrics: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        tmp = Path(tmp)
        raw = write_raw_input(args.workload, args.seed, tmp)

        def attempt(kind: str, check: str | None = None) -> tuple[dict, Path]:
            nonlocal attempted
            out_dir = tmp / f"run{attempted}"
            out_dir.mkdir()
            attempted += 1
            job = make_job(args.workload, args.seed, kind, check, raw, out_dir)
            return run_child(job, DEADLINE_S - (time.monotonic() - start)), out_dir

        # The first run is the reference: checked by the oracles, then its
        # digest judges every later run.
        rec, out_dir = attempt("plain", check="sampled")
        if "error" in rec:
            failed += 1
            problems.append(f"reference run failed: {rec['error']}")
        else:
            share = rec["counts"]["tree.supernode_share"]
            band = band_problem(args.workload, args.seed, share)
            if band:
                print(f"perfbench: {band}", file=sys.stderr)
                return 2
            problems += rec["problems"]
            counts = rec["counts"]
            ref_digest = bench_checks.digest(out_dir)
            recorded = json.loads(DIGESTS.read_text())[args.workload]
            if args.seed == recorded["seed"] and ref_digest != recorded["sha256"]:
                problems.append("outputs differ from the digest recorded for this seed")
            good["plain"].append(rec)

        memory = None
        if args.trace and not problems:
            # The tracemalloc pass goes first, so the traced runs fill what
            # is left of the window.
            rec, out_dir = attempt("memory")
            if judge(rec, out_dir, ref_digest):
                memory = rec["memory"]
            else:
                failed += 1

        run_s = 0.0
        while not problems:
            elapsed = time.monotonic() - start
            # Start no run that would end after the window.
            if len(good[timed]) >= MIN_RUNS and elapsed + run_s > args.seconds:
                break
            if elapsed + 2 * run_s > DEADLINE_S:
                break
            run_start = time.monotonic()
            rec, out_dir = attempt(timed)
            if judge(rec, out_dir, ref_digest):
                good[timed].append(rec)
            else:
                failed += 1
                print(f"run {attempted} failed: {rec.get('error', 'outputs differ')}",
                      file=sys.stderr)
            run_s = time.monotonic() - run_start

        if not problems and all(good.values()):
            if args.trace:
                if memory is not None:
                    metrics, bad = per_layer(good["plain"], good["spans"], memory, counts)
                    problems += bad
            else:
                for key in END_TO_END:
                    metrics[key] = statistics.median(r[key] for r in good["plain"])

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0 and bool(metrics)
    print(f"{args.workload} seed {args.seed}: medians over {len(good[timed])} {timed} runs")
    for key, value in metrics.items():
        samples = sorted(r[key] for r in good[timed] if key in r)
        spread = f"  (runs: {' '.join(f'{x:.4g}' for x in samples)})" if samples else ""
        print(f"  {key:42s} {value:.6g} {unit_of(key)}{spread}")
    print(f"  {'failed_share':42s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def record() -> int:
    """Check each workload at its default seed exactly, then store digests."""
    digests = {}
    for name, wl in bench_serial.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
            tmp = Path(tmp)
            raw = write_raw_input(name, wl.default_seed, tmp)
            out_dir = tmp / "out"
            out_dir.mkdir()
            rec = bench_serial.child_main(
                make_job(name, wl.default_seed, "plain", "exact", raw, out_dir)
            )
            problems = [rec["error"]] if "error" in rec else rec["problems"]
            band = band_problem(name, wl.default_seed, rec["counts"]["tree.supernode_share"])
            problems += [band] if band else []
            if problems:
                print(f"{name}: " + "; ".join(problems), file=sys.stderr)
                return 1
            digests[name] = {"seed": wl.default_seed, "sha256": bench_checks.digest(out_dir)}
        print(f"{name}: seed {wl.default_seed} checked, {rec['counts']}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and waited
    # for, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.record:
        return record()
    if args.workload not in bench_serial.WORKLOADS or args.seed is None:
        parser.error(f"--workload {sorted(bench_serial.WORKLOADS)} and --seed are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
