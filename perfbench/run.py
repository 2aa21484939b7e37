"""Layered end-to-end benchmark of the astable CLI.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout.  Each workload is a fixed list of
CLI command shapes, repeated in passes by one client in one process (a
closed loop, `--workers 1`); every pass draws fresh instances of the same
sizes from the seed.  Every command goes through `astable.cli.main(argv)`
in-process with stdout and stderr captured, and is checked against an exact
expected result computed by `workloads.py` before timing starts.

The run length is fixed in work: max(MIN_PASSES, ceil(seconds / reference
seconds per pass on the seed commit)) passes, so both sides of a comparison
run the same commands the same number of times and every percentile sits at
the same rank.  Times are reported in reference seconds (see `calibrate.py`).

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` a third of the passes (at least 2) run untraced as a reference
rate, then every pass runs with the span wrappers of `spans.py` installed, and the last
line reports the per-layer metrics and the tracing overhead.  Raw samples,
the environment and the per-layer table go to
`.bench_out/<workload>-seed<seed>-trace<t>.json`, spans to
`.bench_out/<workload>-spans.tsv.gz`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Reference seconds per pass on the seed commit (Python 3.11, 2 CPUs, untraced).
PASS_SECONDS = {"enumerate": 10.5, "modular": 1.2, "many_small": 1.4}
# At least 4 passes: with the 7 commands of an `enumerate` pass, 4 puts the
# median inside the 4th-slowest command's samples and the tail rank (10
# samples beyond it) inside the 3rd-slowest's, not on an edge between two
# commands, where a single sample would flip the reading.
MIN_PASSES = 4
SETUP_SPAWNS = 11


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup() -> list[dict]:
    """Fresh interpreter until `astable.cli` is imported: spawn to the
    child's monotonic timestamp taken right after the import.  One unmeasured
    spawn first writes the bytecode cache, which users do not pay per run."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import astable.cli; "
            "print(repr(time.monotonic()))")
    speed = calibrate.Speedometer()
    speed.sample()
    timed = []
    for k in range(SETUP_SPAWNS + 1):
        t0 = time.monotonic()
        p0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if k:
            timed.append((float(done.stdout.strip()) - t0, p0, time.perf_counter()))
        speed.sample()
    return [{"wall_s": w, "ref_s": w * speed.factor(p0, p1)} for w, p0, p1 in timed]


def run_command(cli, cmd) -> tuple[float, float, str | None]:
    """Run one command in-process; returns its start, end and failure reason."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except Exception:
            code = None
            traceback.print_exc()
    t1 = time.perf_counter()
    return t0, t1, cmd.check(code, out.getvalue(), err.getvalue())


def run_passes(cli, passes: list, rec=None) -> list[dict]:
    """Closed loop over the passes, the calibration kernel between commands;
    each sample holds the raw and the reference-speed wall time."""
    speed = calibrate.Speedometer()
    speed.sample()
    samples = []
    for p, commands in enumerate(passes):
        for k, cmd in enumerate(commands):
            if rec is not None:
                rec.cmd = len(samples)
            t0, t1, why = run_command(cli, cmd)
            speed.sample(t1 - t0)
            samples.append({"pass": p, "cmd": k, "label": cmd.label, "wall_s": t1 - t0,
                            "error": why, "t0": t0, "t1": t1})
    for s in samples:
        s["ref_s"] = s["wall_s"] * speed.factor(s.pop("t0"), s.pop("t1"))
    return samples


def tail_rank(n: int) -> int:
    """0-based rank of the highest percentile with at least 10 samples
    beyond it (the largest sample when there are fewer than 11)."""
    return max(0, n - 11)


def throughput(samples, key: str) -> float:
    """Commands per second of one typical pass: commands per pass over the
    sum of each command's median time across passes, so that a burst of
    interference during one pass does not move it."""
    by_cmd: dict[int, list[float]] = {}
    for s in samples:
        by_cmd.setdefault(s["cmd"], []).append(s[key])
    return len(by_cmd) / sum(statistics.median(v) for v in by_cmd.values())


def end_to_end(samples, setup) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds, and their raw counterparts."""
    metrics, raw = {}, {}
    for key, out in (("ref_s", metrics), ("wall_s", raw)):
        walls = sorted(s[key] for s in samples)
        out["setup_s"] = (statistics.median(s[key] for s in setup), "s")
        out["cmds_per_s"] = (throughput(samples, key), "1/s")
        out["cmd_p50_ms"] = (statistics.median(walls) * 1e3, "ms")
        out["cmd_tail_ms"] = (walls[tail_rank(len(walls))] * 1e3, "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    n = len(samples)
    notes = {
        "samples": n,
        "setup_samples": len(setup),
        "tail_percentile": round(100 * (tail_rank(n) + 1) / n, 1),
        "fail_ratio": sum(1 for s in samples if s["error"]) / n,
        "raw_wall": {m: v for m, (v, _) in raw.items()},
    }
    return metrics, notes


def predictions(workload: str, layer: dict, passes: int) -> list[tuple[str, bool]]:
    """Each workload's stated reason, checked against the traced shares."""
    out = []
    split_total = sum(v for k, v in layer.items() if k.startswith("splitting.") and k.endswith("_s"))
    if workload == "enumerate":
        out.append((f"stable.minimality_share {layer['stable.minimality_share']:.3f} is the "
                    "largest layer share and at least 0.5",
                    layer["stable.minimality_share"] >= 0.5 and all(
                        layer["stable.minimality_share"] >= v for k, v in layer.items()
                        if k.endswith("_share") and k not in ("stable.enumerate_share",
                                                              "stable.minimality_share"))))
        out.append((f"splitting.* absent (time {split_total:.4f} s, "
                    f"pair_checks {layer['splitting.pair_checks']})",
                    split_total == 0 and layer["splitting.pair_checks"] == 0))
    elif workload == "modular":
        both = layer["stable.is_a_stable_share"] + layer["splitting.modular_share"]
        out.append((f"stable.is_a_stable_share + splitting.modular_share = {both:.3f} dominates "
                    "(at least 0.5)", both >= 0.5))
        out.append((f"formula.sweep_share {layer['formula.sweep_share']:.3f} is small "
                    "(below 0.1)", layer["formula.sweep_share"] < 0.1))
    else:
        calls = layer["stable.enumerate_calls"] / passes
        width = math.log2(layer["formula.assignments"] / layer["formula.sweep_calls"]) \
            if layer["formula.sweep_calls"] else 0.0
        out.append((f"{calls:.0f} enumerate_a_stable calls per pass (at least 1000) with a "
                    f"mean sweep width of {width:.2f} atoms (at most 5)",
                    calls >= 1000 and width <= 5))
    fallbacks = layer["splitting.fallbacks"]
    expected = passes if workload == "modular" else 0
    out.append((f"splitting.fallbacks {fallbacks} = {expected} ({passes} passes)",
                fallbacks == expected))
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "astable" / "cli.py").is_file():
        return _fail(f"no astable sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import astable.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        return _fail(f"imported astable from {cli.__file__}, not from {SRC}")

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    passes = max(MIN_PASSES, math.ceil(args.seconds / PASS_SECONDS[args.workload]))
    plan = workloads.build(args.workload, args.seed, work, passes)
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "trace": args.trace, "passes": passes, "commands_per_pass": len(plan[0]),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": git_commit(),
    }
    if not args.trace:
        setup = measure_setup()
        samples = run_passes(cli, plan)
        metrics, notes = end_to_end(samples, setup)
        record.update(setup_samples=setup, samples=samples, end_to_end=notes)
        report = metrics
        summary = [f"cmd_p50_ms over {notes['samples']} samples; cmd_tail_ms is "
                   f"p{notes['tail_percentile']} of {notes['samples']}; setup_s is the median "
                   f"of {notes['setup_samples']} spawns; times in reference seconds "
                   f"(calibrate.py); raw wall: " + ", ".join(
                       f"{m} {v:.6g}" for m, v in notes["raw_wall"].items())]
    else:
        # A third of the passes (at least 2) untraced as the reference rate,
        # then every pass traced; the overhead compares the same passes.
        ref_passes = max(2, passes // 3)
        ref_samples = run_passes(cli, plan[:ref_passes])
        rec = spans.Recorder()
        uninstall = spans.install(rec)
        try:
            traced = run_passes(cli, plan, rec)
        finally:
            uninstall()
        samples = ref_samples + traced
        cmd_wall = sum(s["wall_s"] for s in traced)
        layer = spans.derive(rec, cmd_wall)
        layer.update(spans.suite_metrics(rec, workloads.SUITES))
        untraced_rate = throughput(ref_samples, "ref_s")
        traced_rate = throughput(traced, "ref_s")
        same_passes = throughput([s for s in traced if s["pass"] < ref_passes], "ref_s")
        layer["trace.cmd_wall_s"] = cmd_wall
        layer["trace.cmds_per_s"] = traced_rate
        layer["trace.untraced_cmds_per_s"] = untraced_rate
        layer["trace.overhead"] = untraced_rate / same_passes
        verdicts = predictions(args.workload, layer, passes)
        rec.write(out_dir / f"{args.workload}-spans.tsv.gz")
        record.update(reference_samples=ref_samples, samples=traced,
                      per_layer=layer, spans=len(rec.name),
                      predictions=[{"claim": c, "confirmed": ok} for c, ok in verdicts])
        units = {m: "s" for m in layer if m.endswith("_s")}
        units.update({m: "ratio" for m in layer if m.endswith(("_share", "_ratio", "yield"))})
        units.update({m: "1/s" for m in layer if m.endswith("_per_s")})
        units["trace.overhead"] = "ratio"
        report = {m: (v, units.get(m, "count")) for m, v in layer.items()}
        summary = [f"prediction {'CONFIRMED' if ok else 'CONTRADICTED'}: {claim}"
                   for claim, ok in verdicts]

    failed = [s for s in samples if s["error"]]
    record["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in report.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"{passes} passes x {len(plan[0])} commands, seed {args.seed}, "
          f"fail_ratio {len(failed)}/{len(samples)}")
    for line in summary:
        print(line)
    for s in failed[:5]:
        print(f"FAILED pass {s['pass']} {s['label']}: {s['error']}")
    for m, (v, u) in report.items():
        print(f"  {m:44s} {v:14.6f} {u}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
