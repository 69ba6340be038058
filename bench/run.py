"""decop training benchmark: one closed-loop training job per run.

    python3 bench/run.py --workload pretrain-sine --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; decop is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` makes the same untraced run, then a traced run of the same
job in a fresh process, and prints the per-layer metrics. The traced
run must reproduce the untraced run's loss digest. Report lines come
first and the last line of standard output is one JSON object. Full
results go to ``bench/out/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# the whole run, parent and traced child, ends within this many seconds
RUN_LIMIT_S = 175
# the import is timed in this process and in fresh ones, and setup_s takes
# the median, so that one slow import does not move it
IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("pretrain-sine", "finetune-forecast", "classify-mlp")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="decop training benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7, help="data seed (training seed stays 42)")
    p.add_argument("--seconds", type=float, default=25.0, help="training time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small data and model, for the smoke test")
    p.add_argument("--phase", choices=("traced", "import"), help=argparse.SUPPRESS)
    return p


def _import_bench():
    """Import decop from this checkout only, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "decop", "__init__.py")):
        sys.exit(f"bench: no decop sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import decop
    import environment
    import harness
    import tracer

    if os.path.dirname(os.path.abspath(decop.__file__)) != os.path.join(SRC, "decop"):
        sys.exit(f"bench: decop imported from {decop.__file__}, not from {SRC}")
    return environment, harness, tracer


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_seconds(args, own: float) -> float:
    """Median import time over this process and fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--phase", "import"]
    samples = [own]
    for _ in range(IMPORT_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"bench: timing the import failed: {done.stderr.strip()}")
        samples.append(float(done.stdout))
    return statistics.median(samples)


def _traced_child(args) -> dict:
    """Run the traced phase in a fresh process and return its summary."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1", "--phase", "traced",
    ]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(10.0, RUN_LIMIT_S - (time.perf_counter() - _STARTED))
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"traced run took over {timeout:.0f} s"}
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"ok": False, "error": f"traced run exited {done.returncode}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    environment, harness, tracer = _import_bench()
    import_seconds = time.perf_counter() - _STARTED
    if args.phase == "import":
        print(repr(import_seconds))
        return 0
    if args.phase is None:
        import_seconds = _import_seconds(args, import_seconds)
    workload = harness.WORKLOADS[args.workload]
    if args.tiny:
        workload = harness.tiny(workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.phase == "traced":
            recorder = tracer.Tracer()
            phase = harness.run_phase(workload, args.seed, args.seconds, workdir, recorder)
            recorder.write_csv(os.path.join(OUT_DIR, f"trace_{tag}.csv"))
            timed = phase.timed_steps()
            steps = phase.step_seconds()
            layers = recorder.layer_metrics(
                set(timed), phase.step_ends,
                harness.affine_macs_per_step(workload), workload.stage,
            )
            print(json.dumps({
                "ok": not phase.errors,
                "digest": phase.loss_digest(),
                "digest_steps": phase.quality_steps(),
                "step_ms_p50": statistics.median(steps) * 1e3 if steps else None,
                "timed_steps": len(timed),
                "attempted": phase.attempted,
                "failed": phase.failed,
                "layers": layers,
            }))
            return 0
        phase = harness.run_phase(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment.describe(ROOT, args.seed, workload.cfg.seed)
    e2e = harness.end_to_end(phase, import_seconds, _peak_rss_mb())
    results = harness.checks(phase)
    attempted = phase.attempted
    failed = phase.failed + sum(not ok for _, ok, _ in results)
    digest = phase.loss_digest()
    steps = phase.step_seconds()
    # printed, not bounded: on a shared host its run-to-run spread is wider
    # than any bound the benchmark may set (see README)
    extra = {"step_ms_p90": harness.p90(steps) * 1e3 if steps else math.nan}
    extra.update((key, phase.quality[key]) for key in ("val_mse", "val_f1") if key in phase.quality)
    extra["failed_ratio"] = failed / max(attempted, 1)
    extra["timed_steps"] = len(phase.timed_steps())
    extra["epochs"] = len(phase.epochs)

    print(f"# decop benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for error in phase.errors:
        print(f"error {error}")
    for name, ok, detail in results:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    print(f"loss_digest sha256:{digest} over {phase.quality_steps()} steps "
          f"({workload.quality_epochs} quality epochs)")
    units = dict(harness.END_TO_END_UNITS)
    units.update(step_ms_p90="ms", val_mse="mse", val_f1="%", failed_ratio="ratio", timed_steps="count", epochs="count")
    for name, value in {**e2e, **extra}.items():
        print(f"metric {name} {value:.6g} {units[name]}")

    metrics = {name: (e2e[name], harness.END_TO_END_UNITS[name]) for name in e2e}
    correct = failed == 0 and not phase.errors
    if args.trace:
        child = _traced_child(args)
        same = child.get("ok") and child.get("digest") == digest
        print(f"check traced_digest_matches {'ok' if same else 'FAILED'}: "
              f"traced sha256:{child.get('digest')} over {child.get('digest_steps')} steps")
        correct = correct and bool(same)
        attempted += child.get("attempted", 0)
        failed += child.get("failed", 0) + (not same)
        layers = child.get("layers") or {}
        p50 = child.get("step_ms_p50")
        if p50 is not None and math.isfinite(e2e["step_ms_p50"]):
            layers["trace.overhead_pct"] = (p50 - e2e["step_ms_p50"]) / e2e["step_ms_p50"] * 100.0
        metrics = {name: (layers.get(name, math.nan), unit) for name, unit in tracer.LAYER_UNITS.items()}
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "env": env, "checks": results, "loss_digest": digest,
        "loss_digest_steps": phase.quality_steps(), "extra": extra,
        "errors": phase.errors, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u} for k, (v, u) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
