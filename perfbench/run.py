"""Benchmark of the `sinklimit` CLI on seeded workloads.

    python3 perfbench/run.py --workload giant|basins|simulate --seed N \
        --seconds S --trace 0|1

Closed loop, one client: each run is a fresh process (`child.py`) that sets
up, runs the workload's command once and exits; the next starts when it has
ended.  Runs repeat while the next one should end within S seconds, at
least MIN_RUNS times, each after SETUP_PER_RUN children that only set up,
so the set-up time has more samples than the runs.  An untimed warm-up
child first fills a bytecode cache of the invocation's own.  Each run also
times a fixed reference task (`reference.py`) just before and just after
its call, and its wall time is reported over their mean as well.  Every
output is checked.  The report goes to stdout, the full result with the
environment record and every run to `perfbench/out/`, and the last stdout
line is one JSON object with the metrics named in BENCHMARK.json: the
end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.

A traced invocation alternates untraced and traced runs, so the tracing
overhead is the traced wall time minus the untraced one of the same
invocation.  Each `basins` invocation also probes, once and outside the
measured loop, `sinklimit hit` on the `giant` game under an address-space
cap.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_RUNS = 2
SETUP_PER_RUN = 2
# Every invocation must end within 180 s; stop starting runs well before.
HARD_LIMIT_S = 140.0
# The `hit` workload also runs the `hit` probe on the giant game.
PROBE_WORKLOAD = "basins"
PROBE_CAP_MB = 768
PROBE_TIMEOUT_S = 60.0

# One client on a small shared box: one BLAS thread.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(workdir):
    """Fixed string hashing, and bytecode read from and written to a fresh
    cache of this invocation only, so every timed set-up loads the same
    freshly compiled bytecode whatever `__pycache__` the checkout holds."""
    env = dict(os.environ, **BLAS_THREADS, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def git_commit():
    """HEAD of the checkout, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "os": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def spawn(workload, seed, workdir, name, extra, timeout):
    """Run a child to completion.  Returns its exit status (None after a
    timeout), its record (None if it left none) and its start time.  The
    record goes to WORKDIR/NAME.json and the output to WORKDIR/NAME.log."""
    record = workdir / f"{name}.json"
    record.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
            str(workdir), str(record), *extra]
    spawned = time.monotonic()
    with open(workdir / f"{name}.log", "w") as fh:
        try:
            status = subprocess.run(argv, env=child_env(workdir), cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            status = None
    return status, read_record(record), spawned


def set_up(workload, seed, workdir, timeout):
    """One child that only sets up.  Returns its set-up time, None on failure."""
    status, rec, spawned = spawn(workload, seed, workdir, "setup", ["--setup-only"], timeout)
    return rec["ready"] - spawned if status == 0 and rec else None


def read_record(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def log_tail(log):
    lines = Path(log).read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def measure(workload, seed, workdir, traced, timeout, first):
    """One run: spawn, wait, check the output.  Returns the run record.
    `first` is the earlier run whose output was checked, if any."""
    status, rec, spawned = spawn(workload, seed, workdir, "run", ["--trace"] if traced else [],
                                 timeout)
    attempted = workloads.operations(workload)
    run = {"traced": traced, "status": status, "attempted": attempted, "failed": attempted}
    out = Path(workloads.output_path(workdir))
    if rec is None or rec["exit_code"] != 0 or not out.is_file():
        reason = (rec or {}).get("error") or log_tail(workdir / "run.log")
        run["error"] = f"exit {status}, code {(rec or {}).get('exit_code')}: {reason}"
    else:
        run["setup_s"] = rec["ready"] - spawned
        run["wall_s"] = rec["wall_s"]
        run["ref_s"] = (rec["ref_before_s"] + rec["ref_after_s"]) / 2
        run["wall_ref"] = run["wall_s"] / run["ref_s"]
        run["peak_rss_mb"] = rec["maxrss_kb"] * 1024 / 1e6
        run["user_s"], run["sys_s"] = rec["user_s"], rec["sys_s"]
        run["output_mb"] = out.stat().st_size / 1e6
        run["digest"] = hashlib.sha256(out.read_bytes()).hexdigest()
        if first is not None and run["digest"] == first["digest"]:
            # Byte-identical to an output already checked: same verdict.
            run["error"], run["failed"] = first["error"], first["failed"]
        else:
            try:
                run["error"], run["failed"] = workloads.check_output(workload, out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                run["error"] = f"malformed output: {exc!r}"
            if run["error"] is None and first is not None:
                run["error"], run["failed"] = "output differs from the first run of this seed", attempted
        if traced:
            run["spans"] = rec["spans"]
            run["absent"] = rec["absent"]
            run["layers"] = tracing.summarize(rec["spans"], rec["counts"], rec["absent"])
    out.unlink(missing_ok=True)
    return run


def probe(seed, workdir):
    """`hit` on the giant game under an address-space cap, reported as found."""
    status, rec, start = spawn("giant", seed, workdir, "probe", ["--probe", str(PROBE_CAP_MB)],
                               PROBE_TIMEOUT_S)
    elapsed = time.monotonic() - start
    rec = rec or {}
    ok = status == 0 and rec.get("exit_code") == 0
    detail = rec.get("error") or log_tail(workdir / "probe.log")
    (workdir / "probe_out.json").unlink(missing_ok=True)
    return {
        "command": "sinklimit hit <giant game>",
        "address_space_cap_mb": PROBE_CAP_MB,
        "ok": ok,
        "status": status,
        "error": None if ok else detail,
        "wall_s": rec.get("wall_s"),
        "elapsed_s": elapsed,
        "peak_rss_mb": rec["maxrss_kb"] * 1024 / 1e6 if "maxrss_kb" in rec else None,
    }


def summary(values):
    """Median, quartiles and minimum of the values."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(values)}


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(runs, setups):
    """Summaries over the untraced runs that completed, and for `setup_s`
    over every set-up.  Each `value` is the reported number: the fastest for
    `wall_s` and `setup_s`, the median otherwise.  A metric without a single
    sample is left out.

    The host's speed drifts, between processes and over minutes, and
    interference only ever adds time; so `setup_s` is the fastest set-up,
    and `wall_ref` divides each run's wall time by the reference task timed
    in the same process around it.
    """
    names = ("wall_s", "wall_ref", "peak_rss_mb", "output_mb")
    done = [r for r in runs if "wall_s" in r and not r["traced"]]
    samples = {name: [r[name] for r in done] for name in names}
    samples["setup_s"] = setups + [r["setup_s"] for r in runs if "setup_s" in r]
    metrics = {}
    for name in ("setup_s", *names):
        if samples[name]:
            stats = summary(samples[name])
            stats["value"] = stats["min"] if name in ("wall_s", "setup_s") else stats["median"]
            metrics[name] = dict(stats, n=len(samples[name]))
    share = 1.0 - sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    metrics["ok_share"] = dict(summary([share]), value=share, n=len(runs))
    return metrics


def per_layer(runs):
    """Medians over the traced runs (the lower one of an even count, so
    counts stay whole), plus the tracing overhead."""
    traced = [r for r in runs if "layers" in r]
    untraced = [r["wall_s"] for r in runs if not r["traced"] and "wall_s" in r]
    if not traced:
        return {}
    metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.wall_s"] = statistics.median_low(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"] - statistics.median(untraced) if untraced else 0.0)
    return metrics


def run_loop(args, workdir, started):
    """Runs until --seconds have passed and at least MIN_RUNS ran, each after
    SETUP_PER_RUN set-ups; a traced invocation alternates untraced and traced
    runs.  Returns the runs and the set-up times."""
    runs, setups = [], []
    loop_start = time.monotonic()
    last = 0.0
    # Start a run only if it should end within --seconds, judged by the last one.
    while len(runs) < MIN_RUNS or time.monotonic() - loop_start + last < args.seconds:
        total = time.monotonic() - started
        if runs and total + last > HARD_LIMIT_S:
            break
        t0 = time.monotonic()
        for _ in range(SETUP_PER_RUN):
            setups.append(set_up(args.workload, args.seed, workdir, HARD_LIMIT_S + 30 - total))
        first = next((r for r in runs if "digest" in r), None)
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(measure(args.workload, args.seed, workdir, traced,
                            HARD_LIMIT_S + 30 - (time.monotonic() - started), first))
        last = time.monotonic() - t0
    return runs, setups


def report(args, env, runs, probe_result, e2e, layers, layer_units, missing, result_path):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} runs ({sum(r['traced'] for r in runs)} traced)")
    print("env " + json.dumps(env))
    for name, s in e2e.items():
        print(f"  {name:<12} {s['value']:.6g}  (median {s['median']:.6g}, quartiles "
              f"{s['q1']:.6g} .. {s['q3']:.6g}, min {s['min']:.6g}, n={s['n']})")
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"  {'failed_share':<12} {failed}/{attempted} = {failed / attempted:.6g}")
    for run in runs:
        if run.get("error"):
            print(f"  FAILED: {run['error']}")
    if probe_result:
        outcome = "ok" if probe_result["ok"] else f"FAILED ({probe_result['error']})"
        rss = probe_result["peak_rss_mb"]
        print(f"probe {probe_result['command']} under a {PROBE_CAP_MB} MB address-space cap: "
              f"{outcome} after {probe_result['elapsed_s']:.1f} s, "
              f"peak RSS {'unknown' if rss is None else f'{rss:.0f} MB'}")
    if args.trace:
        absent = sorted({a for r in runs for a in r.get("absent", ())})
        print(f"  absent spans: {', '.join(absent) or 'none'}")
        for name, unit in layer_units.items():
            if name in layers:
                print(f"  {name:<48} {layers[name]:.6g} {unit}")
    if missing:
        print(f"  NOT MEASURED: {', '.join(missing)}")
    print(f"result {result_path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sinklimit" / "cli.py").is_file():
        sys.exit(f"perfbench: no sinklimit sources under {ROOT / 'src'}")
    e2e_units, layer_units = declared_metrics()

    started = time.monotonic()
    env = environment(args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe_result = None
    try:
        warm_up = set_up(args.workload, args.seed, workdir, HARD_LIMIT_S)
        if args.workload == PROBE_WORKLOAD:
            probe_result = probe(args.seed, workdir)
        runs, setups = run_loop(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(runs, [s for s in setups if s is not None])
    layers = per_layer(runs) if args.trace else {}
    values, units = (layers, layer_units) if args.trace else (
        {name: v["value"] for name, v in e2e.items()}, e2e_units)
    # A metric no run measured is left out, and the result is not correct.
    missing = sorted(set(units) - set(values))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failed_setups = [warm_up, *setups].count(None)

    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "elapsed_s": time.monotonic() - started,
            "env": env,
            "end_to_end": e2e,
            "failed_share": failed / attempted,
            "warm_up_s": warm_up,
            "setups": setups,
            "probe": probe_result,
            "metrics": metrics,
            "runs": runs,
        }, fh, indent=1, default=float)
    report(args, env, runs, probe_result, e2e, layers, layer_units, missing, result_path)
    if failed_setups:
        print(f"FAILED: {failed_setups} set-up-only children")
    correct = not missing and not failed_setups and not any(r.get("error") for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": failed, "metrics": metrics},
                     default=float))


if __name__ == "__main__":
    main()
