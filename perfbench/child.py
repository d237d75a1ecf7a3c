"""One measured run, in a fresh process: set up, run the workload command once.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR RECORD
        [--trace | --setup-only | --probe CAP_MB]

Set-up imports `sinklimit` from the checkout's `src/` and writes the seeded
inputs into WORKDIR.  The run is one `sinklimit.cli.main` call.  The record
written to RECORD holds the monotonic clock reading at ready, the wall time
of the call, its exit code or exception, the process's own peak RSS and CPU
times, the time of the workload's reference task (`reference.py`) just
before and just after the call, and the spans when traced.  `--setup-only`
stops at ready.  `--probe` runs `hit` on the inputs instead, with the
address space capped at CAP_MB and written files capped as well, and
without the reference task.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import sinklimit.cli  # noqa: E402  (set-up cost the user pays)

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_FILE_CAP = 256 * 2**20


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("record")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", type=int, metavar="CAP_MB")
    args = parser.parse_args()

    argv = workloads.prepare(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        with open(args.record, "w") as fh:
            json.dump({"ready": ready}, fh)
        return
    if args.probe:
        argv = workloads.probe_argv(args.workdir)
        cap = args.probe * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        resource.setrlimit(resource.RLIMIT_FSIZE, (PROBE_FILE_CAP, PROBE_FILE_CAP))
    else:
        import reference  # after ready: building its inputs is no set-up of the program
        ref_before = reference.seconds(workloads.REFERENCE[args.workload])
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    code, error = None, None
    start = time.perf_counter()
    try:
        code = sinklimit.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the record reports it; the parent counts the failure
        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = (f"{type(exc).__name__} in {Path(where.filename).name}:{where.name}"
                 + (f": {exc}"[:400] if str(exc) else ""))
        traceback.print_exc()
    wall = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {"ready": ready, "wall_s": wall, "exit_code": code, "error": error,
              "maxrss_kb": usage.ru_maxrss, "user_s": usage.ru_utime, "sys_s": usage.ru_stime}
    if not args.probe:
        record["ref_before_s"] = ref_before
        record["ref_after_s"] = reference.seconds(workloads.REFERENCE[args.workload])
    if tracer:
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
        record["absent"] = sorted(tracer.absent)
    with open(args.record, "w") as fh:
        json.dump(record, fh, default=float)


if __name__ == "__main__":
    main()
