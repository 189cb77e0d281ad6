"""Benchmark of the ``bounds`` toolkit on the example network.

    python3 bench/run.py --workload analyze-couple --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  One process, one client, closed loop:
operations (ops.py) run back to back for ``--seconds`` seconds, mostly the
workload's own two at full size, interleaved with the other two at a small
size so that every run reports every end-to-end metric; a command's figure
is full size only on the workload that repeats it.  Set-up and the first,
cold operation are timed in this process and in fresh interpreters started
at even intervals within those seconds.
``--trace 1`` also replays every operation stage by stage under spans
(tracing.py) and reports the per-layer metrics instead.  The metric names
and units come from BENCHMARK.json; README.md says what each workload and
metric is for.

The last line of stdout is the result as one JSON object.  A record of the
run (machine, versions, every sample) goes to bench/results/.
"""

import os

# single-threaded BLAS/OpenMP: set before numpy is first imported
BLAS_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# each workload repeats its operations (ops.py) at full size, in this order
WORKLOADS = {"analyze-couple": ("analyze", "couple"),
             "truncate-cme": ("truncate", "network-cme")}
KINDS = tuple(kind for kinds in WORKLOADS.values() for kind in kinds)

SMALL_SHARE = 0.25    # share of the timed loop for the small operations
FRESH_PROCESSES = 5   # fresh interpreters per untraced run, spread over it
# Times are scaled to the speed at which speed_probe() takes PROBE_REF_S
# seconds, about its time on the host this was tuned on (see README.md).
PROBE_LOOPS = 150_000
PROBE_REF_S = 0.018
# share of a run's probes, fastest first, that set its speed: the slowest
# tenth caught a one-off stall (a collection, a page fault), not the speed
PROBE_KEEP = 0.9

# per-command end-to-end metrics: metric -> (operation, command)
COMMAND_METRICS = {
    "analyze_s": ("analyze", "analyze"),
    "build_s": ("analyze", "build"),
    "verify_s": ("analyze", "verify"),
    "plan_s": ("truncate", "plan"),
    "truncate_s": ("truncate", "truncate"),
    "heatmap_s": ("truncate", "heatmap"),
    "network_cme_s": ("network-cme", "network_cme"),
}

_FRESH = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
          "run.fresh_child(*sys.argv[2:])")


class Session:
    """One process's benchmark state: the fixture, the reference outputs
    and the count of operations run.  Creating it is the set-up: import,
    input parsing, fixture build."""

    def __init__(self, work: Path, seed: int, trace: bool):
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import ops
        self.fixture = ops.setup(work)
        self.setup_s = time.perf_counter() - t0
        self.ops, self.work, self.seed = ops, work, seed
        self.count = self.full = 0
        self.probes = []    # speed_probe() seconds, one before each operation
        self.reference = json.loads((BENCH / "reference.json").read_text())
        self.tracer = None
        if trace:
            import tracing
            self.tracing, self.tracer = tracing, tracing.Tracer()

    def attempt(self, kind: str, size: str):
        # the i-th full-size operation draws its seeds from seed*10_000+100*i
        # on; small operations all use the same ones, so that only the
        # workload's own operations take input from the workload seed
        seed = self.seed * 10_000 + 100 * self.full if size == "full" else 0
        self.full += size == "full"
        self.probes.append(speed_probe())
        wd = self.work / f"op{self.count}"
        wd.mkdir()
        op = self.ops.execute(kind, size, self.fixture, wd, seed)
        self.ops.check(op, self.reference)
        if self.tracer is not None:
            self.tracing.trace(self.tracer, op, self.count, self.fixture, wd,
                               seed)
        shutil.rmtree(wd)
        self.count += 1
        return op


def speed_probe() -> float:
    """Seconds of a fixed pure-Python loop: how fast the machine runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def fresh_child(work: str, workload: str, seed: str) -> None:
    """Body of a new interpreter: set-up, then the first operation."""
    session = Session(Path(work), int(seed), trace=False)
    first = session.attempt(WORKLOADS[workload][0], "full")
    print(json.dumps({"setup_s": session.setup_s,
                      "first_op_s": first.total_s, "errors": first.errors}))


def fresh_start(work: Path, workload: str, seed: int) -> dict:
    """Set-up and first-operation seconds as a new process sees them."""
    work.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _FRESH, str(BENCH), str(work), workload,
         str(seed)],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(done.stdout.splitlines()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    return statistics.fmean(values) if values else None


def run_record(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "blas_threads": BLAS_THREADS,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources and the example network."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [ROOT / "docs/examples/network.json"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(args, session, main_ops, small_ops, fresh) -> tuple:
    """The end-to-end metrics and the samples behind each."""
    by_kind = {kind: [op for op in main_ops + small_ops if op.kind == kind]
               for kind in KINDS}
    attempted, failed = tally(main_ops + small_ops, fresh)
    samples = {
        "setup_s": [session.setup_s] + [f["setup_s"] for f in fresh],
        "first_op_s": ([main_ops[0].total_s]
                       + [f["first_op_s"] for f in fresh]),
        "peak_rss_mib": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0],
        "ok_frac": [(attempted - failed) / attempted],
    }
    values = {k: median(v) for k, v in samples.items()}
    # The host's speed changes by up to 1.5x within seconds and for minutes
    # at a time (see README.md).  So times are means over the whole run
    # rather than medians, which jump between the speeds, and every time is
    # scaled by PROBE_REF_S over the run's mean probe time, which takes out
    # the speed the machine happened to run at during the run.
    probes = sorted(session.probes)
    kept = probes[:max(1, int(PROBE_KEEP * len(probes)))]
    scale = PROBE_REF_S / mean(kept)
    values["setup_s"] *= scale
    values["first_op_s"] = mean(samples["first_op_s"]) * scale
    for metric, (kind, command) in COMMAND_METRICS.items():
        samples[metric] = [t for op in by_kind[kind]
                           for t in op.seconds.get(command, ())]
        values[metric] = mean(samples[metric]) * scale
    couple = [op for op in by_kind["couple"] if op.out]
    for metric, work, command in (
            ("coupled_jumps_per_s", "jumps", "couple"),
            ("exit_paths_per_s", "samples", "simulate")):
        samples[metric] = [op.out[work] / sum(op.seconds[command])
                           for op in couple]
        values[metric] = (sum(op.out[work] for op in couple)
                          / sum(sum(op.seconds[command]) for op in couple)
                          / scale if couple else None)
    samples["speed_probe_s"] = session.probes
    return values, samples


def tally(ops_run, fresh) -> tuple:
    """(attempted, failed) over the operations of this and fresh processes."""
    attempted = len(ops_run) + len(fresh)
    failed = (sum(1 for op in ops_run if op.errors)
              + sum(1 for f in fresh if f["errors"]))
    return attempted, failed


def per_layer(args, main_ops, small_ops) -> tuple:
    """Per-layer metrics: medians over the workload's own operations, or,
    for a layer its operation does not touch, over the small operations."""
    order = [main_ops] + [[op for op in small_ops if op.kind == kind]
                          for kind in KINDS]
    names = {name for op in main_ops + small_ops for name in op.layers}
    samples = {}
    for name in sorted(names):
        for group in order:
            values = [op.layers[name] for op in group if name in op.layers]
            if values:
                samples[name] = values
                break
    return {k: median(v) for k, v in samples.items()}, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not ((SRC / "boundchain" / "__init__.py").is_file()
            and (ROOT / "docs/examples/network.json").is_file()
            and spec_path.is_file()):
        print(f"bench: {ROOT} is not a boundchain checkout (need src/, "
              f"docs/examples/network.json and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    (BENCH / ".work").mkdir(exist_ok=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    origin = time.perf_counter()

    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        work = Path(tmp)
        session = Session(work, args.seed, bool(args.trace))
        own = WORKLOADS[args.workload]
        small_s = {kind: 0.0 for kind in KINDS if kind not in own}
        main_ops, small_ops, fresh = [], [], []
        # fresh interpreters start at even intervals over the run, so that
        # their samples see the same stretch of machine time as the rest
        fresh_at = ([] if args.trace else
                    [args.seconds * (i + 1) / (FRESH_PROCESSES + 1)
                     for i in range(FRESH_PROCESSES)])
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            left = args.seconds - elapsed
            if main_ops and fresh_at and elapsed >= fresh_at[0]:
                fresh_at.pop(0)
                fresh.append(fresh_start(work / f"fresh{len(fresh)}",
                                         args.workload, args.seed))
                continue
            untried = [kind for kind in small_s
                       if all(op.kind != kind for op in small_ops)]
            if main_ops and not untried and left <= 0:
                break
            # small operations take SMALL_SHARE of the time, shared evenly
            # by kind and spread over the run, so that their figures see
            # the same machine as the rest; a round of the workload's own
            # operations that would end past the deadline gives way to
            # small ones
            main_s = sum(op.total_s for op in main_ops)
            spent = sum(small_s.values())
            rounds = len(main_ops) // len(own)
            if not main_ops or (spent >= SMALL_SHARE * (main_s + spent)
                                and left > main_s / rounds):
                main_ops += [session.attempt(kind, "full") for kind in own]
            else:
                kind = untried[0] if untried else min(small_s,
                                                      key=small_s.get)
                op = session.attempt(kind, "small")
                small_ops.append(op)
                small_s[kind] += op.total_s
        for _ in fresh_at:      # runs shorter than one round
            fresh.append(fresh_start(work / f"fresh{len(fresh)}",
                                     args.workload, args.seed))

    if args.trace:
        values, samples = per_layer(args, main_ops, small_ops)
    else:
        values, samples = end_to_end(args, session, main_ops, small_ops,
                                     fresh)
    attempted, failed = tally(main_ops + small_ops, fresh)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"bench: no value for {missing}", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if session.tracer is not None:
        session.tracer.dump(results / f"{stem}-spans.json", origin)
    record = {
        "run": run_record(args),
        "metrics": values,
        "samples": samples,
        "operations": [{"kind": op.kind, "size": op.size,
                        "seconds": op.seconds, "errors": op.errors,
                        "layers": op.layers}
                       for op in main_ops + small_ops],
        "fresh_processes": fresh,
    }
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for op in main_ops + small_ops:
        for error in op.errors:
            print(f"FAILED {op.kind}/{op.size}: {error}")
    for f in fresh:
        for error in f["errors"]:
            print(f"FAILED {args.workload}/full in a fresh process: {error}")
    for m in wanted:
        n = len(samples[m["name"]])
        print(f"{m['name']:32s} {values[m['name']]:14.6g} {m['unit']:6s} "
              f"({n} samples)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
