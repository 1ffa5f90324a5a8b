"""thermoqm benchmark: closed-loop workloads through ``thermoqm.cli.execute``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-transfer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One client runs the workload's ops one after another (workers=1; each op
starts when the previous one returns), pass after pass, for --seconds.  With
--trace 0 it prints the end-to-end metrics of a mean pass (each op at its
mean over the run) and set-up time from fresh processes, all times at
reference host speed (see reference_kernel); with --trace 1 it alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones, in plain seconds.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

thermoqm is imported from src/ of the checkout and nowhere else; without it
the benchmark exits non-zero and prints no result.
"""

import os
import sys

# Pin BLAS threads before numpy is imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7  # fresh processes timed for setup_s
SETUP_REFS = 3  # reference kernel runs between set-up probes
MIN_PASSES = 3  # untraced passes (trace pairs: 2) even when one pass outlasts --seconds
# Untraced passes run the short probe ops this many times, for enough samples
# behind their means; each op still counts once in the mean pass.
PROBE_REPEATS = 2
# Seconds the reference kernel takes at reference host speed: its median on
# the 2-vCPU Xeon (2.0 GHz) VM the seed baseline was recorded on.
REF_SECONDS = 0.0196

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "mc_steps_per_s": "steps/s",
    "pressure_s": "s", "sigma2_s": "s", "words_per_s": "words/s",
}


def import_cli():
    """thermoqm.cli from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "thermoqm", "__init__.py")):
        raise SystemExit(f"benchmark: no thermoqm sources under {SRC}")
    sys.path.insert(0, SRC)
    from thermoqm import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: thermoqm imported from {cli.__file__}, not {SRC}")
    return cli


def environment():
    """The machine and library versions every number is tied to."""
    import numpy
    import scipy

    def first(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "workers": 1,
    }


# -- host speed ---------------------------------------------------------------

_REF = {}


def _reference_body(np, m, p, q, u, c, big):
    s = 0
    for i in range(40000):
        s += i * i
    np.random.Generator(np.random.Philox(7)).random(out=u)
    np.cumsum(u, out=c)
    for _ in range(4):
        np.multiply(big, 1.0, out=big)
    np.copyto(p, m)
    for _ in range(12):
        np.matmul(m, p, out=q)
        np.divide(q, q.max(), out=p)
        np.matmul(m, p, out=q)
        np.copyto(p, q)


def reference_kernel():
    """Run a fixed mix of interpreter loop, Philox uniforms with a prefix sum,
    a stream over 16 MB and small BLAS products, on buffers allocated once;
    return its wall seconds.

    On a shared 2-vCPU VM the speed of the same code drifts by up to 2x for
    seconds to minutes (vCPU steal and contention from other guests), so the
    summed op times of runs of the same commit spread by up to half their
    median.  The kernel runs before and after every timed op, so its runs
    sample the host's speed all through the run.  Each metric's summed op
    time is rescaled by REF_SECONDS over the kernel's mean time next to those
    ops (two runs before and two after each), weighted by their run times
    (see at_reference_speed): the time the ops would take at the host speed
    at which the kernel takes REF_SECONDS.  In two noisy hours (3-5 runs of
    25 s per workload) this cut the quartile spread of the summed op time
    from 0.10-0.30 to 0.01-0.17 of the median; one factor per run, per-op
    factors or medians did worse.  When the host is quiet and plain times
    spread by under 0.05, the kernel's own drift can widen the spread (up to
    0.16 seen).  The kernel is the benchmark's own code and allocates
    nothing large, so no change to thermoqm moves it."""
    import numpy as np

    if not _REF:
        _REF["args"] = (np, np.random.default_rng(0).random((128, 128)), np.empty((128, 128)),
                        np.empty((128, 128)), np.empty(1 << 18), np.empty(1 << 18),
                        np.ones(1 << 21))
        _reference_body(*_REF["args"])  # fault the buffers in, untimed
    t = time.perf_counter()
    _reference_body(*_REF["args"])
    return time.perf_counter() - t


def at_reference_speed(names, op_times, op_refs):
    """Summed mean time of the named ops at reference host speed.  op_refs
    holds, for each run of an op, the mean time of the kernel runs next to
    it."""
    total = sum(statistics.fmean(op_times[n]) for n in names)
    busy = sum(dt for n in names for dt in op_times[n])
    ref = sum(dt * r for n in names for dt, r in zip(op_times[n], op_refs[n]))
    return total * REF_SECONDS * busy / ref if ref else total


# -- set-up -------------------------------------------------------------------


def setup(workload, seed, tiny):
    """Import thermoqm and build the workload's ops, SFTs, chains and oracles."""
    cli = import_cli()
    ops = workloads.workload_ops(workload, seed, smoke=tiny)
    fixtures = workloads.build_fixtures(ops)
    return cli, ops, fixtures


def time_setup(args, probes):
    """Median over fresh processes of the time from process start until set-up
    is done (interpreter start-up included), at reference host speed (times
    REF_SECONDS over the median of the kernel runs between probes); and the
    plain times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times, refs = [], [reference_kernel() for _ in range(SETUP_REFS)]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line != "ready":
            raise SystemExit(f"benchmark: set-up probe failed ({proc.returncode}, {line!r})")
        refs += [reference_kernel() for _ in range(SETUP_REFS)]
        times.append(dt)
    return statistics.median(times) * REF_SECONDS / statistics.median(refs), times


# -- passes -------------------------------------------------------------------


def run_pass(cli, ops, out_root, probe_repeats=1, refs=None):
    """One closed-loop pass, the probe block run probe_repeats times; returns
    (wall seconds, [(op, code, summary, digest, seconds)]).  Each digest is
    taken right after its op returns, before a repeat overwrites the op's
    artifacts, and outside the op's time.  With a refs list, the reference
    kernel runs at the start and after each op, outside the pass's wall time;
    its times are appended to refs, and each row ends with the index in refs
    of the kernel run right after its op (else with None)."""
    probes = [op for op in ops if op.probe]
    sequence = probes * probe_repeats + [op for op in ops if not op.probe]
    gc.collect()
    rows = []
    hashing = 0.0
    start = time.perf_counter()
    if refs is not None:
        t = time.perf_counter()
        refs.append(reference_kernel())
        hashing += time.perf_counter() - t
    for op in sequence:
        out_dir = os.path.join(out_root, op.name)
        t = time.perf_counter()
        try:
            code, summary = cli.execute(op.op, op.cfg, out_dir)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            code, summary = None, {"error": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - t
        t = time.perf_counter()
        # raised, invalid input or resource limit: no result to digest
        d = workloads.digest(op, summary, out_dir) if code in (0, 1) else None
        ref_at = None
        if refs is not None:
            ref_at = len(refs)
            refs.append(reference_kernel())
        hashing += time.perf_counter() - t
        rows.append((op, code, summary, d, dt, ref_at))
    return time.perf_counter() - start - hashing, rows


def mean_pass(op_times, ops, op_refs=None):
    """End-to-end metrics of a pass with each op at its mean time; with
    op_refs, at reference host speed."""
    def total(names):
        if op_refs is None:
            return sum(statistics.fmean(op_times[n]) for n in names)
        return at_reference_speed(names, op_times, op_refs)

    by = {k: total([op.name for op in ops if op.klass == k])
          for k in ("pressure", "variance", "mc", "words")}
    steps = sum(op.steps for op in ops)
    words = sum(op.expect_count for op in ops if op.klass == "words")
    return {
        "wall_s": total([op.name for op in ops]),
        "pressure_s": by["pressure"],
        "sigma2_s": by["variance"],
        "mc_steps_per_s": steps / by["mc"] if by["mc"] else 0.0,
        "words_per_s": words / by["words"] if by["words"] else 0.0,
    }


class Verdicts:
    """Op outcomes over all passes: failures, benchmark-side checks, digests.

    Each distinct op counts once in attempted, and once in failed if any of
    its runs failed, so that neither count depends on how many passes fit
    into --seconds."""

    def __init__(self, fixture_checks):
        self.problems = [f"fixture check failed: {n} ({d})" for n, ok, d in fixture_checks if not ok]
        self.digests = {}
        self.codes = {}
        self.times = {}
        self.ref_at = {}  # index of the reference kernel run after each run (untraced passes)

    @property
    def attempted(self):
        return len(self.codes)

    @property
    def failed(self):
        return sum(any(c != 0 for c in codes) for codes in self.codes.values())

    def add(self, rows):
        for op, code, summary, d, dt, ref in rows:
            self.codes.setdefault(op.name, []).append(code)
            self.times.setdefault(op.name, []).append(dt)
            if ref is not None:
                self.ref_at.setdefault(op.name, []).append(ref)
            if d is None:
                self.problems.append(f"{op.name}: exit {code}: {summary.get('error')}")
                continue
            for name, ok, detail in workloads.op_checks(op, summary):
                if not ok:
                    self.problems.append(f"{op.name}: {name} ({detail})")
            first = self.digests.setdefault(op.name, d)
            if d != first:
                self.problems.append(f"{op.name}: digest changed between runs")

    def report(self):
        for name, codes in self.codes.items():
            bad = sum(c != 0 for c in codes)
            print(f"op {name:34s} exit {codes[0]!s:4s} failed {bad}/{len(codes)} "
                  f"mean {statistics.fmean(self.times[name]):.4f} s "
                  f"digest {self.digests.get(name, '-')}")
        for p in self.problems:
            print(f"CHECK FAILED {p}")
        frac = self.failed / self.attempted if self.attempted else 0.0
        print(f"fail_frac {frac:.6g} ratio ({self.failed}/{self.attempted} distinct ops)")
        combined = json.dumps(self.digests, sort_keys=True)
        print(f"digest_all {hashlib.sha256(combined.encode()).hexdigest()}")


def keep_going(start, seconds, walls, minimum):
    """Closed loop for --seconds: start another pass only if it should end in time."""
    elapsed = time.perf_counter() - start
    return len(walls) < minimum or elapsed + statistics.median(walls) <= seconds


def measure(args, cli, ops, verdicts, out_root):
    start = time.perf_counter()
    walls, refs = [], []
    while not walls or keep_going(start, args.seconds, walls, MIN_PASSES):
        wall, rows = run_pass(cli, ops, out_root, PROBE_REPEATS, refs)
        verdicts.add(rows)
        walls.append(wall)
    # host speed next to each op run: two kernel runs before it and two after
    op_refs = {name: [statistics.fmean(refs[max(0, j - 2):j + 2]) for j in idx]
               for name, idx in verdicts.ref_at.items()}
    print(f"passes {len(walls)} walls {[round(w, 4) for w in walls]}")
    print(f"reference kernel runs {len(refs)} mean {statistics.fmean(refs):.6f} s "
          f"(REF_SECONDS {REF_SECONDS})")
    plain = mean_pass(verdicts.times, ops)
    print("plain seconds " + json.dumps({k: round(v, 6) for k, v in plain.items()}))
    metrics = mean_pass(verdicts.times, ops, op_refs)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def measure_traced(args, cli, ops, verdicts, out_root):
    tracer = spans.Tracer()
    start = time.perf_counter()
    plain, traced, layers, counts, gaps = [], [], [], [], []
    while not traced or keep_going(start, args.seconds, [u + t for u, t in zip(plain, traced)], 2):
        wall, rows = run_pass(cli, ops, out_root)
        verdicts.add(rows)
        plain.append(wall)
        tracer.clear()
        tracer.install()
        try:
            wall, rows = run_pass(cli, ops, out_root)
        finally:
            tracer.uninstall()
        verdicts.add(rows)
        traced.append(wall)
        self_times, claimed = tracer.self_times()
        layers.append(self_times)
        counts.append(dict(tracer.counts))
        gaps.append(wall - claimed)
    tracer.dump(os.path.join(out_root, "spans.jsonl"))
    print(f"pairs {len(traced)} untraced {[round(w, 4) for w in plain]} "
          f"traced {[round(w, 4) for w in traced]}")
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.s"] = (statistics.median(p[layer] for p in layers), "s")
    for key, unit in spans.COUNTERS.items():
        metrics[key] = (statistics.median_low(c[key] for c in counts), unit)
    metrics["sft.words.bytes_per_word"] = (spans.bytes_per_word(tracer.largest_words), "B/word")
    # Each traced pass runs right after its untraced twin, so the pair shares
    # most of the outside load that moves single passes.
    metrics["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced, plain)), "s")
    metrics["trace.unaccounted_s"] = (statistics.median(gaps), "s")
    return metrics


def run(args):
    t0 = time.perf_counter()
    cli, ops, fixtures = setup(args.workload, args.seed, args.tiny)
    print(f"main_setup_s {time.perf_counter() - t0:.4f}")
    print("env " + json.dumps(environment(), sort_keys=True))
    out_root = os.path.join(OUT, args.workload)
    os.makedirs(out_root, exist_ok=True)
    verdicts = Verdicts(workloads.fixture_checks(fixtures))
    if args.trace:
        metrics = measure_traced(args, cli, ops, verdicts, out_root)
    else:
        setup_s, probes = time_setup(args, 1 if args.tiny else SETUP_PROBES)
        print(f"setup_probes_s {[round(p, 4) for p in probes]}")
        values = measure(args, cli, ops, verdicts, out_root)
        values["setup_s"] = setup_s
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    verdicts.report()
    for name, (value, unit) in metrics.items():
        label = " (computed from array sizes)" if name in spans.COMPUTED else ""
        print(f"metric {name} {value!r} {unit}{label}")
    result = {
        "correct": not verdicts.problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


# -- smoke --------------------------------------------------------------------


def smoke():
    """All workloads at tiny sizes, both modes; every metric named in
    BENCHMARK.json must be printed with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            dt = time.perf_counter() - t0
            if proc.returncode != 0:
                bad.append(f"{w['name']} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name, unit in want[trace].items():
                if got.get(name) != unit:
                    bad.append(f"{w['name']} trace={trace}: {name} missing or not in {unit}")
            extra = sorted(set(got) - set(want[trace]))
            if extra:
                bad.append(f"{w['name']} trace={trace}: metrics not in BENCHMARK.json: {extra}")
            print(f"smoke {w['name']:15s} trace={trace} {dt:5.1f} s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} metrics={len(got)}")
    for b in bad:
        print(f"SMOKE FAILED {b}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
