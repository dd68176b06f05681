"""kdvgauge benchmark: time-to-verdict of `kdvgauge run` on generated configs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh process that enters the public CLI
(`kdvgauge.cli.main`) with a config generated from --seed.  Processes run one
at a time from this single process, with BLAS/OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics: run_s (dispatch to main()
returning, mean over the full runs), setup_s (spawn to dispatch, median over
full runs plus set-up probes that stop at dispatch), peak_rss_mb (median),
and pass_rate (1 - failed/attempted).
--trace 1 alternates untraced and traced runs and prints the per-layer
metrics of the traced ones (see tracer.py).

Every run is gated: exit code 0, every verdict PASS, the workload's bounds
pinned in tests/, and outputs byte-identical across the runs of this
invocation.  A copy of the hypothesis-violating config from tests/test_cli.py
runs first and must be counted as failed.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import layer_metrics
from workloads import NEGATIVE_CONTROL, WORKLOADS, common_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
# an invocation ends within 180 s: no process starts after 150 s, and a
# hung one is killed at 170 s
HARD_LIMIT_S = 150.0
KILL_AFTER_S = 170.0
MIN_FULL_RUNS = 2  # the digest check needs a repeat
MIN_PROBES = 2


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_rate", ".share", ".overhead", ".slice_reuse")):
        return "ratio"
    return "count"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def steal_ticks():
    """(steal, total) jiffies of the aggregate cpu line; read only."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
        "blas_threads": BLAS_THREADS,
        "load": "one benchmark process; kdvgauge runs one at a time",
    }


def digest(outdir):
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class Sample:
    """One finished kdvgauge process and what was measured from it."""

    def __init__(self, mode, config, exit_code, spawned, wall_s, stamps, directory):
        self.mode = mode
        self.config = config
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.stamps = stamps
        self.outdir = directory / "out"
        self.spans = directory / "spans.json"
        self.setup_s = stamps["dispatch"] - spawned if "dispatch" in stamps else None
        self.run_s = (stamps["end"] - stamps["dispatch"]
                      if "dispatch" in stamps and "end" in stamps else None)
        self.problems = []


class Bench:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.template, self.gate = WORKLOADS[name]
        self.workdir = WORK / f"{name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.config = self.workdir / "workload.cfg"
        self.config.write_text(self.template.format(seed=seed), encoding="utf-8")
        self.env = child_env()
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.count = 0
        self.digests = {}  # config path -> digest of its first run's outputs

    def fits(self, estimate):
        return time.monotonic() + estimate <= min(self.deadline, self.hard_deadline)

    def spawn(self, mode, config=None):
        config = config or self.config
        self.count += 1
        directory = self.workdir / f"{self.count:03d}-{mode}"
        directory.mkdir()
        stamp_path = directory / "stamps.json"
        cmd = [sys.executable, str(CHILD), mode, str(stamp_path), str(directory / "spans.json"),
               "--", "run", str(config), "-o", str(directory / "out")]
        timeout = max(5.0, self.start + KILL_AFTER_S - time.monotonic())
        with open(directory / "stdout.txt", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - spawned
        try:
            stamps = json.loads(stamp_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            stamps = {}
        sample = Sample(mode, config, code, spawned, wall, stamps, directory)
        sample.problems = self.check(sample)
        print(f"{self.name} {mode}: wall {wall:.3f} s, setup_s {sample.setup_s}, "
              f"run_s {sample.run_s}, problems {sample.problems}", file=sys.stderr)
        return sample

    def check(self, sample):
        """Why a run counts as failed; empty when it passed."""
        if sample.exit_code != 0:
            return [f"exit code {sample.exit_code}"]
        if sample.setup_s is None or "end" not in sample.stamps:
            return ["process never reached experiment dispatch"]
        if sample.mode == "probe":
            return ["probe wrote outputs"] if sample.outdir.exists() else []
        try:
            problems = common_problems(sample.outdir) + self.gate(sample.outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable outputs: {exc!r}"]
        found = digest(sample.outdir)
        if self.digests.setdefault(sample.config, found) != found:
            problems.append("outputs differ from an earlier run of this seed")
        return problems

    def negative_control(self):
        """True when the hypothesis-violating config is counted as failed."""
        config = self.workdir / "negative_control.cfg"
        config.write_text(NEGATIVE_CONTROL, encoding="utf-8")
        sample = self.spawn("run", config)
        return sample.exit_code == 2 and bool(sample.problems)


def untraced(bench):
    full = []
    while len(full) < MIN_FULL_RUNS or bench.fits(
            max(s.wall_s for s in full) + MIN_PROBES * max(s.setup_s or 1.0 for s in full)):
        full.append(bench.spawn("run"))
    probes = []
    while len(probes) < MIN_PROBES or bench.fits(max(p.wall_s for p in probes)):
        probes.append(bench.spawn("probe"))
    samples = full + probes
    failed = sum(1 for s in samples if s.problems)
    ok = [s for s in full if not s.problems]
    setups = [s.setup_s for s in samples if not s.problems]
    metrics = {}
    if ok:
        # mean, not median: with two to five runs a window and throughput
        # that shifts in phases of tens of seconds, the median jumps between
        # phases while the mean moves with the share of time spent in each
        metrics["run_s"] = statistics.fmean(s.run_s for s in ok)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = statistics.median(s.stamps["maxrss_kb"] / 1024.0 for s in ok)
    metrics["pass_rate"] = 1.0 - failed / len(samples)
    return samples, failed, metrics


def traced(bench):
    pairs = []
    while not pairs or bench.fits(pairs[-1][0].wall_s + pairs[-1][1].wall_s):
        pairs.append((bench.spawn("run"), bench.spawn("trace")))
    samples = [s for pair in pairs for s in pair]
    failed = sum(1 for s in samples if s.problems)
    per_pair = []
    for ref, tr in pairs:
        if ref.problems or tr.problems:
            continue
        with open(tr.spans, encoding="utf-8") as fh:
            m = layer_metrics(json.load(fh), tr.run_s)
        m["experiments.write_report.bytes"] = sum(
            p.stat().st_size for p in tr.outdir.rglob("*") if p.is_file())
        m["cli.import_s"] = ref.stamps["import_s"]
        m["process.cpu_s"] = ref.stamps["cpu_s"]
        m["trace.run_s"] = tr.run_s
        m["trace.overhead"] = tr.run_s / ref.run_s - 1.0
        per_pair.append(m)
    metrics = {}
    if per_pair:
        metrics = {k: statistics.median(m[k] for m in per_pair) for k in per_pair[0]}
    metrics["fail_rate"] = failed / len(samples)
    return samples, failed, metrics


def declared_units(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kdvgauge" / "cli.py").is_file():
        print(f"no kdvgauge sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    units = declared_units(args.trace)

    env = environment()
    steal_before = steal_ticks()
    bench = Bench(args.workload, args.seed, args.seconds, args.trace)
    control_ok = bench.negative_control()
    samples, failed, metrics = (traced if args.trace else untraced)(bench)
    steal_after = steal_ticks()
    if steal_before and steal_after:
        env["steal_ticks"] = [steal_before[0], steal_after[0]]
        total = steal_after[1] - steal_before[1]
        env["steal_share"] = (steal_after[0] - steal_before[0]) / total if total else 0.0
    env["samples"] = [
        {"mode": s.mode, "wall_s": s.wall_s, "setup_s": s.setup_s, "run_s": s.run_s,
         "problems": s.problems} for s in samples]
    env["negative_control_counted_failed"] = control_ok
    (bench.workdir / "env.json").write_text(json.dumps(env, indent=2), encoding="utf-8")
    print("env " + json.dumps(env), file=sys.stderr)

    undeclared = [k for k in metrics if units.get(k) != unit_of(k)]
    missing = sorted(set(units) - set(metrics))
    if undeclared or missing:
        print(f"metrics not matching BENCHMARK.json: printed {undeclared}, "
              f"missing {missing}", file=sys.stderr)
    correct = failed == 0 and control_ok and not undeclared and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
