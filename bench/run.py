"""The gausspen benchmark: run a workload through ``gausspen.cli.run`` for a
fixed time, check every output, and print its metrics.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout; it imports gausspen from the
checkout's ``src/`` and fails (exit 2, no result) when that is missing.
Workloads, metrics and tolerances are described in ``bench/README.md``.
Each metric is printed as ``<workload> <name> = <value> <unit>``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0`` and its per-layer metrics
with ``--trace 1``.  ``--workload all`` runs every workload in turn and
prefixes each metric name with its workload.  A checkout that fails still
gets a result line, with ``correct`` false and the metrics it could not
measure as null.

Standard library only; numpy and gausspen run in the worker processes.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import check
import workloads as W

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
ROUNDS = 5           # fresh pairs of worker processes per run
SLACK_S = 60         # beyond --seconds: set-ups, first repetitions, the last pair
# The seed build's set-up time on the machine the benchmark was written on;
# setup_s is this times the median checkout / seed-build set-up ratio.
SEED_SETUP_S = 0.9
# Single-threaded BLAS, so a run is not at the mercy of the other core's
# load; one string-hash seed, so dict and set layouts repeat across runs; and
# a malloc that keeps the memory it frees.  With glibc's defaults, whether a
# freed temporary at the top of the heap goes back to the OS, to be faulted
# in again by the next repetition, depends on the heap layout of the process:
# about one scan process in three ran 2.5 times slower for its whole life.
# The workers also all run on one CPU (see pin_cpu).
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0",
          "GLIBC_TUNABLES": "glibc.malloc.trim_threshold=1073741824"
                            ":glibc.malloc.mmap_threshold=33554432"}


def pin_cpu():
    """Keep this process and the workers it starts on one CPU, the lowest
    this process may use.  The workers are single-threaded and never run at
    the same time, so they lose nothing; but the two sides of a pair then
    always share one core, whose speed the pair's ratio cancels, where
    unpinned workers settle on different cores and their ratio carries the
    difference between the cores.  Returns the CPU and how many there were."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return {"cpu": min(cpus), "nproc": len(cpus)}


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class CheckoutError(Exception):
    """The checkout's gausspen failed; its operations count as failed."""


class Worker:
    """One ``worker.py`` process, stepped one repetition at a time."""

    def __init__(self, side, work, deadline):
        self.side, self.work, self.deadline = side, work, deadline
        self.log = open(os.path.join(work, f"{side}.log"), "w+")
        self.spawned = monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), side, work],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=dict(os.environ, **PINNED))
        try:
            hello = self._read()
        except (BenchError, CheckoutError):
            self.close()
            raise
        self.env = hello["env"]
        self.setup_s = hello["parsed"] - self.spawned
        self.import_s = hello["imported"] - hello["ready"]
        self.parse_s = hello["parsed"] - hello["imported"]

    def _fail(self, message):
        self.log.seek(0)
        detail = self.log.read().strip()
        message = f"{self.side} worker: {message}" + (f"\n{detail}" if detail else "")
        raise (BenchError if self.side == "seed" else CheckoutError)(message)

    def _read(self):
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, self.deadline - monotonic()))
        if not ready:
            self._fail("no answer before the run's deadline")
        line = self.proc.stdout.readline()
        if not line:
            self._fail(f"exited with {self.proc.wait()}")
        message = json.loads(line)
        if "error" in message:
            self._fail(message["error"])
        return message

    def ask(self, command):
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self._fail(f"exited with {self.proc.wait()}")
        return self._read()

    def run(self, out, keep=False, probe=False):
        return self.ask({"run": out, "keep": keep, "probe": probe})

    def close(self, spans=None):
        """Stop the worker; the tracer totals of a traced one."""
        totals = None
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"quit": spans}) + "\n")
                self.proc.stdin.flush()
                if self.side == "traced":
                    totals = self._read()
        except (OSError, ValueError, BenchError, CheckoutError):
            pass  # it is stopped below either way
        finally:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
            self.log.close()
        return totals


def measure(name, work, seconds, trace, deadline):
    """Run the workload's rounds; everything the metrics and checks need.

    Each round starts a fresh worker for each side, one after the other (the
    order alternates), and times its set-up and its run of the probe
    configs: the cold samples.  Then, for its share of ``seconds``, it runs
    back-to-back pairs of repetitions of the workload, alternating which side
    goes first: the hot samples.  The sides are the checkout and the seed
    build, or with ``trace`` the checkout untraced and traced.
    """
    sides = ("new", "traced") if trace else ("new", "seed")
    got = {"hot": {s: [] for s in sides}, "cold": {s: [] for s in sides},
           "setup": {s: [] for s in sides}, "import": [], "parse": [], "rss": [],
           "digests": [], "layers": {}, "traced_reps": 0, "env": None, "error": None}
    try:
        if trace:  # the seed build's output, for the checks
            seed = Worker("seed", work, deadline)
            try:
                seed.run("seed-r0-0", keep=True)
            finally:
                seed.close()
        for rnd in range(ROUNDS):
            order = sides if rnd % 2 == 0 else sides[::-1]
            workers = {}
            try:
                for side in order:
                    worker = workers[side] = Worker(side, work, deadline)
                    probe = worker.run(f"{side}-r{rnd}-probe", probe=True)
                    got["cold"][side].append(worker.setup_s + probe["time"])
                    got["setup"][side].append(worker.setup_s)
                    got["env"] = got["env"] or worker.env
                    if side != "seed":
                        got["import"].append(worker.import_s)
                        got["parse"].append(worker.parse_s)
                round_end = monotonic() + seconds / ROUNDS
                rep = 0
                while rep < 2 or monotonic() < round_end:
                    for side in order if rep % 2 == 0 else order[::-1]:
                        answer = workers[side].run(f"{side}-r{rnd}-{rep}",
                                                   keep=rnd == 0 and rep == 0)
                        got["hot"][side].append(answer["time"])
                        if side != "seed":
                            got["digests"].append(answer["digest"])
                        if side == "new" and rep == 0:
                            got["rss"].append(answer["peak_rss_mb"])
                    rep += 1
            finally:
                for side, worker in workers.items():
                    totals = worker.close(os.path.join(WORK, f"spans-{name}-r{rnd}.csv")
                                          if side == "traced" else None)
                    if totals:
                        add_layers(got["layers"], totals["layers"])
                        got["traced_reps"] += totals["repetitions"]
    except CheckoutError as exc:
        got["error"] = str(exc)
    return got


def add_layers(total, layers):
    """Add one traced worker's span totals into ``total``."""
    for span, stats in layers.items():
        into = total.setdefault(span, {})
        for key, value in stats.items():
            into[key] = into.get(key, 0.0) + value


def environment():
    src = os.path.join(ROOT, "src", "gausspen")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"cpu_count": os.cpu_count(), "git_sha": sha, "src_sha256": digest.hexdigest(),
            "jobs": 1, **PINNED}


def layer_values(layers, repetitions):
    """Per-layer metric values, means per traced repetition, keyed like
    BENCHMARK.json."""
    values = {f"{span}.{key}": value / repetitions for span, stats in layers.items()
              for key, value in stats.items()}

    def ratio(a, b):
        return values.get(a, 0.0) / values[b] if values.get(b) else 0.0

    values["regression.fit.evals_per_iter"] = ratio("regression.fit.evals",
                                                    "regression.fit.iterations")
    values["regression.fit.converged_ratio"] = ratio("regression.fit.converged",
                                                     "regression.fit.calls")
    values["penalties.grad_array.elems_per_s"] = ratio("penalties.grad_array.elems",
                                                       "penalties.grad_array.self_s")
    values["mlp.forward.gflop_per_s"] = ratio("mlp.forward.gflop", "mlp.forward.self_s")
    return values


def paired_ratio(numerator, denominator):
    """Median over pairs of numerator / denominator time, or None."""
    pairs = [a / b for a, b in zip(numerator, denominator)]
    return statistics.median(pairs) if pairs else None


def median(values):
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace, benchmark, pinned):
    spec = W.WORKLOADS[name](seed)
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        paths, probes = [], []
        for kind, names in (("configs", paths), ("probe", probes)):
            for command, text in spec[kind].items():
                names.append(os.path.join(work, f"{kind}-{command}.cfg"))
                with open(names[-1], "w") as handle:
                    handle.write(text)
        with open(os.path.join(work, "plan.json"), "w") as handle:
            json.dump({"configs": [os.path.basename(p) for p in paths],
                       "probe": [os.path.basename(p) for p in probes]}, handle)
        load_before = os.getloadavg()
        got = measure(name, work, seconds, trace, monotonic() + seconds + SLACK_S)
        load_after = os.getloadavg()
        ops = check.operations(name, spec)
        fails = []
        new, seed_out = os.path.join(work, "new-r0-0"), os.path.join(work, "seed-r0-0")
        if os.path.isdir(new) and os.path.isdir(seed_out):
            fails = check.check(name, spec, new, seed_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every repetition of the checkout, traced or not, must write the same
    # bytes as its first one; one that differs fails all its operations, and
    # a failing checkout fails every operation of the run
    runs, error = got["digests"], got["error"]
    if error:
        print(error, file=sys.stderr)
        attempted = failed = ops * (len(runs) + 1)
    else:
        attempted = ops * len(runs)
        failed = sum(len(fails) if d == runs[0] else ops for d in runs)
    rerun_identical = int(len(runs) >= 2 and len(set(runs)) == 1 and not error)
    correct = failed == 0 and rerun_identical == 1

    new_hot, other_hot = got["hot"]["new"], got["hot"]["traced" if trace else "seed"]
    new_setup = got["setup"]["new"]
    values = {
        "run_s": median(new_hot),
        "peak_rss_mb": median(got["rss"]),
        "setup_raw_s": median(new_setup),
        "import.self_s": median(got["import"]),
        "config.parse_config.self_s": median(got["parse"]),
    }
    if values["run_s"]:
        values["items_per_s"] = spec["items"] / values["run_s"]
    if trace:
        values["trace.overhead_ratio"] = paired_ratio(other_hot, new_hot)
        if got["layers"] and got["traced_reps"]:
            values.update(layer_values(got["layers"], got["traced_reps"]))
            for metric in benchmark["per_layer"]:  # a count never recorded: no such calls
                if metric["name"].rsplit(".", 1)[0] in got["layers"]:
                    values.setdefault(metric["name"], 0.0)
    else:
        values["seed_run_s"] = median(other_hot)
        values["run_ratio"] = paired_ratio(new_hot, other_hot)
        values["cold_ratio"] = paired_ratio(got["cold"]["new"], got["cold"]["seed"])
        values["setup_ratio"] = paired_ratio(new_setup, got["setup"]["seed"])
        if values["setup_ratio"] is not None:
            values["setup_s"] = SEED_SETUP_S * values["setup_ratio"]

    env = dict(got["env"] or {}, **environment(), **pinned, load_before=load_before,
               load_after=load_after, seed=seed, seconds=seconds, trace=int(trace),
               items=spec["items"], config_seeds=spec["seeds"], pairs=len(new_hot),
               rounds=len(got["cold"]["new"]))
    print(f"{name} env {json.dumps(env, sort_keys=True)}")
    for message in sorted(set(fails))[:5] + ([error.splitlines()[-1]] if error else []):
        print(f"{name} FAIL {message}")
    print(f"{name} error_rate = {failed / attempted!r} ratio "
          f"({failed} of {attempted} operations)")
    print(f"{name} rerun_identical = {rerun_identical} bool "
          f"({len(set(runs))} distinct outputs over {len(runs)} repetitions)")
    gated = benchmark["per_layer" if trace else "end_to_end"]
    shown = [("run_s", "s"), ("seed_run_s", "s"), ("items_per_s", "1/s"),
             ("setup_raw_s", "s"), ("setup_ratio", "ratio")]
    for metric, unit in shown + [(metric["name"], metric["unit"]) for metric in gated]:
        if values.get(metric) is not None:
            print(f"{name} {metric} = {values[metric]!r} {unit}")
    if got["layers"] and got["traced_reps"]:
        total = {key: value / got["traced_reps"] for key, value in got["layers"]["trace"].items()}
        print(f"{name} trace: wrapped self times {total['self_sum_s'] - total['unwrapped_s']!r} s"
              f" + unwrapped remainder {total['unwrapped_s']!r} s = {total['self_sum_s']!r} s;"
              f" traced run_s {total['run_s']!r} s")
    missing = [metric["name"] for metric in gated if values.get(metric["name"]) is None]
    if missing and not error:
        raise BenchError(f"not measured: {', '.join(missing)}")
    metrics = {metric["name"]: {"value": values.get(metric["name"]), "unit": metric["unit"]}
               for metric in gated}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "gausspen", "__init__.py")):
            raise BenchError(f"no gausspen sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
        pinned = pin_cpu()
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, benchmark,
                                      pinned)
                   for name in names}
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
