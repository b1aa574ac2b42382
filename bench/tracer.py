"""Spans around calls into gausspen's public functions, recorded from the
benchmark's side without changing the package.

Each public function is replaced at the module attribute its callers look
it up as (``regression.value_array``, ``mlp.grad_array``, ...), because the
package's modules import these names directly.  A span holds its name,
start, end, parent span and run id; counts (array sizes, file bytes,
solver iterations, ...) are recorded at the same boundaries.  Everything
stays in memory until :meth:`Tracer.dump` writes the spans out.
"""

import os
import time
from array import array
from collections import defaultdict

import numpy as np

from gausspen import asymptotics, cli, data, mlp, penalties, regression


def _elems(counts, name, args, result):
    counts[name, "elems"] += np.size(args[1])


def _file_bytes(counts, name, args, result):
    counts[name, "bytes"] += os.path.getsize(args[0])


def _fit(counts, name, args, result):
    counts[name, "iterations"] += result.iterations
    counts[name, "converged"] += bool(result.converged)


def _epochs(counts, name, args, result):
    counts[name, "epochs"] += len(result.epoch_log)


def _layer_flop(weights, batch):
    return sum(2.0 * batch * W.shape[0] * W.shape[1] for W, _ in weights)


def _forward_flop(counts, name, args, result):
    weights, inputs = args[0], args[1]
    counts[name, "gflop"] += _layer_flop(weights, len(inputs)) / 1e9


def _backward_flop(counts, name, args, result):
    # weight gradients for every layer, plus the delta propagated back
    # through every layer but the first
    weights, labels = args[0], args[2]
    batch = len(labels)
    flop = _layer_flop(weights, batch) + _layer_flop(weights[1:], batch)
    counts[name, "gflop"] += flop / 1e9


# (span name, counter, modules whose attribute of that name callers use)
WRAPPED = (
    ("cli.run", None, (cli,)),
    ("cli.write_csv", _file_bytes, (cli,)),
    ("data.make_blobs", None, (data,)),
    ("data.split", None, (data,)),
    ("data.flip_labels", None, (data,)),
    ("penalties.value_array", _elems, (penalties, regression, mlp)),
    ("penalties.grad_array", _elems, (penalties, regression, mlp)),
    ("penalties.penalty_value", None, (penalties, cli)),
    ("regression.fit", _fit, (regression, asymptotics)),
    ("regression.solve_orthonormal", None, (regression,)),
    ("regression.lambda_phase_scan", None, (regression,)),
    ("asymptotics.simulate_linear_data", None, (asymptotics,)),
    ("asymptotics.run_bias_experiment", None, (asymptotics,)),
    ("asymptotics.run_consistency_experiment", None, (asymptotics,)),
    ("mlp.train", _epochs, (mlp,)),
    ("mlp.forward", _forward_flop, (mlp,)),
    ("mlp.backward", _backward_flop, (mlp,)),
    ("mlp.evaluate", None, (mlp,)),
    ("mlp.init_weights", None, (mlp,)),
    ("mlp.save_weights", _file_bytes, (mlp,)),
)


class Tracer:
    """Span recorder; :meth:`install` puts the wrappers in place and
    :meth:`close` restores the original functions, so traced and untraced
    runs can alternate in one process."""

    def __init__(self):
        self.names = [name for name, _, _ in WRAPPED]
        self.codes = array("H")
        self.parents = array("q")
        self.runs = array("I")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = defaultdict(float)
        self.run_id = 0
        self._stack = [-1]
        self._patches = []
        for code, (name, counter, modules) in enumerate(WRAPPED):
            attr = name.rsplit(".", 1)[1]
            for module in modules:
                original = getattr(module, attr, None)
                if original is None:  # renamed or removed: the layer reports no calls
                    continue
                wrapper = self._wrap(original, name, code, counter)
                self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, name, code, counter):
        codes, parents, runs = self.codes, self.parents, self.runs
        starts, ends, stack, counts = self.starts, self.ends, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(ends)
            ends.append(0.0)
            codes.append(code)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def close(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self, repetitions):
        """Means per traced repetition: calls, self seconds and counts per
        span name, plus the traced ``cli.run`` time and the part of it no
        wrapped call covers.

        A span's self time is its duration minus the durations of its
        direct children, so the self times of all spans of a run add up to
        the duration of its root ``cli.run`` spans.
        """
        n = len(self.ends)
        codes = np.array(self.codes, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        duration = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(n)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        own = duration - child
        calls = np.bincount(codes, minlength=len(self.names))
        self_s = np.bincount(codes, weights=own, minlength=len(self.names))
        fit = self.names.index("regression.fit")
        value = self.names.index("penalties.value_array")
        # fit evaluates its objective through exactly one value_array call
        evals = int(np.count_nonzero((codes == value) & nested
                                     & (codes[np.maximum(parents, 0)] == fit)))
        out = {}
        for code, name in enumerate(self.names):
            out[name] = {"calls": calls[code] / repetitions,
                         "self_s": self_s[code] / repetitions}
        for (name, key), total in self.counts.items():
            out[name][key] = total / repetitions
        out["regression.fit"]["evals"] = evals / repetitions
        root = self.names.index("cli.run")
        out["trace"] = {
            "run_s": float(duration[codes == root].sum()) / repetitions,
            "unwrapped_s": out["cli.run"]["self_s"],
            "self_sum_s": float(own.sum()) / repetitions,
        }
        return out

    def dump(self, path):
        """Write every span as CSV: index, run, name, start, end, parent index."""
        with open(path, "w") as handle:
            handle.write("index,run,name,start,end,parent\n")
            for i in range(len(self.ends)):
                handle.write(f"{i},{self.runs[i]},{self.names[self.codes[i]]},"
                             f"{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")
