"""Outside-in layer trace: wraps thermoqm functions from the benchmark's side.

Each wrapped call records one span (name, start, end, parent) in memory.  A
layer's self time is the total duration of its spans minus the time their
direct child spans cover.  Counters are recorded at the same boundaries.
Functions are wrapped in every thermoqm namespace that binds them (modules
import some of them by name), and methods are wrapped on their class, never
the class itself, so calls through ``self`` are seen too.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# layer -> functions whose calls are that layer's spans ("Class.method" for methods).
LAYERS = {
    "experiments.rng": [("experiments", "trial_rng")],
    "experiments.block": [("experiments", "_simulate_block")],
    "experiments.payload": [("experiments", "markov_sampler_payload"),
                            ("experiments", "uniform_sphere_payload"),
                            ("experiments", "path_functional_payload")],
    "experiments.sigma2": [("experiments", "sigma2_of")],
    "experiments.ks": [("experiments", "ks_distance")],
    "thermo.transfer_build": [("thermo", "_WindowTransfer.__init__")],
    "thermo.partition": [("thermo", "_WindowTransfer.log_partitions")],
    "thermo.split_constant": [("thermo", "_split_constant")],
    "thermo.enum_partition": [("thermo", "_enumerated_log_partition")],
    "thermo.gibbs": [("thermo", "gibbs_measure")],
    "markov.block_transfer": [("markov", "_block_transfer_matrix"), ("markov", "transfer_matrix")],
    "markov.perron": [("markov", "normalize_potential")],
    "markov.stationary": [("markov", "markov_measure")],
    "markov.cohom_solve": [("markov", "solve_cohomological")],
    "markov.lam2": [("markov", "MarkovMeasure.lam2")],
    "markov.masses": [("markov", "MarkovMeasure.cylinder_masses")],
    "markov.green_kubo": [("markov", "variance")],
    "bowen.coboundary": [("bowen", "coboundary_solve")],
    "bowen.komlos": [("bowen", "komlos_potential")],
    "sft.words": [("sft", "Sft.words"), ("sft", "Sft.periodic_words")],
    "sft.cylinders": [("sft", "Sft.cylinders")],
    "qm.value": [("qm", f"{c}.value") for c in (
        "Quasimorphism", "_WindowAdditive", "LetterWeights", "LinearCombinationQm",
        "TabulatedQm", "PerturbedQm")],
    "qm.homogenized": [("qm", "homogenize")] + [("qm", f"{c}.homogenized_value") for c in (
        "Quasimorphism", "_WindowAdditive", "LinearCombinationQm")],
    "freegroup.pushforward": [("freegroup", "_pushforward_masses")],
    "freegroup.spherical": [("freegroup", "spherical_clt"), ("freegroup", "boundary_ray_clt"),
                            ("freegroup", "_spherical_stats")],
    "cli.parse": [("cli", f) for f in (
        "parse_sft", "parse_qm", "parse_chain", "parse_potential", "parse_measure")],
    "cli.render": [("cli", "render_word"), ("cli", "_stats_csv"), ("cli", "_write")],
    "cli.execute": [("cli", "execute")],
}

# Calls counted without a span of their own: their time stays in the caller's
# self time (transfer_apply is most of the Green-Kubo series).
COUNTED = {"markov.transfer_apply": [("markov", "transfer_apply")]}

# Counters and their units; values are per pass.
COUNTERS = {
    "experiments.rng.streams": "count",
    "experiments.steps": "count",
    "experiments.blocks": "count",
    "experiments.uniform_bytes": "B",  # computed: max over blocks of B * n * 8
    "thermo.partition.flops": "flop",  # computed: 2 * S^3 per dense T @ A step
    "markov.block_transfer.calls": "count",
    "markov.states": "count",  # largest dense transfer matrix
    "markov.dense_bytes": "B",  # computed: S^2 * 8 of that matrix
    "markov.cohom_solve.calls": "count",
    "markov.green_kubo.terms": "count",
    "markov.transfer_apply.calls": "count",
    "sft.words.count": "count",
    "sft.cylinders.builds": "count",
    "qm.value.calls": "count",
    "cli.artifact_bytes": "B",  # bytes of summary and artifacts written (timing.json excluded)
}


# Counters computed from array sizes rather than measured.
COMPUTED = ("experiments.uniform_bytes", "thermo.partition.flops", "markov.states",
            "markov.dense_bytes")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.roots = []  # op name of each root span, in order
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.largest_words = None  # (count, sft, n) of the largest enumeration
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key, v):
        self.counts[key] += v

    def _max(self, key, v):
        self.counts[key] = max(self.counts[key], v)

    def _hooks(self, layer, attr):
        """(before, after) counter hooks for one wrapped function."""
        if layer == "experiments.rng":
            return None, lambda a, out: self._add("experiments.rng.streams", 1)
        if layer == "experiments.block":
            def after(a, out):
                t0, t1 = a[0]["trial_range"]
                cells = (t1 - t0) * a[0]["n"]
                self._add("experiments.steps", cells)
                self._add("experiments.blocks", 1)
                self._max("experiments.uniform_bytes", cells * 8)
            return None, after
        if layer == "thermo.partition":
            def after(a, out):
                wt, n_max = a[0], a[1]
                if wt.Q == 1:
                    S, steps = wt.sft.d, n_max
                else:
                    S, steps = len(wt.init), max(0, n_max - (wt.Q - 1))
                self._add("thermo.partition.flops", 2 * S**3 * steps)
            return None, after
        if layer == "markov.block_transfer":
            def after(a, out):
                S = out[1].shape[0]
                self._add("markov.block_transfer.calls", 1)
                self._max("markov.states", S)
                self._max("markov.dense_bytes", S * S * 8)
            return None, after
        if layer == "markov.cohom_solve":
            return None, lambda a, out: self._add("markov.cohom_solve.calls", 1)
        if layer == "markov.green_kubo":
            return None, lambda a, out: self._add("markov.green_kubo.terms", out.n_terms)
        if layer == "sft.words" and attr == "Sft.words":
            def after(a, out):
                self._add("sft.words.count", len(out))
                if self.largest_words is None or len(out) > self.largest_words[0]:
                    self.largest_words = (len(out), a[0], a[1])
            return None, after
        if layer == "sft.cylinders":
            def before(a):
                if a[1] not in a[0]._cyl:
                    self._add("sft.cylinders.builds", 1)
            return before, None
        if layer == "qm.value":
            return (lambda a: self._add("qm.value.calls", 1)), None
        if layer == "cli.render" and attr == "_write":
            def after(a, out):
                if not a[0].endswith("timing.json"):
                    self._add("cli.artifact_bytes", len(a[1].encode()))
            return None, after
        if layer == "cli.execute":
            return (lambda a: self.roots.append(a[0]) if not self._stack else None), None
        return None, None

    # -- patching -------------------------------------------------------------

    def install(self):
        pkg = "thermoqm"
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == pkg or name.startswith(pkg + "."))]
        targets = [(layer, mod, attr, False) for layer, fns in LAYERS.items() for mod, attr in fns]
        targets += [(key, mod, attr, True) for key, fns in COUNTED.items() for mod, attr in fns]
        for layer, mod, attr, count_only in targets:
            module = sys.modules[f"{pkg}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__.get(meth)
                if original is None:
                    continue  # inherited; wrapped where it is defined
                owners = [(cls, meth)]
            else:
                original = getattr(module, attr)
                owners = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            if count_only:
                wrapped = self._counted(f"{layer}.calls", original)
            else:
                wrapped = self._span(layer, original, *self._hooks(layer, attr))
            for owner, a in owners:
                setattr(owner, a, wrapped)
                self._patched.append((owner, a, original))

    def uninstall(self):
        for owner, a, original in reversed(self._patched):
            setattr(owner, a, original)
        self._patched.clear()

    # -- per-pass results -----------------------------------------------------

    def clear(self):
        """Forget the previous pass (counters are zeroed in place: wrappers hold them)."""
        self.spans.clear()
        self.roots.clear()
        for k in self.counts:
            self.counts[k] = 0

    def self_times(self):
        """Self time per layer, and the time the layers below the cli.execute
        roots claim.  The traced wall time minus the claimed time is handler
        and loop time that no layer below cli claims: a method that is not
        wrapped moves its time there, into cli.execute's self time."""
        covered = [0.0] * len(self.spans)
        claimed = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
                if self.spans[parent][3] < 0:
                    claimed += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, parent), cov in zip(self.spans, covered):
            out[name] += (end - start) - cov
        return out, claimed

    def dump(self, path):
        """Write the recorded spans once, as compact JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"roots": self.roots}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(f'["{name}",{start!r},{end!r},{parent}]\n')


def bytes_per_word(largest):
    """tracemalloc peak per word of the pass's largest enumeration, re-run
    untraced by spans."""
    if largest is None:
        return 0.0
    count, sft, n = largest
    tracemalloc.start()
    try:
        words = sft.words(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / max(1, len(words))
