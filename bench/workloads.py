"""The three workloads. Each is a closed loop in one process that calls
``pointreg``'s public functions and checks their outputs.

A workload object goes through ``setup`` (repeated; the last set-up is
the one that runs), then ``run`` for at least the given number of seconds
of whole rounds, then ``check``. ``run`` returns a ``Window``.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from pointreg import autodiff as ad
from pointreg import cli, datagen, evaluator, model, trainer

# end-to-end metric units, as in BENCHMARK.json
END_TO_END = {
    "pairs_per_s": "1/s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "val_cd_ratio": "ratio",
}

FISH_POINTS = 96
DEFORMATION = 0.5
PD_LEVEL = 0.02
# the output layer starts at zero, which would make every warp the identity;
# the eval-side workloads draw it from N(0, OUT_STD^2) instead
OUT_STD = 0.05
# The eval-side workloads register with one fixed model, so that runs with
# different seeds differ in their data only.
MODEL_SEED = 0


@dataclass
class Window:
    start: float
    end: float
    latencies: list  # seconds per operation
    pairs: int
    # mean held-out Chamfer after registration over the identity warp's, on
    # the same pairs in the network frame; fixed for a given seed
    val_cd_ratio: float
    attempted: int
    failed: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def sub_seed(seed: int, k: int) -> int:
    """A dataset seed for stream ``k`` of run seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def fish():
    return datagen.sample_shape("fish", FISH_POINTS)


def synth(directory, seed, pairs, kind="pd", level=PD_LEVEL):
    cfg = datagen.SynthConfig(deformation_level=DEFORMATION, noise_kind=kind,
                              noise_level=level, seed=seed, pair_count=pairs)
    return datagen.generate_dataset(fish(), cfg, directory, shape_name="fish")


def make_weights(seed: int) -> model.PrNetWeights:
    """Seeded default 2D weights with a non-zero output layer."""
    weights = model.init_weights(model.PrNetConfig(), seed=seed)
    rng = np.random.default_rng([seed, 1])
    out = weights.out.weight.data
    out[...] = rng.normal(0.0, OUT_STD, size=out.shape)
    return weights


def read_points(path) -> np.ndarray:
    """A points file as written by the program: one point per line."""
    with open(path, encoding="utf-8") as f:
        return np.array([[float(v) for v in line.split()] for line in f if line.strip()])


@contextlib.contextmanager
def patched(module, name, make):
    """Temporarily replace ``module.name`` by ``make(original)``."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------------


class Train2d:
    """``trainer.train`` on the default 2D net, then one ``save_checkpoint``.

    67 jittered pairs: 64 train in four full batches of 16, and the last 3
    (5%) are held out for ``val_cd``. An operation is one optimizer step.
    ``val_cd_ratio`` and the check that training beats the identity warp
    use 64 further held-out pairs, made after the run: 3 pairs are too few
    for either (see README.md).
    """

    name = "train-2d"
    PAIRS = 67
    VAL_PAIRS = 3
    BATCH = 16
    WARM_PAIRS = 17  # 16 train + 1 held out: a single warm-up step
    HELD_OUT = 64
    MIN_EPOCHS = 3

    def setup(self, directory: Path, seed: int):
        self.seed = seed
        self.dir = directory
        self.data = synth(directory / "train", sub_seed(seed, 1), self.PAIRS)
        warm = synth(directory / "warm", sub_seed(seed, 2), self.WARM_PAIRS)
        self.weights = model.init_weights(model.PrNetConfig(), seed=seed)
        self.adam = ad.init_adam(self.weights.params(), learning_rate=1e-4, decay=0.995)
        self.ckpt = directory / "model.ckpt"
        self.snapshot = directory / f"weights-epoch{self.MIN_EPOCHS}.bin"
        trainer.train(self._config(1), warm, model.init_weights(model.PrNetConfig(), seed=1))

    def _config(self, epochs):
        return trainer.TrainConfig(epochs=epochs, batch_size=self.BATCH, seed=self.seed)

    def run(self, seconds: float) -> Window:
        class WindowClosed(Exception):
            pass

        events = []  # (time, "step" | "epoch")
        history = []

        def timed_adam(adam_step):
            def step(params, state):
                adam_step(params, state)
                events.append((time.perf_counter(), "step"))
            return step

        def log(stats):
            history.append(stats)
            if stats.epoch == self.MIN_EPOCHS:
                # to a file, not a copy in memory: a copy would add to the
                # peak RSS of runs that go on to a further epoch
                with open(self.snapshot, "wb") as f:
                    for a in self.weights.named_arrays().values():
                        f.write(a.data)
            if stats.epoch >= self.MIN_EPOCHS and time.perf_counter() - start >= seconds:
                raise WindowClosed
            events.append((time.perf_counter(), "epoch"))

        # epochs=10**6 is never reached: the log callback ends training after
        # the first whole epoch that finishes past the deadline
        with patched(ad, "adam_step", timed_adam):
            start = time.perf_counter()
            try:
                trainer.train(self._config(10**6), self.data, self.weights,
                              adam_state=self.adam, log=log)
            except WindowClosed:
                pass
            trainer.save_checkpoint(self.weights, self.adam, len(history), self.ckpt)
            end = time.perf_counter()

        # a step runs from the previous step's or epoch's end to its Adam
        # update; the very first step also loads the dataset, so it is left out
        latencies = [cur - prev for (prev, _), (cur, kind) in zip(events, events[1:])
                     if kind == "step"]
        self.history = history
        # val_cd_ratio is set by check(), which runs after peak_rss_mb is read
        return Window(start, end, latencies, pairs=len(history) * (self.PAIRS - self.VAL_PAIRS),
                      val_cd_ratio=math.nan, attempted=self.adam.step_count,
                      notes={"epochs": len(history), "val_cd": [s.val_cd for s in history]})

    def check(self, window: Window) -> list:
        held = synth(self.dir / "held-out", sub_seed(self.seed, 3), self.HELD_OUT)
        pairs = [tuple(read_points(p) for p in held.pair_paths(i)) for i in range(self.HELD_OUT)]
        identity = float(np.mean([checks.chamfer(s, t) for s, t in pairs]))
        # the ratio is taken at a fixed epoch, which every run reaches, so it
        # is fixed for a given seed
        at_min_epochs = model.init_weights(model.PrNetConfig(), seed=0)
        with open(self.snapshot, "rb") as f:
            for a in at_min_epochs.named_arrays().values():
                a[...] = np.frombuffer(f.read(a.nbytes), dtype=a.dtype).reshape(a.shape)
        window.val_cd_ratio = trainer.validation_cd(pairs, at_min_epochs) / identity
        final = trainer.validation_cd(pairs, self.weights)
        window.notes["final_held_out_ratio"] = final / identity
        batches = len(self.history) * ((self.PAIRS - self.VAL_PAIRS) // self.BATCH)
        problems = checks.check_training(self.history, self.adam.step_count, batches, final, identity)
        weights, adam, epoch = trainer.load_checkpoint(self.ckpt)
        problems += checks.check_same_arrays("checkpoint weights", weights.named_arrays(),
                                             self.weights.named_arrays())
        problems += checks.check_same_arrays("checkpoint Adam moments", _moments(adam), _moments(self.adam))
        if adam.step_count != self.adam.step_count or epoch != len(self.history):
            problems.append("checkpoint step count or epoch differs")
        return problems


def _moments(state) -> dict:
    return {f"{kind}{i}": a for kind, arrays in (("m", state.first_moment), ("v", state.second_moment))
            for i, a in enumerate(arrays)}


# ---------------------------------------------------------------------------


class Eval2d:
    """``evaluator.evaluate`` over three dataset directories of 64 pairs,
    each sharing one source: jitter (pd 0.02, 96-point targets), outliers
    (do 0.5, 144 points) and missing points (di 0.25, 72 points). An
    operation is one round, which evaluates the three in that order: the
    ``evaluate`` calls alone take three different times, so their median
    would fall among the ``pd`` calls only. The warm-up is one round, so the
    scratch buffers of every batch shape exist before the timed window."""

    name = "eval-2d"
    PAIRS = 64
    KINDS = (("pd", PD_LEVEL), ("do", 0.5), ("di", 0.25))
    BATCH_SAMPLE = 2  # pairs per dataset re-registered one at a time

    def setup(self, directory: Path, seed: int):
        self.seed = seed
        self.weights = make_weights(MODEL_SEED)
        self.data = [synth(directory / kind, sub_seed(seed, 10 + k), self.PAIRS, kind, level)
                     for k, (kind, level) in enumerate(self.KINDS)]
        for ds in self.data:
            evaluator.evaluate(self.weights, ds.directory)

    def run(self, seconds: float) -> Window:
        latencies = []
        self.first = None  # the first round's summaries, None where evaluate raised
        self.cd_post = []  # per round and dataset, the cd_post list
        start = time.perf_counter()
        while True:
            summaries = []
            t = time.perf_counter()
            for ds in self.data:
                try:
                    summaries.append(evaluator.evaluate(self.weights, ds.directory))
                except Exception:  # noqa: BLE001 - a round in which a call raises counts as failed
                    summaries.append(None)
            latencies.append(time.perf_counter() - t)
            self.first = self.first or summaries
            self.cd_post.append([s and [r.cd_post for r in s.results] for s in summaries])
            if time.perf_counter() - start >= seconds:
                break
        end = time.perf_counter()
        results = [r for s in self.first if s is not None for r in s.results]
        ratio = sum(r.cd_post for r in results) / sum(r.cd_pre for r in results)
        failed = sum(any(cds is None for cds in rnd) for rnd in self.cd_post)
        return Window(start, end, latencies, pairs=len(latencies) * len(self.data) * self.PAIRS,
                      val_cd_ratio=ratio, attempted=len(latencies), failed=failed)

    def check(self, window: Window) -> list:
        problems = []
        rng = np.random.default_rng([self.seed, 3])
        for ds, summary in zip(self.data, self.first):
            if summary is None:
                continue
            kind = ds.manifest["noise_kind"]
            if summary.pair_count != self.PAIRS:
                problems.append(f"{kind}: {summary.pair_count} results for {self.PAIRS} pairs")
            sample = set(rng.choice(self.PAIRS, self.BATCH_SAMPLE, replace=False).tolist())
            for i, res in enumerate(summary.results):
                src, tgt = (read_points(p) for p in ds.pair_paths(i))
                label = f"{kind} pair {i}"
                problems += checks.check_chamfer(label, src, tgt, res.transformed, res.cd_pre, res.cd_post)
                problems += checks.check_warp(label, src, res.theta, res.transformed)
                if i in sample:
                    alone = evaluator.register(self.weights, src, tgt)
                    problems += checks.check_same_registration(
                        f"{label} batched vs alone",
                        (res.transformed, res.theta, res.cd_post),
                        (alone.transformed, alone.theta, alone.cd_post))
        for n, rnd in enumerate(self.cd_post[1:], start=2):
            for ds, a, b in zip(self.data, self.cd_post[0], rnd):
                if a is not None and b is not None and a != b:
                    problems.append(f"{ds.manifest['noise_kind']}: round {n} differs from round 1")
        return problems


# ---------------------------------------------------------------------------


_REGISTER_LINE = re.compile(r"cd_pre=(\S+) cd_post=(\S+) elapsed_s=(\S+)")


class RegisterCli:
    """``cli.main(["register", ...])`` in-process, one pair per call, each
    pair in its own source and target files: a jittered fish under a random
    rotation, a scale from 0.1 to 100 and a shift. The model file is written
    by ``trainer.save_checkpoint``, Adam moments included, as ``pointreg
    train`` writes it. A round is 10 calls; the run stops after the first
    round that ends with at least ``MIN_CALLS`` calls and the time spent.
    """

    name = "register-cli"
    POOL = 200
    ROUND = 10
    MIN_CALLS = 100
    PERMUTED = 3  # pairs rerun with both files' rows permuted

    def setup(self, directory: Path, seed: int):
        self.seed = seed
        self.dir = directory
        weights = make_weights(MODEL_SEED)
        adam = ad.init_adam(weights.params(), learning_rate=1e-4, decay=0.995)
        self.model = directory / "model.ckpt"
        trainer.save_checkpoint(weights, adam, 1, self.model)
        ds = synth(directory / "gen", sub_seed(seed, 30), self.POOL + 1)
        rng = np.random.default_rng([seed, 4])
        self.pairs = []
        for i in range(self.POOL + 1):
            angle = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            scale = 10 ** rng.uniform(-1, 2)
            shift = rng.normal(0, 10 * scale, size=2)
            paths = (directory / f"src_{i:04d}", directory / f"tgt_{i:04d}")
            for pts, path in zip(ds.load_pair(i), paths):
                datagen.save_points_file(path, pts @ rot.T * scale + shift)
            self.pairs.append(paths)
        self.permuted = []
        for i in range(self.PERMUTED):
            paths = (directory / f"src_{i:04d}_perm", directory / f"tgt_{i:04d}_perm")
            for src, dst in zip(self.pairs[i], paths):
                pts = read_points(src)
                datagen.save_points_file(dst, pts[rng.permutation(len(pts))])
            self.permuted.append(paths)
        warm_src, warm_tgt = self.pairs.pop()
        for _ in range(2):
            self._call(warm_src, warm_tgt, directory / "out_warm")

    def _call(self, src, tgt, out):
        """One register command: its exit code, its standard output and the
        ``theta`` of the ``evaluator.register`` result made inside it."""
        results = []

        def spy(register):
            def wrapper(*args):
                results.append(register(*args))
                return results[-1]
            return wrapper

        argv = ["register", "--model", str(self.model), "--src", str(src),
                "--tgt", str(tgt), "--out-points", str(out)]
        with patched(evaluator, "register", spy), \
                contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, stdout.getvalue(), results[-1].theta if results else None

    def run(self, seconds: float) -> Window:
        self.calls = []  # (pair index, exit code, stdout, theta)
        latencies = []
        start = time.perf_counter()
        while True:
            for _ in range(self.ROUND):
                i = len(self.calls) % len(self.pairs)
                t = time.perf_counter()
                try:
                    call = self._call(*self.pairs[i], self.dir / f"out_{len(self.calls):04d}")
                except Exception:  # noqa: BLE001 - an operation that raises counts as failed
                    call = (None, "", None)
                latencies.append(time.perf_counter() - t)
                self.calls.append((i, *call))
            if len(self.calls) >= self.MIN_CALLS and time.perf_counter() - start >= seconds:
                break
        end = time.perf_counter()
        self.permuted_calls = [self._call(*paths, self.dir / f"out_perm_{i:04d}")
                               for i, paths in enumerate(self.permuted)]
        # Chamfer scales with the square of the frame; the network frame makes
        # pairs of every scale count alike
        pre = post = 0.0
        for i, code, out, _ in self.calls[:self.MIN_CALLS]:
            if code == 0:
                frame = checks.normalization(read_points(self.pairs[i][0]))[1] ** 2
                pre += self._parse(out)[0] * frame
                post += self._parse(out)[1] * frame
        return Window(start, end, latencies, pairs=len(self.calls), val_cd_ratio=post / pre,
                      attempted=len(self.calls), failed=sum(c[1] != 0 for c in self.calls))

    @staticmethod
    def _parse(stdout):
        m = _REGISTER_LINE.search(stdout)
        return (float(m.group(1)), float(m.group(2))) if m else (math.nan, math.nan)

    def check(self, window: Window) -> list:
        problems = []
        for n, (i, code, out, theta) in enumerate(self.calls):
            if code != 0:
                continue
            label = f"call {n} (pair {i})"
            cd_pre, cd_post = self._parse(out)
            src, tgt = (read_points(p) for p in self.pairs[i])
            transformed = read_points(self.dir / f"out_{n:04d}")
            problems += checks.check_chamfer(label, src, tgt, transformed, cd_pre, cd_post)
            problems += checks.check_warp(label, src, theta, transformed)
        for i, (code, out, theta) in enumerate(self.permuted_calls):
            if code != 0:
                problems.append(f"pair {i} permuted: exit code {code}")
                continue
            _, code0, out0, theta0 = self.calls[i]
            if code0 != 0:
                continue
            problems += checks.check_same_registration(
                f"pair {i} permuted",
                (read_points(self.dir / f"out_perm_{i:04d}"), theta, self._parse(out)[1]),
                (read_points(self.dir / f"out_{i:04d}"), theta0, self._parse(out0)[1]))
        return problems


WORKLOADS = {w.name: w for w in (Train2d, Eval2d, RegisterCli)}
