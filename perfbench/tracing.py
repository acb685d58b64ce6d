"""Spans recorded from outside the package, and stage-by-stage replays.

The benchmark never patches the package. It opens a span around each call it
makes into a public function, and after each Monte Carlo call it replays the
same pipeline with the same arguments, one public stage at a time:

    channel.iter_abs2 -> _kernels.quad_form -> _kernels.coupled_integrand
    (or _kernels.log_rate, or _kernels.grad_weights) -> sum

Replay spans are children of the call that caused them, although they run
after it, and may carry a weight (a replayed gradient pass stands for a share
of the passes the optimizer made). A span's self time is its duration minus the
weighted durations of its children, so the rates layer's self time is the
call time minus the replayed stages: the reducer plus Python overhead.

Spans stay in memory and are written once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

import misosec
from misosec import _kernels, channel
from misosec.rates import MethodTag

# computed per-row costs of each kernel: (flops, bytes moved) for an n_t-column
# input; a transcendental counts as one flop, numpy temporaries are ignored
_KERNEL_COST = {
    "quad_form": lambda n_t: (2 * n_t, 8 * (n_t + 1)),
    "coupled_integrand": lambda n_t: (6, 16),
    "log_rate": lambda n_t: (2, 16),
    "grad_weights": lambda n_t: (6, 16),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    weight: float = 1.0
    replay: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    workload: str
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(
        self, name: str, *, parent: Span | None = None, weight: float = 1.0
    ) -> Iterator[Span]:
        """Time the body as one span; an explicit parent marks a replay."""
        if parent is not None:
            parent_id = parent.id
        else:
            parent_id = self._stack[-1] if self._stack else None
        rec = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=parent_id,
            workload=self.workload,
            weight=weight,
            replay=parent is not None,
        )
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def total(self, name: str) -> float:
        """Weighted time over every span with this name."""
        return sum(s.duration * s.weight for s in self.spans if s.name == name)

    def self_time(self, names: set[str]) -> float:
        """Weighted self time summed over spans whose name is in names."""
        children = self._child_time()
        return sum(
            (s.duration - children.get(s.id, 0.0)) * s.weight
            for s in self.spans
            if s.name in names
        )

    def layer_self_times(self) -> dict[str, float]:
        children = self._child_time()
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s.duration - children.get(s.id, 0.0)) * s.weight
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def _child_time(self) -> dict[int, float]:
        # weights are absolute, so a child's weighted time is expressed in
        # units of its parent's weight before the parent subtracts it
        out: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                scale = s.weight / self.spans[s.parent].weight
                out[s.parent] = out.get(s.parent, 0.0) + s.duration * scale
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "layer_self_s": self.layer_self_times(),
            "counts": self.counts,
            "spans": [asdict(s) for s in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n")


def _kernel(tr: Tracer, parent: Span, weight: float, name: str, rows: int, n_t: int, *args):
    with tr.span("kernels." + name, parent=parent, weight=weight):
        out = getattr(_kernels, name)(*args)
    flops, nbytes = _KERNEL_COST[name](n_t)
    tr.count("kernels.flops", weight * flops * rows)
    tr.count("kernels.bytes", weight * nbytes * rows)
    return out


def _chunks(
    tr: Tracer, parent: Span, weight: float, sigma: float, n_t: int, count: int, seed: int, stream: int
) -> Iterator[np.ndarray]:
    it = channel.iter_abs2(sigma, n_t, count, seed, stream)
    while True:
        with tr.span("channel.iter_abs2", parent=parent, weight=weight):
            abs2 = next(it, None)
        if abs2 is None:
            return
        tr.count("channel.rows", weight * abs2.shape[0])
        tr.count("channel.chunks", weight)
        tr.count("channel.bytes_out", weight * abs2.size * 8)
        yield abs2


def _replay_stream(
    tr: Tracer, parent: Span, sigma: float, d: np.ndarray, n: int, seed: int, stream: int, a: float | None
) -> float:
    """Mean of the coupled integrand (a given) or of log2(1+q) over one stream."""
    n_t = d.shape[0]
    total = 0.0
    for abs2 in _chunks(tr, parent, 1.0, sigma, n_t, n, seed, stream):
        rows = abs2.shape[0]
        q = _kernel(tr, parent, 1.0, "quad_form", rows, n_t, abs2, d)
        if a is None:
            vals = _kernel(tr, parent, 1.0, "log_rate", rows, n_t, q)
        else:
            vals = _kernel(tr, parent, 1.0, "coupled_integrand", rows, n_t, q, a)
        total += float(np.sum(vals))
    return total / n


def replay_capacity(tr: Tracer, call: Span, model, P: float, method, mean: float) -> bool:
    """Replay one uniform-allocation MC capacity call; True if the means agree exactly."""
    d = np.full(model.n_t, P / model.n_t)
    n, seed = method.n_samples, method.seed
    if method.tag is MethodTag.COUPLED_MC:
        replayed = _replay_stream(
            tr, call, model.sigma_g, d, n, seed, channel.STREAM_EAVESDROPPER, model.a
        )
    else:
        replayed = _replay_stream(
            tr, call, model.sigma_h, d, n, seed, channel.STREAM_LEGITIMATE, None
        ) - _replay_stream(tr, call, model.sigma_g, d, n, seed, channel.STREAM_EAVESDROPPER, None)
    return replayed == mean


def replay_grad_pass(tr: Tracer, call: Span, model, alloc, n: int, seed: int, weight: float) -> float:
    """One grad_estimate at alloc, standing for `weight` optimizer gradient
    passes, then its stages replayed beneath it; returns the call's seconds."""
    with tr.span("optimize.grad_estimate", parent=call, weight=weight) as grad:
        misosec.grad_estimate(model, alloc, n, seed)
    d = alloc.as_array()
    n_t, a = d.shape[0], model.a
    for abs2 in _chunks(tr, grad, weight, model.sigma_g, n_t, n, seed, channel.STREAM_EAVESDROPPER):
        rows = abs2.shape[0]
        q = _kernel(tr, grad, weight, "quad_form", rows, n_t, abs2, d)
        _kernel(tr, grad, weight, "coupled_integrand", rows, n_t, q, a)
        _kernel(tr, grad, weight, "grad_weights", rows, n_t, q, a)
    return grad.duration
