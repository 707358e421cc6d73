"""Seeded op streams of the three benchmark workloads.

Each generator yields an endless, deterministic sequence of ops for one
seed.  Ops are plain JSON-able dicts drawn with `random.Random`, whose
stream is stable across Python releases, and this module imports neither
numpy nor focksim: the library receives only the generated inputs, and a
fresh interpreter can draw the first op before it imports the library.

Ops come in rounds that hold every cost stratum of the workload once: in a
seeded order for `ns_gate` and `dense_circuits`, and in the fixed order
sweep-phase, sweep-delay, hom for `sweeps`.  A run measures whole
rounds, so every run sees the same mix of costs and the throughput and
latency percentiles do not depend on the seed.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import random
from typing import Iterable, Iterator

#: Reflectivities of the two-qubit-gate sign shift (acceptance criterion 9).
KLM_R_V = 5.0 - 3.0 * math.sqrt(2.0)
KLM_R_H = (3.0 - math.sqrt(2.0)) / 7.0

#: Photon cap of the `ns_gate` workload, signal plus ancilla.  Fixed here
#: rather than read from the library, so that raising the library's cap
#: does not change the workload.
NS_GATE_MAX_PHOTONS = 8

SWEEP_PHASE_POINTS = 25
SWEEP_DELAY_POINTS = 61

DENSE_PHOTONS = (2, 3, 4)
DENSE_MODES = tuple(range(6, 13))


def _reflectivities(rng: random.Random) -> dict:
    return {"r-v": rng.uniform(0.25, 0.75), "r-h": rng.uniform(0.25, 0.75)}


def _delay_range(rng: random.Random, tau: float) -> dict:
    # |delay| stays below 4.5 tau, so the overlap never underflows the
    # library's pruning threshold and every point costs the same; an
    # off-centre window almost never samples delay 0, where eta = 1.
    centre = rng.uniform(-0.5, 0.5) * tau
    half = rng.uniform(2.0, 4.0) * tau
    return {"from": centre - half, "to": centre + half}


def _sweep_op(kind: str, rng: random.Random) -> dict:
    if kind == "sweep-phase":
        params = {"points": SWEEP_PHASE_POINTS, "eta": rng.uniform(0.5, 0.95)}
    elif kind == "sweep-delay":
        tau = rng.uniform(60.0, 150.0)
        params = {
            "theta": rng.uniform(0.0, 2.0 * math.pi),
            **_delay_range(rng, tau),
            "points": SWEEP_DELAY_POINTS,
            "tau-coh": tau,
        }
    else:
        tau = rng.uniform(60.0, 150.0)
        params = {
            "eta": rng.uniform(0.5, 0.95),
            **_delay_range(rng, tau),
            "points": SWEEP_DELAY_POINTS,
            "tau-coh": tau,
        }
    return {"kind": kind, "params": {**params, **_reflectivities(rng)}}


def sweeps(seed: int) -> Iterator[dict]:
    """CLI sweeps, one round = sweep-phase, sweep-delay, hom."""
    rng = random.Random(seed)
    while True:
        for kind in ("sweep-phase", "sweep-delay", "hom"):
            yield _sweep_op(kind, rng)


def _ns_op(photons: int, rng: random.Random) -> dict:
    signal = photons - 1
    m = rng.randint(0, signal)
    return {"m": m, "n": signal - m, "r_v": 1.0 - rng.random(), "r_h": 1.0 - rng.random()}


def ns_gate(seed: int) -> Iterator[dict]:
    """ns_pipeline calls, one round = every total photon number 2..8.

    The first op is always the two-qubit-gate pair |0V;2H> at the
    criterion-9 reflectivities; the rest of the first round fills in the
    other photon numbers.
    """
    rng = random.Random(seed)
    totals = list(range(2, NS_GATE_MAX_PHOTONS + 1))
    yield {"m": 0, "n": 2, "r_v": KLM_R_V, "r_h": KLM_R_H}
    order = [t for t in totals if t != 3]
    while True:
        rng.shuffle(order)
        for photons in order:
            yield _ns_op(photons, rng)
        order = list(totals)


def _dense_op(photons: int, modes: int, rng: random.Random) -> dict:
    count = rng.choice((2, 3))
    components: list[list[int]] = []
    while len(components) < count:
        occ = [0] * modes
        for _ in range(photons):
            occ[rng.randrange(modes)] += 1
        if occ not in components:
            components.append(occ)
    weights = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in components]
    norm = math.sqrt(sum(re * re + im * im for re, im in weights))
    return {
        "modes": modes,
        "photons": photons,
        "components": components,
        "weights": [[re / norm, im / norm] for re, im in weights],
        # complex Ginibre matrix, row-major (re, im) pairs; its QR gives
        # the Haar-random unitary
        "ginibre": [rng.gauss(0.0, 1.0) for _ in range(2 * modes * modes)],
    }


def dense_circuits(seed: int) -> Iterator[dict]:
    """Haar-random transforms, one round = every (photons, modes) pair.

    The first op is always 3 photons on 9 modes, so the set-up time does
    not depend on which stratum the seed would have put first.
    """
    rng = random.Random(seed)
    strata = [(n, m) for n in DENSE_PHOTONS for m in DENSE_MODES]
    yield _dense_op(3, 9, rng)
    order = [s for s in strata if s != (3, 9)]
    while True:
        rng.shuffle(order)
        for photons, modes in order:
            yield _dense_op(photons, modes, rng)
        order = list(strata)


GENERATORS = {"sweeps": sweeps, "ns_gate": ns_gate, "dense_circuits": dense_circuits}

#: Ops per round: every stratum once.  Rounds start at multiples of this.
ROUND_SIZE = {
    "sweeps": 3,
    "ns_gate": NS_GATE_MAX_PHOTONS - 1,
    "dense_circuits": len(DENSE_PHOTONS) * len(DENSE_MODES),
}


#: The first ops stay available after later ones, so that one can be re-run.
KEPT_OPS = 3


def ops(workload: str, seed: int, count: int) -> Iterator[dict]:
    """The first `count` ops of a seed, generated afresh."""
    return itertools.islice(GENERATORS[workload](seed), count)


def digest(op_list: Iterable[dict]) -> str:
    """SHA-256 of an op list, to compare op lists across runs."""
    sha = hashlib.sha256()
    for op in op_list:
        sha.update(json.dumps(op, sort_keys=True).encode("utf-8") + b"\n")
    return sha.hexdigest()


class OpStream:
    """The op sequence of one seed, generated on demand.

    Only the first `KEPT_OPS` ops and the latest round are kept, so that a
    run's memory does not grow with the number of ops it completes.  A
    traced run can replay the latest round; an older op raises IndexError.
    """

    def __init__(self, workload: str, seed: int):
        self._source = GENERATORS[workload](seed)
        self._first: list[dict] = []
        self.round_size = ROUND_SIZE[workload]
        self._latest: collections.deque[dict] = collections.deque(maxlen=self.round_size)
        self._generated = 0

    def __getitem__(self, index: int) -> dict:
        if index < len(self._first):
            return self._first[index]
        while self._generated <= index:
            op = next(self._source)
            if self._generated < KEPT_OPS:
                self._first.append(op)
            self._latest.append(op)
            self._generated += 1
        oldest = self._generated - len(self._latest)
        if index < oldest:
            raise IndexError(f"op {index} is no longer kept")
        return self._latest[index - oldest]
