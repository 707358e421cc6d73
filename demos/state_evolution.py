#!/usr/bin/env python3
"""Tour of the state and evolution API: bunching, heralding, branches.

Shows the sparse state containers, two-photon interference at a balanced
splitter, and how heralded measurement splits a state into per-pattern
branches whose probabilities add.
"""

from focksim import (
    Exactly,
    HeraldSpec,
    ModeRegistry,
    PureState,
    basis_state,
    beam_splitter,
    herald,
    ket_string,
    mode,
    normalize,
    transform,
    transform_oracle,
)

# Two spatial modes, one photon in each.
reg = ModeRegistry([mode(1, "H"), mode(2, "H")])
pair = basis_state(reg, {mode(1, "H"): 1, mode(2, "H"): 1})
print("input:           ", ket_string(pair))

out = transform(beam_splitter(0.5), pair)
print("after 50/50 BS:  ", ket_string(out))
print("coincidence amp: ", out.amplitude((1, 1)), " (bunching: the photons never split)")

check = transform_oracle(beam_splitter(0.5), pair)
print("expansion oracle:", ket_string(check))

# Herald on one photon in the second mode: impossible here.
result = herald(out, HeraldSpec([([mode(2, "H")], Exactly(1))]))
print("\nP(exactly one photon in mode 2):", result.probability)

# Two photons counted over both modes: each bunched outcome is its own branch.
both = herald(out, HeraldSpec([([mode(1, "H"), mode(2, "H")], Exactly(2))]))
print("P(two photons over modes 1 and 2):", both.probability)
for pattern, branch in both.branches:
    print(f"  detectors saw {pattern}: remaining state {ket_string(branch)}")

# Sub-normalized states carry their event probability in the norm.
sub = PureState(reg, {(2, 0): 0.25, (0, 2): -0.25})
unit, norm = normalize(sub)
print("\nsub-normalized state:", ket_string(sub))
print(f"event probability = norm^2 = {norm**2:.6f}; normalized: {ket_string(unit)}")
