"""Equivariant noise: making the whole sampling trajectory commute.

An equivariant score alone does not make a stochastic sampler
equivariant, because the injected noise has its own arbitrary
orientation.  Re-orienting each chain's noise sequence to follow the
state (via a canonicalizer) closes the gap exactly.  This demo shows the
canonicalizer at work, a four-cell ablation on the bridge sampler, and
an orientation-respecting denoising pass.
"""

import numpy as np

from spdm.groups import (canonicalize, default_canonicalizer, frame_average,
                         make_point_group_2d)
from spdm.metrics import delta_x0_gap
from spdm.oracle import (AnalyticScoreField, BridgeScoreField,
                         GaussianCoupling, GaussianMixture, symmetrize)
from spdm.process import vp_schedule
from spdm import sampling

s = vp_schedule()
G = make_point_group_2d(4)
canon = default_canonicalizer(G)

# ---- canonicalizer ------------------------------------------------------

print("=== canonicalizer: which orientation is a state in? ===")
x = np.array([0.2, 1.3])
for el in G.elements:
    moved = el.apply(x)
    tag = canonicalize(canon, moved)
    print(f"state {np.round(moved, 2)} -> orientation {tag.name}")
print("rotating the state rotates its tag the same way, which is what")
print("lets a noise sequence follow the state's orientation.")

# ---- four-cell ablation on the bridge sampler ---------------------------

print("\n=== bridge sampler ablation (16 endpoint draws) ===")
coupling = GaussianCoupling(matrix=np.diag([1.0, 0.5]), noise_var=0.04)
raw = BridgeScoreField(coupling, s)
fa = frame_average(raw, G, conditional=True)
grid = sampling.bridge_grid(s, 100)
seed = 11
sig_T = float(np.sqrt(s.sigma2(s.T)))
x_T = sig_T * np.random.default_rng(31).standard_normal((16, 2))


def chain_seed(i):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(9, i))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run(field, use_en, i, endpoint):
    if use_en:
        noise = sampling.equivariant_noise_sequence(
            endpoint, chain_seed(i), G, canon, grid.n_steps)
    else:
        noise = chain_seed(i)
    return sampling.ddbm_reverse_sample(field, s, endpoint, 1.0, grid,
                                        noise=noise).terminal


def delta(field, use_en):
    def chains(endpoints):  # chain i keeps its own seed
        return np.stack([run(field, use_en, i, v) for i, v in enumerate(endpoints)])
    return delta_x0_gap(chains, x_T, G, np.random.default_rng(99))


for label, field, use_en in (("baseline        ", raw, False),
                             ("frame avg only  ", fa, False),
                             ("equiv noise only", raw, True),
                             ("FA + EN         ", fa, True)):
    print(f"{label} delta_x0 = {delta(field, use_en):.2e}")
print("only the combination is exactly equivariant; each ingredient alone")
print("removes one of the two error sources.")

# ---- denoising that respects orientation --------------------------------

print("\n=== orientation-respecting denoising ===")
mix = symmetrize(GaussianMixture(weights=np.array([1.0]),
                                 means=np.array([[1.2, 0.5]]),
                                 variances=np.array([0.08])), G)
score = AnalyticScoreField(mix, s)
t_start = 0.4
steps = 80
times = np.flip(np.linspace(s.t_clip, t_start, steps + 1))
dgrid = sampling.TimeGrid(times=times)
probe = np.array([1.1, 0.6])
k = G.elements[1]

a = sampling.sdedit_denoise(score, s, k.apply(probe), t_start, dgrid,
                            G=G, use_en=True, seed=7)
b = k.apply(sampling.sdedit_denoise(score, s, probe, t_start, dgrid,
                                    G=G, use_en=True, seed=7))
print(f"denoise(r1 x) vs r1 denoise(x), equivariant noise: "
      f"{float(np.max(np.abs(a - b))):.2e}")
c = sampling.sdedit_denoise(score, s, k.apply(probe), t_start, dgrid, seed=7)
d = k.apply(sampling.sdedit_denoise(score, s, probe, t_start, dgrid, seed=7))
print(f"same comparison with plain noise:          "
      f"{float(np.max(np.abs(c - d))):.2e}")
