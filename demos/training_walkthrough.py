"""Score matching on mixture data: plain, weight-tied, and regularized.

Trains the same small MLP three ways on a four-fold symmetric dataset
and compares denoising loss against the analytic optimum, equivariance
gaps, and free parameter counts.  Weight tying restricts the layers so
the net is equivariant by construction; the regularizer only penalizes
the gap, trading exactness for flexibility.
"""

import numpy as np

from spdm.groups import make_point_group_2d
from spdm.nets import TrainerConfig, equivariance_gap, make_tied_kernel, train
from spdm.oracle import AnalyticScoreField, GaussianMixture, symmetrize
from spdm.process import vp_schedule

s = vp_schedule()
G = make_point_group_2d(4)
mix = symmetrize(GaussianMixture(weights=np.array([1.0]),
                                 means=np.array([[1.2, 0.5]]),
                                 variances=np.array([0.08])), G)
data = mix.sample(np.random.default_rng(12), 4000)
oracle = AnalyticScoreField(mix, s)

cfg = TrainerConfig(steps=4000, learning_rate=1e-3, batch_size=64,
                    hidden=(32, 32), seed=2, reg_weight=1.0)

print("=== training three ways (same data, seed and steps) ===")
results = {}
for mode in ("plain", "WT", "regularized"):
    results[mode] = train(cfg, data, s, group=G, mode=mode)
    r = results[mode]
    print(f"{mode:12s} final dsm loss {float(r.losses[-100:].mean()):.4f}  "
          f"free params {r.free_parameters}")

# held-out comparison against the analytic score
probe_rng = np.random.default_rng(77)
xs = mix.sample(probe_rng, 512)
ts = probe_rng.uniform(s.t_clip, s.T, 512)

print("\n=== held-out equivariance gap ===")
for mode, r in results.items():
    print(f"{mode:12s} {equivariance_gap(r.ema_net, G, xs, ts):.2e}")
print("tying gives an exactly equivariant net; the regularizer shrinks")
print("the gap but does not zero it; plain training relies on the data")
print("symmetry alone.")

print("\n=== held-out denoising loss vs the analytic optimum ===")
# one set of draws x_t = alpha_t x_0 + sigma_t eps, one time per row, scores
# every field with the sigma^2-weighted loss mean ||sigma_t s(x_t, t) + eps||^2
val = mix.sample(np.random.default_rng(555), 4096)
noise_rng = np.random.default_rng(9)
t_val = noise_rng.uniform(s.t_clip, s.T, len(val))
eps = noise_rng.standard_normal(val.shape)
sigma = s.sigma(t_val)[:, None]
x_t = s.alpha(t_val)[:, None] * val + sigma * eps


def heldout_loss(score):
    return float(np.mean(np.sum((sigma * score(x_t, t_val) + eps) ** 2, axis=1)))


for mode, r in results.items():
    print(f"{mode:12s} {heldout_loss(r.ema_net):.4f}")
print(f"{'oracle':12s} {heldout_loss(oracle):.4f}  (the best achievable value)")

print("\n=== tied convolution kernels (grid models) ===")
for tag, size in (("flip_h", 3), ("C4", 5), ("D4", 5)):
    k = make_tied_kernel(tag, size)
    print(f"{tag:6s} {size}x{size}: {k.n_free} free parameters "
          f"of {size * size}")
print("the orbit structure is what a tied convolution layer trains.")
