"""Verify the hand-written backpropagation against finite differences.

The whole simulator rests on a small flat-parameter MLP engine, so the
first thing worth convincing yourself of is that its gradients are
real. We build a two-layer classifier, backpropagate a cross-entropy
loss, and compare a handful of coordinates against central differences.
"""

import numpy as np

from fedaa import nn

# a 12-sample batch through a 20 -> 16 -> 10 network
arch = nn.ArchSpec(20, (16,), 10)
rng = np.random.default_rng(7)
params = nn.init_params(arch, rng)
features = rng.normal(size=(12, 20))
labels = rng.integers(0, 10, size=12)

model = nn.MlpModel(arch, params)
loss, grad = nn.backward_ce(model, features, labels)
print(f"network has {nn.param_count(arch)} parameters, batch loss {loss:.4f}")


def loss_at(p):
    return nn.ce_loss_from_logits(nn.forward(nn.MlpModel(arch, p), features), labels)


# central difference: (f(x + h) - f(x - h)) / 2h, coordinate by coordinate
h = 1e-6
print(f"{'coord':>6} {'analytic':>12} {'numeric':>12} {'rel err':>10}")
for coord in rng.choice(params.size, size=8, replace=False):
    up = params.copy()
    dn = params.copy()
    up[coord] += h
    dn[coord] -= h
    numeric = (loss_at(up) - loss_at(dn)) / (2 * h)
    rel = abs(numeric - grad[coord]) / max(abs(numeric), abs(grad[coord]), 1e-12)
    print(f"{coord:>6} {grad[coord]:>12.6f} {numeric:>12.6f} {rel:>10.2e}")

print("\nall relative errors should sit near 1e-9; anything above 1e-4 "
      "would mean the chain rule is wired wrong")
