"""Watch distance-based selection drop the outliers.

Honest clients that trained on similar data upload similar parameter
vectors, so their pairwise distances are small. An attacker uploading
a constant vector (or anything else far from the cluster) collects a
huge distance to everyone and a huge row sum, and the keep-the-closest
rule never picks it.
"""

import numpy as np

from fedaa import selection
from fedaa.clients import attack_same_value
from fedaa.seeding import stream

rng = stream(3, "demo")
dim = 32

# a round's uploads are one matrix, a row per client in ascending id:
# eight honest uploads near the origin, two constant-vector attackers
ids = list(range(10))
honest = rng.normal(0.0, 0.1, (8, dim))
attackers = [attack_same_value(dim, 100.0, rng) for _ in range(2)]
uploads = np.vstack([honest, *attackers])

result = selection.select_clients(ids, uploads, 50.0, "all_layers")

print("kept client  row sum of distances")
for cid, row_sum in zip(result.selected_ids, result.raw_row_sums):
    kind = "attacker" if cid >= 8 else "honest"
    print(f"  {cid} ({kind:8s}) {row_sum:12.2f}")
dropped = sorted(set(ids) - set(result.selected_ids))
print(f"dropped clients: {dropped} (attackers are 8 and 9)")

print(f"\nkept the closest 50%: clients {result.selected_ids}")
print(f"normalized state fed to the policy: "
      f"{np.array2string(result.state, precision=3)}")

# scaling every upload by one constant scales every distance by it, so the
# kept clients and the min-max normalized state stay the same
scaled = selection.select_clients(ids, 1000.0 * uploads, 50.0)
print(f"\nuploads scaled by 1000: kept {scaled.selected_ids}, state "
      f"{np.array2string(scaled.state, precision=3)} (selection is scale-free)")
