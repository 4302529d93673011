"""Generate a synthetic federation and look at its heterogeneity.

Each client draws its own linear labeler (weights centered on a
client-specific mean) and its own feature center, so clients disagree
about what the classes look like. The two variances alpha and beta
control how far apart the labelers and the feature clouds drift.
"""

import numpy as np

from fedaa import data
from fedaa.seeding import stream

for alpha, beta in ((0.0, 0.0), (1.0, 1.0)):
    clients = data.generate_synthetic(alpha, beta, [100] * 8, stream(0, "data"))
    print(f"SYNTHETIC({alpha:g}, {beta:g})")
    for cid, (train, test) in enumerate(clients):
        counts = np.bincount(train.labels, minlength=10)
        top = int(np.argmax(counts))
        print(
            f"  client {cid}: {len(train)} train / {len(test)} test, "
            f"dominant class {top} ({counts[top]} samples), "
            f"feature mean {train.features.mean():+.2f}"
        )
    print()

# the held-out reward set is a seeded mixture of every client's data,
# with the contributed samples removed from the train splits
clients = data.generate_synthetic(0.0, 0.0, [100] * 8, stream(0, "data"))
pool, trimmed = data.extract_server_pool(clients, stream(0, "server-pool"))
total_before = sum(len(tr) for tr, _ in clients)
total_after = sum(len(tr) for tr, _ in trimmed)
print(f"server pool holds {len(pool)} samples "
      f"({total_before} client samples before, {total_after} after)")
