"""Learned aggregation versus plain averaging under a sign-flip attack.

Thirty percent of the clients upload their honest update multiplied by
a large negative factor. Size-weighted averaging folds those uploads
straight into the global model and collapses; the distance selector
plus the learned weights keep the attackers out.

Takes a minute or two: both methods train 20 clients for 30 rounds.
"""

from dataclasses import replace

from fedaa import config, nn, orchestrator
from fedaa.clients import AttackSpec

cfg = config.ExperimentConfig(
    dataset=config.DatasetConfig(
        kind="synthetic00", num_clients=20, samples_per_client=200
    ),
    malicious_fraction=0.3,
    attack=AttackSpec("sign_flip"),
    m_percent=30.0,
    rounds=30,
    local=nn.SgdConfig(learning_rate=0.1, batch_size=16, epochs=20),
    ddpg=config.DdpgConfig(),
    seed=0,
)

print("running the learned aggregator...")
ours = orchestrator.run_experiment(cfg)
print("running the size-weighted baseline...")
baseline = orchestrator.run_experiment(replace(cfg, aggregator="fedavg"))

print("\nround   ours (benign acc)   baseline (benign acc)")
for t in range(0, cfg.rounds, 5):
    print(f"{t:>5} {ours[t].mean_benign_acc:>19.3f} {baseline[t].mean_benign_acc:>23.3f}")
print(f"{'last':>5} {ours[-1].mean_benign_acc:>19.3f} {baseline[-1].mean_benign_acc:>23.3f}")

malicious = sorted(
    c.id for c in orchestrator.build_experiment(cfg).clients if c.role == "malicious"
)
selected_ever = sorted({c for rec in ours for c in rec.selected_ids})
print(f"\nmalicious ids: {malicious}")
print(f"clients ever selected by the learned aggregator: {selected_ever}")
