"""Fuzzy majority voting: how a far-off reading loses the vote.

Five collocated temperature sensors report one value each; one of them is
clearly off.  The walkthrough standardizes the readings, builds the pairwise
membership matrix, accumulates per-sensor scores, extracts the top-3
"optimal set" and assigns every sensor an accuracy weight against the fused
estimate of the optimal set.
"""

from edgeprep.voting import (
    VotingConfig,
    assign_accuracy,
    cumulative_scores,
    membership_matrix,
    normalize,
    select_optimal,
)

readings = [
    ("probe_a", 0.6),   # stuck near zero while the room sits around 11-12
    ("probe_b", 12.0),
    ("probe_c", 11.8),
    ("probe_d", 11.9),
    ("probe_e", 10.0),
]

cfg = VotingConfig(p=2, c=2.0, k=3)

norm = normalize(readings)
print("standardized values:")
for sid, x in zip(norm.source_ids, norm.values):
    print(f"  {sid}: {x:+.3f}")

matrix = membership_matrix(norm, cfg)
print("\nmembership matrix (rows/cols in id order):")
for sid, row in zip(norm.source_ids, matrix.rows):
    print(f"  {sid}: " + " ".join(f"{u:.3f}" for u in row))

scores = cumulative_scores(matrix)
print("\ncumulative scores:")
for sid, score in zip(norm.source_ids, scores):
    print(f"  {sid}: {score:.3f}")

chosen = select_optimal(scores, norm, cfg)
print(f"\ntop-{cfg.k} optimal set: {', '.join(chosen.sensor_ids)}")

alphas = assign_accuracy(norm, chosen)
print("\naccuracy weights (1 = agrees with the fused consensus):")
for sid, alpha in alphas.items():
    print(f"  {sid}: {alpha:.4f}")

print("\nprobe_a ends up with a tiny weight; the cluster keeps weights near 1.")
