"""Ranking sensors against a service's ideal attribute vector.

Three sensors with different accuracy/reliability trade-offs are ranked
twice: once with accuracy-priority weights, once with reliability-priority
weights.  The static TOPSIS baseline is shown for contrast; because it only
ever sees the attribute snapshot, its choice cannot react to the dynamic
scores changing.
"""

import numpy as np

from edgeprep.model import QosProfile
from edgeprep.ranking import rank_and_select, topsis_select

# a cohort is its ascending sensor ids plus one attribute row per id
sensor_ids = ("accurate_but_flaky", "balanced", "steady_but_coarse")
states = np.array([
    # alpha beta  gamma eps  kappa
    [0.98, 0.30, 0.8, 0.7, 0.9],
    [0.85, 0.80, 0.7, 0.7, 0.8],
    [0.75, 0.95, 0.5, 0.6, 0.8],
])


def show(title, ranking, qos):
    """Print the cohort in rank order; the service selects its leading
    ``select_count`` ids."""
    print(f"{title}:")
    _, ranked = ranking
    for sid, d_m, d_a, d_ma, rank in sorted(ranked, key=lambda row: row[4]):
        marker = " <- selected" if rank <= qos.select_count else ""
        print(f"  {rank}. {sid:<20} d_M={d_m:.3f} d_A={d_a:.4f} d_MA={d_ma:.3f}{marker}")
    print()


accuracy_first = QosProfile(service_id="svc", weights=(5, 0.5, 1, 1, 1))
reliability_first = QosProfile(service_id="svc", weights=(0.5, 5, 1, 1, 1))

show("accuracy-priority weights",
     rank_and_select(sensor_ids, states, accuracy_first), accuracy_first)
show("reliability-priority weights",
     rank_and_select(sensor_ids, states, reliability_first), reliability_first)
show("TOPSIS baseline (same snapshot, accuracy weights)",
     topsis_select(sensor_ids, states, accuracy_first), accuracy_first)

print("swap the weights and the adaptive ranking swaps its choice;")
print("the baseline would keep re-ranking the same frozen snapshot forever.")
