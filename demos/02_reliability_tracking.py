"""Consistency-based reliability: a steady sensor vs a flaky one.

Reliability is earned by appearing in the voted optimal set at the expected
cadence.  Two sensors are observed over six 5-second intervals with five
expected samples each (one per second); the steady sensor is almost always
consistent, the flaky one keeps missing the optimal set.

The weight is a Poisson probability mass, so its absolute scale is small by
construction; what matters is the comparison across sensors sharing the
same interval length and expected count.  With the interval length (in
seconds) equal to the expected count, the weight is monotone in the number
of consistent appearances, which is the regime the pipeline runs in.
"""

from edgeprep.reliability import ReliabilityState, close_interval

# per interval: how many of the five expected samples landed in the optimal set
steady_pattern = [5, 5, 4, 5, 5, 5]
flaky_pattern = [5, 2, 0, 1, 0, 3]


def track(name, pattern):
    state = ReliabilityState(n_expected=5)
    print(f"{name}:")
    t_ms = 0
    for interval, q in enumerate(pattern, start=1):
        # the other 5 - q samples missed the optimal set and earn nothing
        state.q = q
        t_ms += 5_000
        close_interval([state], t_ms)
        print(
            f"  interval {interval}: q={q}/5"
            f"  rate={state.lambda_history[-1][2]:.2f}"
            f"  weight={state.beta:.4f}"
        )
    return state


steady = track("steady_sensor", steady_pattern)
flaky = track("flaky_sensor", flaky_pattern)

print(
    f"\nlatest-interval weights: steady={steady.beta:.4f}"
    f" vs flaky={flaky.beta:.4f}"
)
print("services rank on the latest interval weight by default; a cumulative")
print("variant that integrates the whole rate history is also maintained.")
