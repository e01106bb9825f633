"""Stream alignment and Kalman fusion, including the faulty-stream pull.

Part 1 aligns an irregular stream onto a 1-second grid, filling a missing
tick by linear interpolation.  Part 2 fuses three streams twice: first all
healthy, then with one stream reporting a constant offset, which visibly
drags the fused estimate away from the majority.
"""

import math
import random

from edgeprep.fusion import AlignedGrid, KalmanConfig, align, kalman_fuse_streams
from edgeprep.model import Modality, SensorStream

print("-- alignment --")
irregular = SensorStream("s1", Modality.TEMPERATURE,
                         timestamps_ms=(1000, 2050, 4000), values=(20.0, 20.4, 21.2))
ticks = (1000, 2000, 3000, 4000)
grid = align([irregular], ticks, delta_ms=1000, max_gap_ms=2500)
for tick, value in zip(grid.ticks_ms, grid.values[0]):
    origin = "exact" if tick != 3000 else "interpolated"
    print(f"  t={tick:>5} ms  value={value:.3f}  ({origin})")

print("\n-- fusion, all healthy --")
rng = random.Random(1)


def normal(std):
    """One Gaussian draw by Box–Muller over two random() draws, as the
    harness's generators draw their noise."""
    return std * (math.sqrt(-2.0 * math.log(1.0 - rng.random()))
                  * math.cos(2.0 * math.pi * rng.random()))


ticks = tuple(range(1000, 31_000, 1000))
healthy = {
    sid: [21.0 + normal(0.05) for _ in ticks]
    for sid in ("a", "b", "c")
}
grid = AlignedGrid(ticks_ms=ticks, sensor_ids=("a", "b", "c"),
                   values=[healthy[s] for s in ("a", "b", "c")])
fused = kalman_fuse_streams(grid, KalmanConfig())
print(f"  final fused value: {fused.values[-1]:.3f} (all streams near 21.0)")

print("\n-- fusion, one faulty stream at +4 --")
faulty = dict(healthy)
faulty["c"] = [value + 4.0 for value in healthy["c"]]
grid = AlignedGrid(ticks_ms=ticks, sensor_ids=("a", "b", "c"),
                   values=[faulty[s] for s in ("a", "b", "c")])
fused = kalman_fuse_streams(grid, KalmanConfig())
print(f"  final fused value: {fused.values[-1]:.3f} "
      "(dragged off the majority by the faulty stream)")
print("\nthis pull is exactly why selection runs before fusion in the pipeline.")
