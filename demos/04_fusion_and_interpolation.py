"""Stream alignment and Kalman fusion, including the faulty-stream pull.

Part 1 aligns an irregular stream onto a 1-second grid, filling a missing
tick by linear interpolation.  Part 2 fuses three streams twice: first all
healthy, then with one stream reporting a constant offset, which visibly
drags the fused estimate away from the majority.
"""

import numpy as np

from edgeprep.fusion import KalmanConfig, align, kalman_fuse_streams
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
rng = np.random.default_rng(1)
ticks = tuple(range(1000, 31_000, 1000))
healthy = {
    sid: 21.0 + rng.normal(0.0, 0.05, len(ticks))
    for sid in ("a", "b", "c")
}
from edgeprep.fusion import AlignedGrid

grid = AlignedGrid(ticks_ms=ticks, sensor_ids=("a", "b", "c"),
                   values=np.array([healthy[s] for s in ("a", "b", "c")]))
fused = kalman_fuse_streams(grid, KalmanConfig())
print(f"  final fused value: {fused.values[-1]:.3f} (all streams near 21.0)")

print("\n-- fusion, one faulty stream at +4 --")
faulty = dict(healthy)
faulty["c"] = healthy["c"] + 4.0
grid = AlignedGrid(ticks_ms=ticks, sensor_ids=("a", "b", "c"),
                   values=np.array([faulty[s] for s in ("a", "b", "c")]))
fused = kalman_fuse_streams(grid, KalmanConfig())
print(f"  final fused value: {fused.values[-1]:.3f} "
      "(dragged off the majority by the faulty stream)")
print("\nthis pull is exactly why selection runs before fusion in the pipeline.")
