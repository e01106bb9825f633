"""Unified preprocessing for two collocated services.

An occupancy service (5 s period) and an air-quality service (1 s period)
share motion and temperature sensors, identical window shapes, and the
presence inference.  In unified mode a cycle ranks each shared cohort and
fuses each shared window once for both services, and computes each shared
feature once.  Running the same scenario in unified mode and in
per-service mode shows identical feature vectors with strictly fewer
feature-function invocations when results are shared.
"""

from pathlib import Path

from edgeprep.harness import load_scenario, run_scenario
from edgeprep.pipeline import Mode

cfg = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "two_service.yaml")

unified = run_scenario(cfg, mode=Mode.UNIFIED)
per_service = run_scenario(cfg, mode=Mode.PER_SERVICE)

print("feature vectors identical across modes:",
      unified.features == per_service.features)
print(f"unified     invocations={unified.feature_invocations:<4} "
      f"cache hits={unified.cache_hits}")
print(f"per-service invocations={per_service.feature_invocations:<4} "
      f"cache hits={per_service.cache_hits}")
saved = per_service.feature_invocations - unified.feature_invocations
print(f"\n{saved} computations avoided by sharing "
      f"({unified.distinct_feature_keys} distinct feature keys, "
      "each computed exactly once in unified mode)")

sample = unified.features[-1]
print(f"\nlast feature vector ({sample.service_id} @ t={sample.t_ms} ms):")
for name, value in sample.components.items():
    print(f"  {name}: {value:.4f}")
print(f"  provenance: {', '.join(sample.provenance)}")
