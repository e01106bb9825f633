"""``edgeprep compare`` on each canned config writes the same bytes.

``test_c9_end_to_end_determinism`` checks that two runs agree; this pins
the bytes themselves, so a speed-up or a refactor that moves any output
fails here.  The digests were recorded before collocated services shared
their rankings and fused windows.  A change that moves one changes an
output, and has to say why.  As a cross-check, ``find fault_scenario
two_service -type f | sort | xargs sha256sum | sha256sum`` over the
written tree gives ``0670a71f...``.

The twelve ``features_*.ndjson`` pins moved once, when the feature
statistics became exact sums: ``mean`` is ``math.fsum(v) / n`` instead of
``np.mean``, whose pairwise sum rounds at every step.  417 of the 1 488
``*_mean`` values moved, each by at most 2 ulps; no ``presence`` value,
trace or report moved.

Twenty pins moved once more, when the seeded draws came from ``random``
instead of numpy: each generator's noise is Box–Muller over two
``random()`` calls, where it was numpy's ``standard_normal``, so every
synthetic stream moved.  Every feature file moved with them, and so did
the per-service and unified traces and reports, which rank on scores the
streams set; the ``comparison.txt`` pins and the fused and static
baselines' traces and reports did not move.
"""

import hashlib

import pytest

from edgeprep.cli import main
from conftest import CONFIGS

#: config name -> path under the output directory -> SHA-256 of its bytes
GOLDEN = {
    "fault_scenario": {
        "comparison.txt":
            "fd087d4cc6a7ef39b5e1f2e2e216ffd4255c7ce9a14e1b880eb154539aefcee1",
        "no_selection_fused/features_climate.ndjson":
            "a6b9ea6e061708fcb25a38fa364490f756a5902fcbd846aecdd5f470bb17aa2d",
        "no_selection_fused/report.txt":
            "14bc78189c98d7aad6c1a09ef47ac52512620786013ff5f6393c2c6f96799d68",
        "no_selection_fused/selection_trace.csv":
            "216164b2ae8c945133ed8c7c90cca8bb68f38b9925301bfbe3d4a459e0afc8c6",
        "per_service/features_climate.ndjson":
            "df1e1810b9cea596b9d3ca21300726cf98f086093a4e3e1b0eff492aa49a30a6",
        "per_service/report.txt":
            "af44ce257d059b9e7c65f98fce330740d5cb52ed93cf9fade2148873c26c6d25",
        "per_service/selection_trace.csv":
            "14904186a1803ef1407c88300c4186f318cc2ac0603f0255234781ade7b79866",
        "topsis_baseline/features_climate.ndjson":
            "0ae9ec2ffae5bd463857a2a69df70151c16e472b36abb94a058678a7fc07ec8f",
        "topsis_baseline/report.txt":
            "6bd6484951cec0e7657a47009074039966f1d49535fd309f9d4960a311e3fea2",
        "topsis_baseline/selection_trace.csv":
            "c83b02d56dacc584671300bffd3b0e5f25bea34290658871c6c3518d2d5d1942",
        "unified/features_climate.ndjson":
            "df1e1810b9cea596b9d3ca21300726cf98f086093a4e3e1b0eff492aa49a30a6",
        "unified/report.txt":
            "be68bef7464bb314eeb1d6a814854249e20831adbedf76256ea07f595e689707",
        "unified/selection_trace.csv":
            "14904186a1803ef1407c88300c4186f318cc2ac0603f0255234781ade7b79866",
    },
    "two_service": {
        "comparison.txt":
            "4166e0517266d38f416f994dbc3c96cd1ddae99513379dbce218001921642cbf",
        "no_selection_fused/features_airquality.ndjson":
            "05f2cba8e84ad5ae0b1965173612a84c5a2712e3ab89de67521663a3fddf31eb",
        "no_selection_fused/features_occupancy.ndjson":
            "261ee2ba0fa52ccb0d2eb0bc527533600cee896283588d3bfba1277f9aa9a5cf",
        "no_selection_fused/report.txt":
            "1d5682561c3290f418491f81a1775749fc2bb656f68267d45b4a16eedf873f76",
        "no_selection_fused/selection_trace.csv":
            "216164b2ae8c945133ed8c7c90cca8bb68f38b9925301bfbe3d4a459e0afc8c6",
        "per_service/features_airquality.ndjson":
            "9f7df0648ca533be1d279d2e21acb3c631488ea4b02ecfe219b4b7fb3e3471e7",
        "per_service/features_occupancy.ndjson":
            "4e06e1fc5931deca38dcb4cb82c2566b4d53d6e5c25a4916dda68d728f6700bc",
        "per_service/report.txt":
            "301f6f456984fcb67c83bd5fc5e4a636d67117339f2f839da90359774e4f0f7a",
        "per_service/selection_trace.csv":
            "b9b1adf7c42a59f2f917c305b5a165972f9ff31d65d08db69e4016903126a91c",
        "topsis_baseline/features_airquality.ndjson":
            "3fab23487f2b57ee2d7682332972adac00622739013e2813ba5c9face94880a9",
        "topsis_baseline/features_occupancy.ndjson":
            "d535a435d3a87b5097d650dee025f25019dd97c6ecbc71783d1fc8e31cd826f9",
        "topsis_baseline/report.txt":
            "2afe31fecce04299410b416709f107ff11555b61754b713fc9e73ab2b1de4551",
        "topsis_baseline/selection_trace.csv":
            "9ec4d1ad283234096372cc2cce8b2e564b92db13ef9abc57a8735ce069833ded",
        "unified/features_airquality.ndjson":
            "9f7df0648ca533be1d279d2e21acb3c631488ea4b02ecfe219b4b7fb3e3471e7",
        "unified/features_occupancy.ndjson":
            "4e06e1fc5931deca38dcb4cb82c2566b4d53d6e5c25a4916dda68d728f6700bc",
        "unified/report.txt":
            "7b456eb4f382f6fbd377564299f56e1f4e529cb0c196af5685a56bc7bdcf57ee",
        "unified/selection_trace.csv":
            "b9b1adf7c42a59f2f917c305b5a165972f9ff31d65d08db69e4016903126a91c",
    },
}


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_compare_artifacts_are_byte_identical(config, tmp_path):
    assert main(["compare", "--config", str(CONFIGS / f"{config}.yaml"),
                 "--out", str(tmp_path)]) == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert written == GOLDEN[config]
