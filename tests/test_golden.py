"""``edgeprep compare`` on each canned config writes the same bytes.

``test_c9_end_to_end_determinism`` checks that two runs agree; this pins
the bytes themselves, so a speed-up or a refactor that moves any output
fails here.  The digests were recorded before collocated services shared
their rankings and fused windows.  A change that moves one changes an
output, and has to say why.  As a cross-check, ``find fault_scenario
two_service -type f | sort | xargs sha256sum | sha256sum`` over the
written tree gives ``d9cdb868...``.

The twelve ``features_*.ndjson`` pins moved once, when the feature
statistics became exact sums: ``mean`` is ``math.fsum(v) / n`` instead of
``np.mean``, whose pairwise sum rounds at every step.  417 of the 1 488
``*_mean`` values moved, each by at most 2 ulps; no ``presence`` value,
trace or report moved.
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
            "17a5ef183c2f011ac7bfa7af86af31929817d96be6f9c77d9739b776436082c7",
        "no_selection_fused/report.txt":
            "14bc78189c98d7aad6c1a09ef47ac52512620786013ff5f6393c2c6f96799d68",
        "no_selection_fused/selection_trace.csv":
            "216164b2ae8c945133ed8c7c90cca8bb68f38b9925301bfbe3d4a459e0afc8c6",
        "per_service/features_climate.ndjson":
            "a9dec41015c49acaa9ebc2f4b42e7a40c9a0cad2f2e6807a60099a87020d3eb3",
        "per_service/report.txt":
            "0e7c8b39d7b56ab4ec4d831ce5d20ca9c2256767db12347da7c7411d4abbd52f",
        "per_service/selection_trace.csv":
            "8c7af9cac9f46f5ce8c5a2f176636dcb16687b814c30df8a350296d7d63bd444",
        "topsis_baseline/features_climate.ndjson":
            "9a9a6af0e5d7db9ad83824dacbe079c81602f4f1f8b3b9da6eb669d385d5a70b",
        "topsis_baseline/report.txt":
            "6bd6484951cec0e7657a47009074039966f1d49535fd309f9d4960a311e3fea2",
        "topsis_baseline/selection_trace.csv":
            "c83b02d56dacc584671300bffd3b0e5f25bea34290658871c6c3518d2d5d1942",
        "unified/features_climate.ndjson":
            "a9dec41015c49acaa9ebc2f4b42e7a40c9a0cad2f2e6807a60099a87020d3eb3",
        "unified/report.txt":
            "21c358e430f9925704efce87a0b9ccbcb84d4cfeb139f7b083d7581bdb315f78",
        "unified/selection_trace.csv":
            "8c7af9cac9f46f5ce8c5a2f176636dcb16687b814c30df8a350296d7d63bd444",
    },
    "two_service": {
        "comparison.txt":
            "4166e0517266d38f416f994dbc3c96cd1ddae99513379dbce218001921642cbf",
        "no_selection_fused/features_airquality.ndjson":
            "9484bc83ac6614b546140d00678deae1883fb0a622fe7e761267c0b9b7051c16",
        "no_selection_fused/features_occupancy.ndjson":
            "63b7ccb5a5431e76a9c7a7ef386b637fbccf5ac82ae5d19128799d60b8245837",
        "no_selection_fused/report.txt":
            "1d5682561c3290f418491f81a1775749fc2bb656f68267d45b4a16eedf873f76",
        "no_selection_fused/selection_trace.csv":
            "216164b2ae8c945133ed8c7c90cca8bb68f38b9925301bfbe3d4a459e0afc8c6",
        "per_service/features_airquality.ndjson":
            "16bc7c6d7957ba7382c8de7a308c6f6cb4dc902bcfa7d84db4066e01f91555c4",
        "per_service/features_occupancy.ndjson":
            "eef3cc39f7a51d12bfca04793af31ffb328d0d033cdc89562505e00bb7c90b4a",
        "per_service/report.txt":
            "f724111a095c2281f67d67acce723c99e3a6390fac79cf37e2d6dc21bb54be31",
        "per_service/selection_trace.csv":
            "2a7a6fc6d4724ce799356c9264414890ddb634a5b93cd86e4e0dc655e76f6564",
        "topsis_baseline/features_airquality.ndjson":
            "f38bc6f67ebe03a357a26bc2ddb6788dca9495debb600545b9922835e280aa64",
        "topsis_baseline/features_occupancy.ndjson":
            "059ef9b316002c9575fc7a177d42437a5bbbb255bac4eba6b19b2efa39519732",
        "topsis_baseline/report.txt":
            "2afe31fecce04299410b416709f107ff11555b61754b713fc9e73ab2b1de4551",
        "topsis_baseline/selection_trace.csv":
            "9ec4d1ad283234096372cc2cce8b2e564b92db13ef9abc57a8735ce069833ded",
        "unified/features_airquality.ndjson":
            "16bc7c6d7957ba7382c8de7a308c6f6cb4dc902bcfa7d84db4066e01f91555c4",
        "unified/features_occupancy.ndjson":
            "eef3cc39f7a51d12bfca04793af31ffb328d0d033cdc89562505e00bb7c90b4a",
        "unified/report.txt":
            "efba389dfc0b53a4279532edeac127f8fd121ec91227bd8da6412f7e93850a88",
        "unified/selection_trace.csv":
            "2a7a6fc6d4724ce799356c9264414890ddb634a5b93cd86e4e0dc655e76f6564",
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
