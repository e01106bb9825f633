"""``edgeprep compare`` on each canned config writes the same bytes.

``test_c9_end_to_end_determinism`` checks that two runs agree; this pins
the bytes themselves, so a speed-up or a refactor that moves any output
fails here.  The digests were recorded before collocated services shared
their rankings and fused windows.  A change that moves one changes an
output, and has to say why.  As a cross-check, ``find fault_scenario
two_service -type f | sort | xargs sha256sum | sha256sum`` over the
written tree gives ``cbb7e0f4...``.
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
            "53c390d1e859c038e82e679adeceb5df04950a16e8ba5ce032be60ff1d7c4af9",
        "no_selection_fused/report.txt":
            "14bc78189c98d7aad6c1a09ef47ac52512620786013ff5f6393c2c6f96799d68",
        "no_selection_fused/selection_trace.csv":
            "216164b2ae8c945133ed8c7c90cca8bb68f38b9925301bfbe3d4a459e0afc8c6",
        "per_service/features_climate.ndjson":
            "53ba5012fabb60ed077f691937365f31caccf8ef8dfc7372e8c5fdb448158679",
        "per_service/report.txt":
            "0e7c8b39d7b56ab4ec4d831ce5d20ca9c2256767db12347da7c7411d4abbd52f",
        "per_service/selection_trace.csv":
            "8c7af9cac9f46f5ce8c5a2f176636dcb16687b814c30df8a350296d7d63bd444",
        "topsis_baseline/features_climate.ndjson":
            "95622c9a374e54c58b5b87b01b43912cb2adda3ab7a8a6d4089d3d88548e2e00",
        "topsis_baseline/report.txt":
            "6bd6484951cec0e7657a47009074039966f1d49535fd309f9d4960a311e3fea2",
        "topsis_baseline/selection_trace.csv":
            "c83b02d56dacc584671300bffd3b0e5f25bea34290658871c6c3518d2d5d1942",
        "unified/features_climate.ndjson":
            "53ba5012fabb60ed077f691937365f31caccf8ef8dfc7372e8c5fdb448158679",
        "unified/report.txt":
            "21c358e430f9925704efce87a0b9ccbcb84d4cfeb139f7b083d7581bdb315f78",
        "unified/selection_trace.csv":
            "8c7af9cac9f46f5ce8c5a2f176636dcb16687b814c30df8a350296d7d63bd444",
    },
    "two_service": {
        "comparison.txt":
            "4166e0517266d38f416f994dbc3c96cd1ddae99513379dbce218001921642cbf",
        "no_selection_fused/features_airquality.ndjson":
            "a1403698fec8f0c221f757af417599d55db8de91420f618792842bcd55227ad0",
        "no_selection_fused/features_occupancy.ndjson":
            "fc878c4b59fa3573602c0892a5b5015c4f77b81b89c6adae363e5a60634401b1",
        "no_selection_fused/report.txt":
            "1d5682561c3290f418491f81a1775749fc2bb656f68267d45b4a16eedf873f76",
        "no_selection_fused/selection_trace.csv":
            "216164b2ae8c945133ed8c7c90cca8bb68f38b9925301bfbe3d4a459e0afc8c6",
        "per_service/features_airquality.ndjson":
            "42db2ca82bdb275ee74dc866577f7ddb5a54fbe46ea5b62bdddd52ab76d7e980",
        "per_service/features_occupancy.ndjson":
            "7a31358d9395b37f06799cfa5b46b26d8c126cb238b38832f3dc7544db03e4bd",
        "per_service/report.txt":
            "f724111a095c2281f67d67acce723c99e3a6390fac79cf37e2d6dc21bb54be31",
        "per_service/selection_trace.csv":
            "2a7a6fc6d4724ce799356c9264414890ddb634a5b93cd86e4e0dc655e76f6564",
        "topsis_baseline/features_airquality.ndjson":
            "86f61002342488294b6e4c7a7f5da332fe5b1b1a51759a1c129fe99ade7dac32",
        "topsis_baseline/features_occupancy.ndjson":
            "8954cc7a1e2a991b2c21f49816dee5a2e0dac09f4026073d9bd9b07f228842b7",
        "topsis_baseline/report.txt":
            "2afe31fecce04299410b416709f107ff11555b61754b713fc9e73ab2b1de4551",
        "topsis_baseline/selection_trace.csv":
            "9ec4d1ad283234096372cc2cce8b2e564b92db13ef9abc57a8735ce069833ded",
        "unified/features_airquality.ndjson":
            "42db2ca82bdb275ee74dc866577f7ddb5a54fbe46ea5b62bdddd52ab76d7e980",
        "unified/features_occupancy.ndjson":
            "7a31358d9395b37f06799cfa5b46b26d8c126cb238b38832f3dc7544db03e4bd",
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
