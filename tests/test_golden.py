"""Golden digests: the exact bytes `simulate` writes for fixed runs.

A seeded run's numbers may change only on purpose. A change that moves any
byte of these files must say why and record the new digests here.
"""

import hashlib

import pytest

from snt_lab.cli import EXIT_OK, main

BASE_ARGS = ("--scenario", "all", "--reps", "20", "--n", "300", "--seed", "42")

GOLDEN = {
    "default": (
        BASE_ARGS,
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "b3e25c14446d830d81e44f9d44eef01fa6feb8abc574f37da72cb6f625517524",
            "describe.csv": "3bcc1f5ffb057d501345ecd989b6f7a5e5d5c02aa81843434b90b2b2041d43d7",
            "summary.csv": "2c0ceb5adb7cec9a94b344be800900388ad69bda6c9f820a97a5ade894d95338",
            "figure3.csv": "a45a6eeff0cb2a1893cece02314bbdfc9138a6a364a24cf224e4973c9294eedb",
            "figureS3.csv": "c2e3d4776a9af7f66c408873332ca878fcfbd26c702be82e57d0077e4acd2da4",
        },
    ),
    "paper-weights-superpop": (
        (*BASE_ARGS, "--cal-weights", "paper", "--superpop", "5000"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "b8257bb249b0119807e97a678da1e1cad5d96a4ac8287dd339ede490714b3823",
            "describe.csv": "81ce35ccc7607b078a2e01dddb0f712e6b88f859a9ff7d49ce55cc8c52e4eb72",
            "summary.csv": "0109fb6b81097c30bd252a65647a33744c3d793871b22d12075adecd71507c7c",
            "figure3.csv": "b2f6174704beba7964e863689bb70bf1ceba7bb280b58e8b9d88cb13b47bc95a",
            "figureS3.csv": "55568919905fca6ae323b082f00a3466e3bf422f56c90237bfd96d1e65d18f54",
        },
    ),
    "tiny-every-flag": (
        ("--scenario", "all", "--n", "8", "--reps", "300", "--seed", "3"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "f03f1b831762017c1dd7c97ed15f3f12a3fb4f2d9c5dcb67546508b0afb72ef3",
            "describe.csv": "0d2908bfa529a9ff0d84d8695db44dcf406f47e8528f8c066403251175732a2b",
            "summary.csv": "f9a36f7da3b03f856c5662a94c335b7d1681fd9e18c78e2daa7e1a1ff1885ced",
            "figure3.csv": "237dc71e61504b45b238ef5c3fa68f914a73e0938d2a598073d10db427442576",
            "figureS3.csv": "89475d5fdd0d31ee163a947b5cf051b03b8b36efe2155a9523cffaec93ed8f85",
        },
    ),
    "paper-cohort": (
        ("--scenario", "all", "--n", "5000", "--reps", "3", "--seed", "42"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "635ec259e00a746cf7ab900b82ad8d93f20438067c9be5f02538c0417db89285",
            "describe.csv": "755c028b04521c8db376f9ff0d274f5535c4c754abd8880b6285d008cd964f13",
            "summary.csv": "b4354f2c618422c24b7ac192e2b5991228f37a5b54d1f3894e22d116470c74f3",
            "figure3.csv": "2411ece5eba0c644a60f0c165ee57a60eb32e13a43947938417bd1ba7f0b6c5b",
            "figureS3.csv": "f147175ea74e9ae3e4dee990dbb88690b51edea5d77fa75c64e9211039644461",
        },
    ),
    "superpop-two-workers": (
        ("--scenario", "all", "--n", "100", "--reps", "40", "--seed", "11",
         "--superpop", "2000", "--threads", "2"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "f286ba655f5057710b8e94d3d632b4a759f49d41d22ddd5e9410c3867f3bf923",
            "describe.csv": "3455aa721bfddb656899fe355f5f26c59ad0f0226f68de9f78ed76b18766acbe",
            "summary.csv": "8834790db450e517de08e7bff36ee36428ab51e4e91e9c9132fe11c63ec969e7",
            "figure3.csv": "9a2dcf23f1f349ca36e378841dceef27b44e9cd4dfad5872986570331703d69c",
            "figureS3.csv": "0d958f77051d73b21631b90bde3a858a1b58f0d5287a666902adad55b41e30b4",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(case, tmp_path):
    args, expected = GOLDEN[case]
    assert main(["simulate", *args, "--out", str(tmp_path)]) == EXIT_OK
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == expected
