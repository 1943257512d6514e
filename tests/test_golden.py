"""Golden digests: the exact bytes `simulate` writes for fixed runs, and
those that `summarize`, `describe` and `plot-data` then write from its files.

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


#: The files the re-aggregation verbs write, run in turn on each case's output
#: directory: summary.csv from the rounded estimates.csv, then the figures
#: from that summary.
REAGGREGATED = {
    "default": {
        "summary.csv": "5490d2ed6ba13d015851d437e2113689921ffa8db305dda18413559a1ec90e83",
        "describe_summary.csv": "d05290914c2189b46efbece4be0b6e4bb520affe5d4b81434af3d254036d82d0",
        "figure3.csv": "d955d3ce40abde67717ef2c0ea17412886d44a8bdf36e7ba7378c461785bb659",
        "figureS3.csv": "268e40ceb5b6ba2e1ab2ce1cd6b55c53155c6f9ebc96f877475e03e6a2c1f26c",
    },
    "paper-cohort": {
        "summary.csv": "8f30a2de8f6e657fb39a9e43ca509faf2564c04893a8b8ef48f11b69ebb8f6a7",
        "describe_summary.csv": "98aa59d599672506f3ca058419063e073d096146c26081e19727915de4812221",
        "figure3.csv": "b9f1fbcefc41cda3caa32b0b6db8aa17aa236f9aedb5982d36785c8567380c79",
        "figureS3.csv": "cec73bee3f4992e6be6b176ccdf5d526d654a40c3e8e29fa8ef99ddafab1a54f",
    },
    "paper-weights-superpop": {
        "summary.csv": "2b6b5977bba5f7ebd48790dd64177080e5d745f96a8e6663a2e647173d28e3c8",
        "describe_summary.csv": "78cb7ef8bb86af0ee3a8b460c304c04c0e232c6d8fbcfbbf1a6b4e4835d0e0b2",
        "figure3.csv": "f72b031b88d63298e804ba9841188cde6d5792335f2e80feaa1a751a4c45c0e5",
        "figureS3.csv": "a467da69609562c08cf49808d0794f037ced9e0817b960e983bc5845ff0b92e5",
    },
    "superpop-two-workers": {
        "summary.csv": "977e09d74adcefca929d1efc897c0c7ad5e4f9bff6b02138783d2e7776eb8d3f",
        "describe_summary.csv": "4d717526c39b9d94bff0c8fd80ec9d70ada4f5180b4931df950cac7f54535841",
        "figure3.csv": "958621a83275a566ef8de70e95bc46d8418828becb492e13283e8d68ee93d637",
        "figureS3.csv": "41d8e98d9f105d0f0dc221157aa1526a1acbc8fa730f13837f887846eface78f",
    },
    "tiny-every-flag": {
        "summary.csv": "d92510cb931a1525d938faf128e37f99b776965a4a63016ad418c838a2b0783c",
        "describe_summary.csv": "00498ac89a184bae533a3877cede55bdeac367b4b81f8e97013348768d5218dd",
        "figure3.csv": "720f278ec6afa5a6a330f719363e355107346207ed072eb19a60ef97018bd2fb",
        "figureS3.csv": "18779670fd8b01f0d51740e8098e28c5eef4d9a20d4d412ae33713a0cc7a27aa",
    },
}
REAGGREGATION_VERBS = ("summarize", "describe", "plot-data")


def digests_of(paths):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(case, tmp_path):
    args, expected = GOLDEN[case]
    assert main(["simulate", *args, "--out", str(tmp_path)]) == EXIT_OK
    assert digests_of(tmp_path.iterdir()) == expected
    for verb in REAGGREGATION_VERBS:
        assert main([verb, "--out", str(tmp_path)]) == EXIT_OK, verb
    reaggregated = REAGGREGATED[case]
    assert digests_of(tmp_path / name for name in reaggregated) == reaggregated
