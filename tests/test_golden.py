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
            "estimates.csv": "0d206dfa7f7a36ed338e6a99d2c3ec23f0decd03d07192adbb811b85fcc848a8",
            "describe.csv": "8b7c4db035f41ca4b17f1f8f3ae3019bf1926ad55171b60bc4c6a95ef3e13d1b",
            "summary.csv": "f759bca51a0130958450413b9390b2bd3b97890871054a95fdfab20439c8adc2",
            "figure3.csv": "414c4756711ca44e75bec641d220dc239fbe2fc464fb418d1e5e385ee24f9b66",
            "figureS3.csv": "025cc9f3c9863fb61cd271e978afdaef42b2603c3c8f31b4ede8021fa4602779",
        },
    ),
    "paper-weights-superpop": (
        (*BASE_ARGS, "--cal-weights", "paper", "--superpop", "5000"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "99c87d84997fb526786cef37dfafe8758fb1080f5a5dc5f8ce79e8ca7321ff17",
            "describe.csv": "1c9e4ee4eb8febdb01cbe33f383986b516f83dc76fdb088cf3781aa5971abd48",
            "summary.csv": "6f4a23a17ecaf0cd29cd194212cc37e4525cedb17cabe7d5a3283d624663c3be",
            "figure3.csv": "9819654fc27fd9c8cae9590f7e59d89e2e076c926e43691e7d66551de842e9fb",
            "figureS3.csv": "d4330b1e7d867d08a79b61a7aee51cf606e40c664fad62959871c627a6510e53",
        },
    ),
    "tiny-every-flag": (
        ("--scenario", "all", "--n", "8", "--reps", "300", "--seed", "3"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "20fe429800444e2c603e17d361a6c8bc83f75db798aef8a76d0c0078e4f249db",
            "describe.csv": "7f329a43603190431c0700883bcd401d5fccf33029e2d21d2be9216f124da3da",
            "summary.csv": "0280b2dc64dbc8aa3a3541dda919044dc7bf49842fba7e4d5d061c34c1f00f09",
            "figure3.csv": "acdd08d8b80837abeb53344dffe8443880ddf7c3ef9cb88e256b3dac46d8e999",
            "figureS3.csv": "28d00312766e934ad2498249d7e6eeaada0a35cbf0905aa814ea87ef495cabe5",
        },
    ),
    "paper-cohort": (
        ("--scenario", "all", "--n", "5000", "--reps", "3", "--seed", "42"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "64903bb885bea68544812452e3cc5a76ead3e562b87f315a0fc5c361c4d5b4b2",
            "describe.csv": "b6a58043d2b898977d779330296f726abe768ff73c57ec0e27f0f29923650822",
            "summary.csv": "eaa968a229b06b30558be1e273f7f877829ae913eda61972062494292111f92c",
            "figure3.csv": "7fa228e0f27c6d888dfb22fe3d1d6cdf3ec0163ad4a80f54540f80933bb623c0",
            "figureS3.csv": "56103f106cdc80fd81a73571e4decfb047e3f77ca5872f54bf9130238e23f762",
        },
    ),
    "superpop-two-workers": (
        ("--scenario", "all", "--n", "100", "--reps", "40", "--seed", "11",
         "--superpop", "2000", "--threads", "2"),
        {
            "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
            "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
            "estimates.csv": "d28cc40430145d01d3f6cf43abcc6f8da309172b40b4c18b39295419ae314fef",
            "describe.csv": "7cceecec038382e5baf09dd9819eacd7978d211571d18add772d4a9c12c539b1",
            "summary.csv": "e6baace2f9d6c026bb524f4bf9f36bde37e0ad9036607eb902b415cfbf21fb95",
            "figure3.csv": "7e82eaa64c403c47e053a14dc51af08575b9165e79365e5f83f4ba2035bed184",
            "figureS3.csv": "5fd1deb5dda891565dda706e4abea81f8fc4daeeeeb67dc407f54dedbb0beb6c",
        },
    ),
}


#: The files the re-aggregation verbs write, run in turn on each case's output
#: directory: summary.csv from the rounded estimates.csv, then the figures
#: from that summary.
REAGGREGATED = {
    "default": {
        "summary.csv": "fd7c09e7e917ac641efee78c8899384800febbc7ffd2d852ccdda4735c5295e1",
        "describe_summary.csv": "08f680b970f4a5babd6ffa04d0b6b7a5cb48ebf3f2eabfe4732043c7ff747c16",
        "figure3.csv": "c8218b846685a9e980553a84569a61f113f9cbab4aca791a36dcc60e0f10e0c1",
        "figureS3.csv": "5d9a707a767b58b3c1d5e6f2a842de7550264e1df509c883a42830c79c14434a",
    },
    "paper-cohort": {
        "summary.csv": "cd75d9b3345befc82baa557841f72b6db4bd3d7d48befc941941f16943034bac",
        "describe_summary.csv": "36a23e48a91ef6c244ff95c762e140b7501480c3827d1b014db4e6fe2584af61",
        "figure3.csv": "bf2b87eae3079b1406a364001b599e1fa72a0a13f68cb046b6655741d942783f",
        "figureS3.csv": "921563c345d433be02cefbc3138c4ebe316fc3600198e1ed6c3f62ee1c64b299",
    },
    "paper-weights-superpop": {
        "summary.csv": "c8f5736b853f55c3750c9fe1b4db5c52798b37de38db6628a1e8e721174006f8",
        "describe_summary.csv": "3c5469eba7b77c287e408591d95d592952913ac51cc21f2ac1f213a6021db8bf",
        "figure3.csv": "91f01091ab558c69eca050a9fba00d03fed4526582c39be187ddb30ddd1ebffe",
        "figureS3.csv": "5c2ce526b3ac5301a3f5d1001cd52e7ea40df4dedb0e6bb784f978f48aa3c9c7",
    },
    "superpop-two-workers": {
        "summary.csv": "df92556792ed81c4de4485344b684211a7d28e345c5b4fbc60acaee0771d8133",
        "describe_summary.csv": "6464ae36970df8a2c54f432a055a873d2da916df0a91567dba46660e71e3d1a4",
        "figure3.csv": "0b70fc5ab5d39c62e0f66382b23a6f83f03a9787d8c4179a47f3f632ea4dab96",
        "figureS3.csv": "f0da63615260a4a9be022faa28c4e1a585c5a8e3c06cf992350399ad1436257c",
    },
    "tiny-every-flag": {
        "summary.csv": "b71842aa3cbcbde8311c8c658483ceda19970b3519f891951f8936228a621e3c",
        "describe_summary.csv": "7328d68e6a77a7d8ec2192a6df8e32c00145b29ad521d64ae164e3b6383ea888",
        "figure3.csv": "ae258f00ebcc714df5b4a5f211fdd87e92a979b914381e8993ca958a048f1e2e",
        "figureS3.csv": "0140f4331587ad690ad5781677852e3ea288778fd1237b55d8310cd15ad98aa2",
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
