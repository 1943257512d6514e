"""Golden digests: the exact bytes `simulate` writes for two fixed runs.

A seeded run's numbers may change only on purpose. A change that moves any
byte of these files must say why and record the new digests here.
"""

import hashlib

import pytest

from snt_lab.cli import EXIT_OK, main

BASE_ARGS = ("--scenario", "all", "--reps", "20", "--n", "300", "--seed", "42")

GOLDEN = {
    "default": (
        (),
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
        ("--cal-weights", "paper", "--superpop", "5000"),
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
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(case, tmp_path):
    extra, expected = GOLDEN[case]
    assert main(["simulate", *BASE_ARGS, *extra, "--out", str(tmp_path)]) == EXIT_OK
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == expected
