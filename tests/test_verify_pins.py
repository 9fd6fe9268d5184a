"""The verify suites whose verdicts did not move keep their output bytes.

sha256 of ``verify_SUITE.json``, of its manifest and of stdout for the
benchmark's ``verify`` sizes (``symplectic`` at d = 6 over 300 paths,
``balance`` at d = 4 with 1500 samples and d = 5 with 750) and for one run
of each other suite, plus every suite's run over no path or no sample
(``probdecay``'s excepted: its report gained the top-level
``"verdict": "inconclusive"`` that every inconclusive report carries).
The pins were taken before each suite returned its report and one verdict
for ``cmd_verify`` to turn into the ``violated`` field, the printed word
and the exit code; each run uses the default seed 0 and d = 4 unless it
says otherwise.  The float suites pass through numpy's generators and its
LAPACK solve; the pins were taken with numpy 2.4.6.
"""
from __future__ import annotations

import hashlib

import pytest

from ietkit.cli import EXIT_OK, main

# verify arguments -> sha256 of (verify_SUITE.json, its manifest, stdout)
PINNED = {
    ('symplectic', '--d', '6', '--paths', '300'): (
        "09a6a31eef6a2ced1aca3bbf577aac8ecef4300a956fe7a03545495587971493",
        "bad20b2f0f668cd1f761b5ab09807cf4d73e2fe24ddb3df29b33af785e7b41fa",
        "63d204202adcb1c319d8eae7f5095f0301e4f37a648229c05e15ee4745f11a04",
    ),
    ('volume', '--paths', '50'): (
        "cc9ab5fd4aeeea8fa35015a2410f9889a7112bc2a802eb97ef5858dac5bd96ae",
        "abfa9109a8df45c9bef5978e1f8af0bb22ab000e99d972da94c332275fbbdbbb",
        "173462fc7fd639a316d9c621364b5428e6addc8b1e56e915a696db1c66ac9fe9",
    ),
    ('jacobian', '--samples', '2000'): (
        "0778356aadf5e0b52fc46f0eed1ed8db5e3db0c710fa6d20fa4ed7edee17e4fd",
        "389e1bedb5ae64a5c504a46eed55bb418b9d23fa357607d6082c18edcf1c1c04",
        "c1642560c3ac31cc5ec556fd946c40f5b0afaba718afff96bf1db2b608aec4d3",
    ),
    ('probdecay', '--samples', '500'): (
        "14df99b9dba828608f3118b176bad6a1607af5a3614452f2ecbd70764420b1fd",
        "c0c49b073f06be80588165632eeedb8ac513abe60b7c270d3680e7299fd483dc",
        "ce4427d483908a3edd8237a6761877e9925a4e058c031d6fd109a171e9be21e2",
    ),
    ('balance', '--d', '4', '--samples', '1500'): (
        "e29630cff3f4b8d2a82b500f13ace22d5a49a39cf5ce4aa9981e398bbbc03399",
        "ff1b8d9ac7d50fcaa5b01f1f418dceefedc48ab45400ec696a0812b0a4aeaa25",
        "d86cc939d052c3949a7c116d01510bb104ab6f69005ca22f31429919a87bbd12",
    ),
    ('balance', '--d', '5', '--samples', '750'): (
        "af36b513d6ac2d1aa829eaa96070f648ef636243b17090f37f3eb6d56aca1bfc",
        "ea0a53b5d08ed3fc24f25999ed183b0280ea92b7fb3f5d35727e93d66ae530bd",
        "d86cc939d052c3949a7c116d01510bb104ab6f69005ca22f31429919a87bbd12",
    ),
    ('symplectic', '--paths', '0'): (
        "7ba9551acb36ee8ac345531311810144fba203b888694d7679ed807b7ad74140",
        "130a3335c0f23f126ce98916619220ffa7103af789aacf195a6409c1fa5a5d81",
        "4e3447203334fbda758b243a63398664c9743431e726332ef23e17597b20955e",
    ),
    ('volume', '--paths', '0'): (
        "65d18210cc1e92de7f884501a23b33915822e4f9995a677d5d69d9345a2b4f55",
        "51670e6de297efad3a34f5af2e8ee3cbd565bfd417dda1ee119faf2070aa8b20",
        "1ffda79aa47f2be9289e880d9e999834b17e71614f92639fcd112c36690fcbde",
    ),
    ('jacobian', '--samples', '0'): (
        "3f220b76c9d11d012e2440dec42462bf2df09e7d09de329b64e2616a0b1ec2b1",
        "4be32d234cc6edd39351458315834d20dd772a27af353d6f8a199ee19e4f0f9b",
        "af8b315f43b15d83d8054f51391ac9d7496a66ac81fca3895c6f05f009e21b0b",
    ),
    ('balance', '--samples', '0'): (
        "40052bda9794be25d0da5725f7f9d2959f0498fdd3912453cfaee406ea567c26",
        "2b3c9a341cf4f04111e3f5cd55cc6b87099ad0b25ae4f5db8cb22ff03d05eaad",
        "23913b6c0167541db4a4292af60b9d7a0834094f9be4f342a25db94831e4e661",
    ),
    ('concavity', '--samples', '0'): (
        "83eb02cfc2e3022a18d93a16b55b2bc659a81c45e6d78f08eb26e5b725403264",
        "89b979a59ded6b325748d4a67b93c34a1ae11ad617649e740ce2c9fa3fd84fa1",
        "2f493dc77a7e26b776518d7edead633d74743cd080537cefdb055ffa79a85a2f",
    ),
}


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_verify_files_and_stdout_keep_their_pinned_bytes(tmp_path, capsys, argv):
    assert main(["verify", *argv, "--out", str(tmp_path)]) == EXIT_OK
    suite = argv[0]
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            (tmp_path / f"verify_{suite}.json").read_bytes(),
            (tmp_path / f"verify_{suite}_manifest.json").read_bytes(),
            capsys.readouterr().out.encode(),
        )
    )
    assert digests == PINNED[argv]
