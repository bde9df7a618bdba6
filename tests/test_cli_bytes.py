"""Byte identity of ``ppx verify`` output, and the flags ``verify all`` refuses.

The digests are sha256 of stdout recorded before the suites moved into one
registry (``cli.SUITES``); they pin how --max-n, --m and --p reach each
check, including the sweeps and the (n, m) pairs used when they are absent.
The eq26/eq28 ``--m 12`` digests were recorded while those suites still
reduced matrices of Gaussian binomials built in Z[q], before they were built
in Z[q]/Phi_m itself.  The thm45 digests were recorded while thm45 still
expanded exp_q over Z[q]/(q^2) in the power basis, before the Gaussian one.
"""

import hashlib

import pytest

from ppx import cli

DIGESTS = {
    "verify all":
        "e7da370f6bf361d98f1a1739789b40be451ff5477f2f310158c784f19b9d71a6",
    "verify all --format json":
        "bb686a48af0d559ca544e3f961dcd7c001273d7e152f50c4c6db018c7c9965c8",
    "verify thm43 --m 5 --max-n 15":
        "648b8dd89a9290847a49ed10ba113b084f49cd29b26b421543d83c08436d01b8",
    "verify cor44 --p 7 --max-n 30":
        "8cbe50de7d64176248f78f2e6ffa329a95c59e49c19c4ef58f321c601b6d8c03",
    "verify eq26 --m 3":
        "36ec569374180515fe2b5536c1219f30db8b4eb5129fce546d0f0f0a9f88512d",
    "verify eq28 --m 3 --max-n 7":
        "0dfce819b595f540696a2f54d40750434dc335f62a6ac5cd62838f9e32e8a42e",
    "verify eq26 --m 12":
        "b898e8e9d029f44be44c35869bce5f71aa2150adaf4a2566ba6b90128bb26eea",
    "verify eq28 --m 12":
        "cb0a363752a1fe612a0c7c3496b0ed71056e0487be45d831ff46122989954002",
    "verify pascal-m --m 4 --max-n 9":
        "bf126c8afc8542aeac9ccfeeb88106328fc01647a13cc74c37ddde571217fe2c",
    "verify roundtrip --max-n 6 --format json":
        "6b24d07c5c2a3d56e2a6506020bd8438e2d7452a489a35d55b6efce64ffb7f7a",
    "verify thm45 --max-n 40":
        "84b3c019e924774486142d62458e5c3743f3cb267a4d1721c4d7ac6bd9b327fc",
    "verify thm45 --max-n 12 --format json":
        "574961298bf50b2cd9751c23aeeb62905a6d01ee3a57a3dd899aeebd5c2af2cf",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_bytes(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


@pytest.mark.parametrize("flags", [["--max-n", "40"], ["--m", "3"], ["--p", "5"],
                                   ["--max-n", "7", "--format", "json"]])
def test_verify_all_rejects_suite_parameters(capsys, flags):
    assert cli.main(["verify", "all", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "apply to a single suite" in captured.err
