"""Golden digests of the CLI artifacts: the byte-identical output contract.

One small configuration per command runs in a fresh directory, and the sha256
of every file it writes (JSON, CSV, plot data, snapshots) is folded into one
digest per case.  A refactor or speed-up that keeps every output bit keeps
these digests; a change that moves a single bit of any artifact does not.

The digests were taken on Python 3.11.7, numpy 2.4.6 and scipy 1.17.1
(x86-64).  Other numpy/scipy builds may round FFTs or splines differently;
record the digests again there with ``python tests/test_golden.py``.
"""
import contextlib
import hashlib
import io
import os

import pytest

from mixwave.cli import main

BASE = ["--a", "1", "--sigma", "0.5", "--n", "1"]

CASES = {
    "kernels": ["kernels", *BASE, "--b", "1", "--seed", "7"],
    "solve": ["solve", *BASE, "--b", "2", "--p", "1.5", "--eps", "1.0",
              "--grid-n", "256", "--box-l", "40", "--t-end", "8.0", "--snapshots"],
    "solve-2d": ["solve", "--a", "1", "--b", "1", "--sigma", "1.5", "--n", "2",
                 "--p", "2.0", "--eps", "2.0", "--grid-n", "64", "--box-l", "16",
                 "--t-end", "3.0"],
    "profile": ["profile", *BASE, "--b", "1", "--p", "3.0", "--eps", "0.1",
                "--grid-n", "256", "--box-l", "50", "--t-end", "5.0"],
    "fraclap-check": ["fraclap-check", "--a", "1", "--b", "1", "--sigma", "1.5",
                      "--n", "1"],
    "blowup-functional": ["blowup-functional", *BASE, "--b", "1", "--p", "1.5",
                          "--eps", "1.0", "--grid-n", "256", "--box-l", "50",
                          "--t-end", "30.0"],
}

GOLDEN = {
    "blowup-functional": "68a0fababf05df4eb3a4837f8920a1273e3550a0555eacec5a99a0b2d0c75a29",
    "fraclap-check": "0e547c26e41349436c3a5512589b4ca1fc498b38d1961b8ad30e62df58d4bacd",
    "kernels": "2b03c9b960d9662ad07cccdff788ca0826174c76dac4154d55f377536fd1f54d",
    "profile": "7bbf4173ba2ceb23890b2de4a6bda3e70279b6c1a3e497cee09bf448e9fd9147",
    "solve": "dd5e7e175858d26cbb8c59224cd2f294365891cd029f0a63cc15144db94f1c5b",
    "solve-2d": "318118015387a5adcfece41a6489c4c1764799cc8f0d9671c783a980c21593c2",
}


def artifact_digest(out_dir) -> str:
    """sha256 over the sorted (file name, file sha256) pairs of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(f"{name}:{hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    return h.hexdigest()


def run_case(name) -> tuple[int, str]:
    """Run one case into ./<name> (a relative path, so the embedded config
    does not depend on the working directory) and digest its artifacts."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(CASES[name] + ["--out", name])
    return code, artifact_digest(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, digest = run_case(name)
    assert code == 0
    assert digest == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    os.chdir(tempfile.mkdtemp())
    for case in sorted(CASES):
        print(f'    "{case}": "{run_case(case)[1]}",')
