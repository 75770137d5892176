"""Golden digests of the CLI artifacts: the byte-identical output contract.

One small configuration per command runs in a fresh directory, and the sha256
of every file it writes (JSON, CSV, snapshots) is folded into one digest per
case.  A refactor or speed-up that keeps every output bit keeps these digests;
a change that moves a single bit of any artifact does not.  A mismatch lists
the sha256 of each file the case wrote, so a comparison against the files of a
known-good tree shows which one moved.

The digests were taken on Python 3.11.7 and numpy 2.4.6 (x86-64).  Other
numpy builds or C math libraries may round FFTs, matrix products or Gamma
differently; record the digests again there with ``python tests/test_golden.py``,
which prints each case's digest above the sha256 of each of its files.
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
    "solve-linear": ["solve", *BASE, "--b", "2", "--p", "1.5", "--eps", "1.0",
                     "--grid-n", "256", "--box-l", "40", "--t-end", "5.0",
                     "--snapshots", "--linear"],
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
    "blowup-functional": "b62b5421ac03528df522a78855f45f305309e72239073284272fd57c81e45db2",
    "fraclap-check": "d27bc34d2fc7f53d6d2a9abbe458ef43a65bf9be6339804cef519afe43379075",
    "kernels": "353f598d48b7ca2928666d3af8b7884cf243d11f8eec64e4a3f58e256347dd24",
    "profile": "fb166d9a26af6b4eb73ed230cb6707c95f62cddc3deebb1d9dae2ce5d5d43092",
    "solve": "f054db23cf98b820cdef4ccf3e0bd56469d85117df573c2124ee8b34e58731f8",
    "solve-2d": "36558c9a1f0407e2c40e5ebdc3ce6aab9174f7130fb758c61db38bd37e48ea5c",
    "solve-linear": "31938ba858a2c6385f285f3a3e6461be2c268bc833b5145414922a7648396ff5",
}


def artifact_lines(out_dir) -> list[str]:
    """'name:sha256' of each file of a directory, sorted by name."""
    lines = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            lines.append(f"{name}:{hashlib.sha256(fh.read()).hexdigest()}")
    return lines


def run_case(name) -> tuple[int, str, list[str]]:
    """Run one case into ./<name> (a relative path, so the embedded config
    does not depend on the working directory); returns the exit code, the
    digest (sha256 over the artifact lines, each newline-terminated) and the
    artifact lines."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(CASES[name] + ["--out", name])
    lines = artifact_lines(name)
    digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
    return code, digest, lines


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, digest, lines = run_case(name)
    assert code == 0
    assert digest == GOLDEN[name], "artifacts:\n" + "\n".join(lines)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for case in sorted(CASES):
            _, digest, lines = run_case(case)
            print(f'    "{case}": "{digest}",')
            for line in lines:
                print(f"        # {line}")
