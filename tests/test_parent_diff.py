"""Tests for the comparison step of tools/parent_diff.py (no CLI runs)."""

import importlib.util
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "parent_diff.py"
_SPEC = importlib.util.spec_from_file_location("parent_diff", _PATH)
parent_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parent_diff)

CODES = {name: expected for name, _, expected in parent_diff.COMMANDS}


def write(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)


@pytest.fixture
def roots(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    shared = {"verify/verify.json": "{}\n", "figures/fig1.csv": "x\n1\n"}
    write(base, shared)
    write(head, shared)
    return base, head


def test_twenty_three_commands_with_distinct_names():
    names = [name for name, _, _ in parent_diff.COMMANDS]
    assert len(names) == 23 == len(set(names))
    # the three refused sweeps are expected to exit 2, the refused wide
    # cell 3, every other command 0
    assert {name for name, _, code in parent_diff.COMMANDS if code} == {
        "scatter_unsettled", "scatter_overflowing", "scatter_opaque_barrier",
        "spectrum_wide_cell"}
    assert {CODES["scatter_unsettled"], CODES["scatter_overflowing"],
            CODES["scatter_opaque_barrier"]} == {2}
    assert CODES["spectrum_wide_cell"] == 3


def test_identical_outputs_report_nothing(roots):
    assert parent_diff.differences(*roots, CODES, CODES) == []


def test_every_kind_of_difference_is_reported(roots):
    base, head = roots
    write(base, {"figures/fig2.csv": "x\n"})
    write(head, {"figures/fig1.csv": "x\n2\n", "spectrum_q2/extra.json": "[]\n"})
    head_codes = dict(CODES, verify=1)
    found = parent_diff.differences(base, head, CODES, head_codes)
    assert found == [
        ("verify", "exit code 0 at base, 1 here"),
        ("figures/fig1.csv", "differs, largest relative difference 5.0e-01"),
        ("figures/fig2.csv", "only at base"),
        ("spectrum_q2/extra.json", "only here"),
    ]


@pytest.mark.parametrize("old,new,what", [
    ("x,V\n0.5,-1.0e6\n", "x,V\n0.5,-1.000000000001e6\n", "largest relative difference 1.0e-12"),
    ('{"a": [1.5, -2], "d": "gap 3.1e-12"}\n', '{"a": [1.5, -2], "d": "gap 3.3e-12"}\n',
     "largest relative difference 6.1e-02"),
    ("x,V\n0.5,1.0\n", "x,V\n0.5,1.0\n0.6,1.0\n", "structure differs"),
    ('{"passed": true}\n', '{"passed": false}\n', "structure differs"),
    ("x\n1\n", "x\n-1\n", "largest relative difference 2.0e+00"),
], ids=["csv", "json-text", "extra-row", "json-flag", "sign"])
def test_numeric_gap_of_a_differing_table(old, new, what):
    # numbers in strings count too; anything else that moves is structure
    assert parent_diff.numeric_gap(old, new) == what


def test_only_tables_report_a_numeric_gap(roots):
    base, head = roots
    write(base, {"figures/notes.txt": "1.0\n", "verify/verify.json": '{"m": 2.0}\n'})
    write(head, {"figures/notes.txt": "1.5\n", "verify/verify.json": '{"m": 2.5}\n'})
    assert parent_diff.differences(base, head, CODES, CODES) == [
        ("figures/notes.txt", "differs"),
        ("verify/verify.json", "differs, largest relative difference 2.0e-01"),
    ]


def test_a_failing_command_is_reported_even_when_base_fails_too(roots):
    codes = dict(CODES, verify=1)
    assert parent_diff.differences(*roots, codes, codes) == [
        ("verify", "exit code 1 at base, 1 here"),
    ]
    # a command that failed at base and passes here is a difference as well
    assert parent_diff.differences(*roots, codes, CODES) == [
        ("verify", "exit code 1 at base, 0 here"),
    ]


def test_an_expected_nonzero_exit_is_not_reported(roots):
    # the refused sweeps exit 2 at base and here, as they must
    assert parent_diff.differences(*roots, CODES, CODES) == []
    # exiting 0 instead is a difference, even when base did the same
    passed = dict(CODES, scatter_unsettled=0)
    assert parent_diff.differences(*roots, passed, passed) == [
        ("scatter_unsettled", "exit code 0 at base, 0 here"),
    ]


def test_commands_run_with_one_blas_thread(tmp_path, monkeypatch):
    # the bytes of a complex spectrum depend on the BLAS thread count, so
    # both trees run at one thread whatever the caller's environment says
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.setenv(var, "4")
    src = tmp_path / "src"
    envs = []

    def run(args, env, **kwargs):
        envs.append(env)
        # the import probe reads text, each command's output is saved as bytes
        stdout = f"{src}/susywell/__init__.py\n" if kwargs.get("text") else b""
        return subprocess.CompletedProcess(args, 0, stdout=stdout, stderr=b"")

    monkeypatch.setattr(parent_diff, "subprocess", SimpleNamespace(run=run))
    parent_diff.run_commands(src, tmp_path)
    assert len(envs) == 1 + len(parent_diff.COMMANDS)
    assert all(env[var] == "1" for env in envs for var in blas)


def test_a_stderr_difference_is_reported(roots):
    base, head = roots
    stderr = f"scatter_overflowing/{parent_diff.STDERR}"
    write(base, {stderr: "evanescent exponent 799.98783983669\n"})
    write(head, {stderr: "evanescent exponent 799.98833985131\n"})
    assert parent_diff.differences(base, head, CODES, CODES) == [(stderr, "differs")]


def test_a_stdout_difference_is_reported(roots):
    base, head = roots
    stdout = f"scatter_barrier/{parent_diff.STDOUT}"
    write(base, {stdout: "PASS flux_conservation (max defect 2.220e-16)\n"})
    write(head, {stdout: "PASS flux_conservation (max defect 4.441e-16)\n"})
    assert parent_diff.differences(base, head, CODES, CODES) == [(stdout, "differs")]


def test_commands_save_their_stdout_and_stderr(tmp_path, monkeypatch):
    src = tmp_path / "src"

    def run(args, env, **kwargs):
        if kwargs.get("text"):
            return subprocess.CompletedProcess(args, 0, stdout=f"{src}/susywell/__init__.py\n")
        return subprocess.CompletedProcess(args, 0, stdout=f"out of {args[3]}\n".encode(),
                                           stderr=f"err of {args[3]}\n".encode())

    monkeypatch.setattr(parent_diff, "subprocess", SimpleNamespace(run=run))
    parent_diff.run_commands(src, tmp_path)
    for name, args, _ in parent_diff.COMMANDS:
        out = tmp_path / "out" / name
        assert (out / parent_diff.STDOUT).read_text() == f"out of {args[0]}\n"
        assert (out / parent_diff.STDERR).read_text() == f"err of {args[0]}\n"


@pytest.mark.parametrize("path,allow,expect", [
    ("verify/verify.json", ["verify/verify.json"], True),
    ("verify/verify.json", ["verify"], True),
    ("verify", ["verify/"], True),
    ("verify_more/verify.json", ["verify"], False),
    ("figures/fig1.csv", [], False),
])
def test_allow_names_a_path_or_what_lies_under_it(path, allow, expect):
    assert parent_diff.allowed(path, allow) is expect


SHA = "5eb2146cf7261c1be0c957efce3ea953231780fc"
OTHER = "0123456789abcdef0123456789abcdef01234567"


def test_the_allow_list_allows_only_against_its_own_base():
    text = (f"# a comment\n\n{SHA} scatter_plane/scatter.csv\n"
            f"{OTHER} verify\n{SHA}   scatter_plane_left/scatter.json  \n")
    assert parent_diff.allow_listed(text, SHA) == [
        "scatter_plane/scatter.csv", "scatter_plane_left/scatter.json"]
    assert parent_diff.allow_listed(text, OTHER) == ["verify"]
    assert parent_diff.allow_listed(text, "f" * 40) == []


@pytest.mark.parametrize("line", [
    "5eb2146 scatter_plane/scatter.csv",
    f"{SHA}",
    f"{SHA} scatter_plane/scatter.csv verify",
    f"{SHA.upper()} verify",
])
def test_a_malformed_allow_list_entry_is_refused(line):
    with pytest.raises(SystemExit, match=":2: expected"):
        parent_diff.allow_listed(f"{OTHER} verify\n{line}\n", OTHER)


def test_the_committed_allow_list_parses():
    assert parent_diff.allow_listed(parent_diff.ALLOW_LIST.read_text(), "f" * 40) == []


def test_an_entry_applies_when_base_resolves_to_its_sha(tmp_path, monkeypatch):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "base")
    base = git("rev-parse", "HEAD")
    git("commit", "-q", "--allow-empty", "-m", "next")
    monkeypatch.setattr(parent_diff, "ROOT", tmp_path)
    text = f"{base} scatter_plane\n"
    for rev in (base, base[:10], "HEAD~1"):
        assert parent_diff.resolve(rev) == base
        assert parent_diff.allow_listed(text, parent_diff.resolve(rev)) == ["scatter_plane"]
    # a later base: the entry lapses
    assert parent_diff.allow_listed(text, parent_diff.resolve("HEAD")) == []
    with pytest.raises(SystemExit, match="names no commit"):
        parent_diff.resolve("no-such-rev")
