"""The exit-code contract of ``latintb.cli.main``, fuzzed in-process.

Every run, whatever its inputs, ends in exit 0, 1 or 2, and no exception
escapes ``main``. A non-zero exit writes exactly one line to stderr.
``metadata-validate`` also lists its violations, one line each, on
stdout; its one stderr line counts them.

The faults are byte mutations of a copy of each kind of input, bad
paths in place of each path option, and a failed write of each output
file. A failing run writes no output file. A path that cannot be read or
written for lack of permission is not among them: the suite may run as
root, which no file mode stops, and a faked ``PermissionError`` would
test nothing that ``OSError`` does not.
"""

from __future__ import annotations

import ast
import codecs
import contextlib
import errno
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import latintb
from latintb import splits
from latintb.cli import _fail, main

FIXTURES = Path(__file__).parent / "fixtures"
PUBLISHED = Path(latintb.__file__).parent / "data" / "published_split_assignment.tsv"


def run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process run, checked against the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert stderr.endswith("\n") and len(stderr.splitlines()) == 1, (argv, stderr)
    return code, stderr


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """Clean inputs: one UD and one LASLA file, their manifest, and the
    converted fixture corpora with their manifest, which split reads."""
    base = tmp_path_factory.mktemp("inputs")
    shutil.copy(FIXTURES / "ud" / "cl_alpha.conllu", base)
    shutil.copy(FIXTURES / "lasla" / "lasla_alpha.conllu", base)
    ud, lasla = FIXTURES / "ud", FIXTURES / "lasla"
    for argv in (
        ["dedup", "--a", base / "cl_alpha.conllu", "--b", base / "lasla_alpha.conllu",
         "--out", base / "dups.tsv"],
        ["dedup", "--a", ud, "--b", lasla, "--out", base / "all_dups.tsv"],
        ["convert", "--in", ud, "--flavor", "ud", "--out", base / "std" / "ud"],
        ["convert", "--in", lasla, "--flavor", "lasla", "--out", base / "std" / "lasla"],
    ):
        assert run(argv)[0] == 0
    return base


def reader_of(kind: str, base: Path, path: Path, out: Path) -> list:
    """A command that reads ``path``, an input of this kind, and writes under ``out``."""
    ud, lasla = base / "cl_alpha.conllu", base / "lasla_alpha.conllu"
    return {
        "ud": ["convert", "--in", path, "--flavor", "ud", "--out", out / "std"],
        "lasla": ["lint", "--in", path, "--flavor", "lasla", "--out", out / "lint.tsv"],
        "metadata": ["metadata-validate", "--file", path],
        "manifest": ["agree", "--a", ud, "--b", lasla, "--dups", path,
                     "--out", out / "agreement.tsv"],
        "published": ["split", "--ud", base / "std" / "ud", "--lasla", base / "std" / "lasla",
                      "--metadata", FIXTURES / "metadata.tsv", "--dups", base / "all_dups.tsv",
                      "--config", FIXTURES / "config.json", "--published-assignment", path,
                      "--out", out / "splits"],
        "config": ["lint", "--in", ud, "--config", path, "--out", out / "lint.tsv"],
    }[kind]


def clean_input(kind: str, base: Path) -> bytes:
    return {
        "ud": base / "cl_alpha.conllu",
        "lasla": base / "lasla_alpha.conllu",
        "metadata": FIXTURES / "metadata.tsv",
        "manifest": base / "dups.tsv",
        "published": PUBLISHED,
        "config": FIXTURES / "config.json",
    }[kind].read_bytes()


KINDS = ("ud", "lasla", "metadata", "manifest", "published", "config")


def _line(data: bytes, at: int) -> tuple[int, int]:
    """Start and end (past its newline) of the line that holds byte ``at``."""
    start = data.rfind(b"\n", 0, at) + 1
    end = data.find(b"\n", at)
    return start, len(data) if end < 0 else end + 1


def _bom_mid_file(data: bytes, at: int) -> bytes:
    start, _ = _line(data, at)
    return data[:start] + codecs.BOM_UTF8 + data[start:]


def _repeat_line(data: bytes, at: int) -> bytes:
    start, end = _line(data, at)
    return data[:end] + data[start:end] + data[end:]


def _retab(data: bytes, at: int, tab: bytes) -> bytes:
    """The first tab at or after ``at`` (else the last tab) replaced by ``tab``."""
    index = data.find(b"\t", at)
    if index < 0:
        index = data.rfind(b"\t")
    return data if index < 0 else data[:index] + tab + data[index + 1:]


MUTATIONS = {
    "truncate": lambda data, at: data[:at],
    "drop-tab": lambda data, at: _retab(data, at, b""),
    "double-tab": lambda data, at: _retab(data, at, b"\t\t"),
    "nul": lambda data, at: data[:at] + b"\0" + data[at:],
    "invalid-utf8": lambda data, at: data[:at] + b"\xff" + data[at:],
    "crlf-from-here": lambda data, at: data[:at] + data[at:].replace(b"\n", b"\r\n"),
    "bom-mid-file": _bom_mid_file,
    "repeat-line": _repeat_line,
}


@pytest.mark.parametrize("kind", KINDS)
def test_each_clean_input_is_read_without_failure(base, tmp_path, kind):
    path = tmp_path / "input"
    path.write_bytes(clean_input(kind, base))
    assert run(reader_of(kind, base, path, tmp_path)) == (0, "")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), mutation=st.sampled_from(sorted(MUTATIONS)),
       at=st.integers(min_value=0, max_value=1 << 20))
def test_a_mutated_input_keeps_the_exit_code_contract(base, kind, mutation, at):
    data = clean_input(kind, base)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input"
        path.write_bytes(MUTATIONS[mutation](data, at % (len(data) + 1)))
        run(reader_of(kind, base, path, Path(work)))


def commands(base: Path, out: Path) -> list[list]:
    """One run of every subcommand that succeeds on clean inputs; each
    option value that is a Path names a file or directory."""
    ud, lasla = base / "cl_alpha.conllu", base / "lasla_alpha.conllu"
    gold = base / "std" / "ud" / "cl_alpha.conllu"
    config = FIXTURES / "config.json"
    return [
        ["convert", "--in", ud, "--flavor", "ud", "--out", out / "std", "--config", config],
        ["dedup", "--a", ud, "--b", lasla, "--out", out / "dups.tsv", "--report", out / "r.tsv",
         "--metadata", FIXTURES / "metadata.tsv", "--config", config],
        ["agree", "--a", ud, "--b", lasla, "--dups", base / "dups.tsv",
         "--out", out / "agreement.tsv", "--config", config],
        ["metadata-validate", "--file", FIXTURES / "metadata.tsv", "--corpus", FIXTURES / "ud",
         "--config", config],
        ["split", "--ud", base / "std" / "ud", "--lasla", base / "std" / "lasla",
         "--metadata", FIXTURES / "metadata.tsv", "--dups", base / "all_dups.tsv",
         "--published-assignment", PUBLISHED, "--out", out / "splits", "--config", config],
        ["eval", "--gold", gold, "--pred", gold, "--out", out / "eval.json", "--config", config],
        ["perm-test", "--gold", gold, "--a", gold, "--b", gold, "--n", "20",
         "--out", out / "perm.tsv", "--config", config],
        ["lint", "--in", ud, "--out", out / "lint.tsv", "--config", config],
    ]


def bad_path(kind: str, work: Path) -> Path:
    """A path of this kind under ``work``; the ``-lf`` kinds hold a line feed."""
    for name in ("a-directory", "a\ndirectory"):
        (work / name).mkdir(exist_ok=True)
    for name in ("a-file", "a\nfile"):
        (work / name).write_text("x\n")
    return {
        "missing": work / "missing" / "name",
        "directory": work / "a-directory",
        "file": work / "a-file",
        "under-a-file": work / "a-file" / "name",
        "missing-lf": work / "miss\ning" / "name",
        "directory-lf": work / "a\ndirectory",
        "file-lf": work / "a\nfile",
    }[kind]


BAD_PATH_KINDS = ("missing", "directory", "file", "under-a-file",
                  "missing-lf", "directory-lf", "file-lf")


def test_every_command_succeeds_on_clean_paths(base, tmp_path):
    for argv in commands(base, tmp_path):
        assert run(argv) == (0, ""), argv


@settings(max_examples=40, deadline=None)
@given(command=st.integers(min_value=0, max_value=7), option=st.integers(min_value=0),
       kind=st.sampled_from(BAD_PATH_KINDS))
def test_a_bad_path_keeps_the_exit_code_contract(base, command, option, kind):
    with tempfile.TemporaryDirectory() as work:
        argv = commands(base, Path(work))[command]
        slots = [i for i, arg in enumerate(argv) if isinstance(arg, Path)]
        argv[slots[option % len(slots)]] = bad_path(kind, Path(work))
        run(argv)


@pytest.mark.parametrize("command", ["convert", "dedup"])
def test_a_directory_without_a_conllu_file_is_an_error(tmp_path, command):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("not a corpus\n")
    out = tmp_path / "out"
    argv = {
        "convert": ["convert", "--in", corpus, "--flavor", "ud", "--out", out],
        "dedup": ["dedup", "--a", corpus, "--b", corpus, "--out", out],
    }[command]
    assert run(argv) == (1, f"error: {corpus}: no .conllu file in this directory\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["sent_id", "newdoc id", "work_id"])
def test_an_id_holding_a_tab_fails_before_any_output(tmp_path, key):
    # with Case=Foo, a read that let the id through would reach anomalies.tsv
    corpus = tmp_path / "in.conllu"
    corpus.write_text(f"# {key} = s\t1\n1\tx\tx\tNOUN\t_\tCase=Foo\t_\t_\t_\t_\n\n")
    out = tmp_path / "out"
    code, stderr = run(["convert", "--in", corpus, "--flavor", "ud", "--out", out])
    assert (code, stderr) == (1, f"error: {corpus}: line 1: {key} 's\\t1' holds a tab or a line break\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["convert", "dedup", "lint"])
def test_a_file_stem_holding_a_tab_fails_before_any_output(tmp_path, command):
    # the stem numbers a sentence without a "# sent_id" (s\t1-1) and names its work;
    # the clean file before it in the directory is read, but nothing is written
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.conllu").write_text("# sent_id = a1\n1\tx\tx\tNOUN\t_\t_\t_\t_\t_\t_\n\n")
    bad = corpus / "s\t1.conllu"
    bad.write_text("1\tx\tx\tNOUN\t_\tCase=Foo\t_\t_\t_\t_\n\n")
    out = tmp_path / "out"
    argv = {
        "convert": ["convert", "--in", corpus, "--flavor", "ud", "--out", out],
        "dedup": ["dedup", "--a", FIXTURES / "ud", "--b", corpus, "--b-flavor", "ud",
                  "--out", out],
        "lint": ["lint", "--in", corpus, "--out", out],
    }[command]
    assert run(argv) == (1, f"error: {bad}: stem 's\\t1' holds a tab or a line break\n")
    assert not out.exists()


def test_a_failure_escapes_every_line_boundary_and_nothing_else(capsys):
    boundaries = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]
    text = "x\\n\t" + "".join(boundaries) + "y"
    assert _fail("error", ValueError(text), 1) == 1
    stderr = capsys.readouterr().err
    escaped = "".join(repr(c)[1:-1] for c in boundaries)
    assert stderr == f"error: x\\n\t{escaped}y\n"
    assert len(stderr.splitlines()) == 1


def test_a_file_stem_holding_a_line_feed_fails_in_one_line(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "a\nb.conllu"
    bad.write_text("1\tx\tx\tNOUN\t_\t_\t_\t_\t_\t_\n\n")
    out = tmp_path / "lint.tsv"
    escaped = str(bad).replace("\n", "\\n")
    assert run(["lint", "--in", corpus, "--out", out]) == (
        1, f"error: {escaped}: stem 'a\\nb' holds a tab or a line break\n")
    assert not out.exists()


def tree(root: Path) -> dict[Path, bytes | None]:
    """Every path under ``root``, with a file's bytes and None for a directory."""
    return {path: None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


def test_a_late_input_error_leaves_no_output(tmp_path):
    # dedup computes its manifest before it reads the metadata of --report
    out = tmp_path / "o"
    out.mkdir()
    missing = out / "missing.tsv"
    argv = ["dedup", "--a", FIXTURES / "ud", "--b", FIXTURES / "lasla", "--out", out / "dups.tsv",
            "--report", out / "r.tsv", "--metadata", missing]
    assert run(argv) == (1, f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    assert tree(tmp_path) == {out: None}


def test_an_output_path_held_by_a_directory_fails_before_any_output(tmp_path):
    std = tmp_path / "o2" / "std"
    held = std / "anomalies.tsv"
    held.mkdir(parents=True)
    before = tree(tmp_path)
    argv = ["convert", "--in", FIXTURES / "ud", "--flavor", "ud", "--out", std]
    assert run(argv) == (1, f"error: [Errno 21] Is a directory: {str(held)!r}\n")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("case", ["same-spelling", "input-named-like-a-report", "dot-dot"])
def test_two_outputs_that_name_one_file_fail_before_any_output(tmp_path, case):
    # an existing output keeps its bytes, and no other file is written
    held = tmp_path / "x.tsv"
    held.write_bytes(b"earlier\n")
    (tmp_path / "sub").mkdir()
    pair = ["dedup", "--a", FIXTURES / "ud", "--b", FIXTURES / "lasla", "--out", held]
    if case == "same-spelling":
        argv, first, second = [*pair, "--report", held], held, held
    elif case == "dot-dot":
        second = tmp_path / "sub" / ".." / "x.tsv"
        argv, first = [*pair, "--report", second], held
    else:  # convert writes each input under its own name, beside its reports
        corpus = tmp_path / "anomalies.tsv"
        shutil.copy(FIXTURES / "ud" / "bible_john.conllu", corpus)
        held = tmp_path / "d" / "anomalies.tsv"
        held.parent.mkdir()
        held.write_bytes(b"earlier\n")
        argv = ["convert", "--in", corpus, "--flavor", "ud", "--out", held.parent]
        first = second = held
    before = tree(tmp_path)
    assert run(argv) == (1, f"error: {second}: names the same file as output {first}\n")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("case", ["dedup-out", "agree-out", "eval-out", "convert-out",
                                  "dedup-report", "through-a-symlink"])
def test_an_output_that_names_an_input_fails_before_any_output(base, tmp_path, case):
    # the input keeps its bytes, and no file, not even a staged .<name>.<pid>.new, is written
    corpus, manifest = tmp_path / "a.conllu", tmp_path / "d.tsv"
    shutil.copy(base / "cl_alpha.conllu", corpus)
    shutil.copy(base / "dups.tsv", manifest)
    lasla = base / "lasla_alpha.conllu"
    if case == "dedup-out":
        argv, output = ["dedup", "--a", corpus, "--b", lasla, "--out", corpus], corpus
    elif case == "agree-out":
        argv = ["agree", "--a", corpus, "--b", lasla, "--dups", manifest, "--out", manifest]
        output = manifest
    elif case == "eval-out":
        gold = tmp_path / "g.conllu"
        shutil.copy(base / "std" / "ud" / "cl_alpha.conllu", gold)
        argv, output = ["eval", "--gold", gold, "--pred", gold, "--out", gold], gold
    elif case == "convert-out":  # each .conllu file of a directory input is an input
        shutil.copytree(FIXTURES / "ud", tmp_path / "ud")
        argv = ["convert", "--in", tmp_path / "ud", "--flavor", "ud", "--out", tmp_path / "ud"]
        output = tmp_path / "ud" / "bible_john.conllu"
    elif case == "dedup-report":
        table = tmp_path / "m.tsv"
        shutil.copy(FIXTURES / "metadata.tsv", table)
        argv = ["dedup", "--a", corpus, "--b", lasla, "--out", tmp_path / "x.tsv",
                "--report", table, "--metadata", table]
        output = table
    else:  # the input read is the link's target
        link = tmp_path / "link.conllu"
        link.symlink_to(corpus)
        argv, output = ["dedup", "--a", link, "--b", lasla, "--out", corpus], corpus
    named = link if case == "through-a-symlink" else output
    before = tree(tmp_path)
    assert run(argv) == (1, f"error: {output}: names the same file as input {named}\n")
    assert tree(tmp_path) == before


def test_a_symlink_at_an_output_path_is_replaced_not_followed(tmp_path):
    target = tmp_path / "x.tsv"
    target.write_bytes(b"earlier\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    argv = ["dedup", "--a", FIXTURES / "ud", "--b", FIXTURES / "lasla", "--out", target,
            "--report", link]
    assert run(argv) == (0, "")
    assert not link.is_symlink()
    assert target.read_text().startswith("sent_a\t") and link.read_text().startswith("author\t")


def test_an_output_file_gets_its_missing_directories(base, tmp_path):
    out = tmp_path / "new" / "dir" / "lint.tsv"
    assert run(["lint", "--in", base / "cl_alpha.conllu", "--out", out]) == (0, "")
    assert set(tree(tmp_path)) == {tmp_path / "new", out.parent, out}


def test_a_text_that_cannot_be_encoded_fails_without_output(tmp_path):
    # a file name that is not UTF-8 reads as a stem holding a lone surrogate,
    # which no output could encode: the reader refuses it, naming the input
    corpus, out, name = tmp_path / "corpus", tmp_path / "out", os.fsdecode(b"\xff.conllu")
    corpus.mkdir()
    try:
        (corpus / name).write_bytes(b"1\tx\tx\tNOUN\t_\t_\t_\t_\t_\t_\n\n")
    except OSError:
        pytest.skip("the file system refuses a file name that is not UTF-8")
    code, stderr = run(["convert", "--in", corpus, "--flavor", "ud", "--out", out])
    assert (code, stderr) == (1, f"error: {corpus / name}: stem '\\udcff' cannot be encoded as UTF-8\n")
    assert not out.exists()


COMMAND_NAMES = [argv[0] for argv in commands(Path(), Path())]


@pytest.mark.parametrize("command", range(len(COMMAND_NAMES)), ids=COMMAND_NAMES)
def test_a_failed_write_leaves_every_output_path_as_it_was(base, tmp_path, monkeypatch, command):
    """The k-th file write of the commit fails, for every k, with the
    outputs absent (their directories too) or holding earlier bytes."""
    write_text = Path.write_text
    clean = tmp_path / "clean"
    clean.mkdir()
    assert run(commands(base, clean)[command]) == (0, "")
    outputs = [path.relative_to(clean) for path, data in tree(clean).items() if data is not None]
    for earlier in (False, True):
        for k in range(len(outputs)):
            work = tmp_path / f"{earlier}-{k}"
            for output in outputs if earlier else ():
                (work / output).parent.mkdir(parents=True, exist_ok=True)
                (work / output).write_bytes(b"earlier\n")
            work.mkdir(exist_ok=True)
            before = tree(work)
            writes = []

            def failing_write(path, text, *args, **kwargs):
                writes.append(path)
                if len(writes) <= k:
                    return write_text(path, text, *args, **kwargs)
                write_text(path, text[: len(text) // 2], *args, **kwargs)  # a partial file
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

            with monkeypatch.context() as patch:
                patch.setattr(Path, "write_text", failing_write)
                code, stderr = run(commands(base, work)[command])
            siblings = {(work / o).with_name(f".{o.name}.{os.getpid()}.new"): work / o for o in outputs}
            assert len(writes) == k + 1 and writes[k] in siblings
            failed = siblings[writes[k]]
            assert (code, stderr) == (1, f"error: [Errno {errno.ENOSPC}] "
                                         f"{os.strerror(errno.ENOSPC)}: {str(failed)!r}\n")
            assert tree(work) == before, (earlier, k)


@pytest.mark.parametrize("command", range(len(COMMAND_NAMES)), ids=COMMAND_NAMES)
@pytest.mark.parametrize("failing", ["replace", "link"])
def test_a_failed_rename_or_link_puts_every_output_back(base, tmp_path, monkeypatch, command, failing):
    """The k-th os.replace of the commit fails, for every k, with the outputs
    absent or holding earlier bytes; or the k-th os.link, which keeps an
    earlier output, fails. The outputs renamed before it are put back, and
    no .new or .old sibling or directory made is left."""
    clean = tmp_path / "clean"
    clean.mkdir()
    assert run(commands(base, clean)[command]) == (0, "")
    outputs = [path.relative_to(clean) for path, data in tree(clean).items() if data is not None]
    real = getattr(os, failing)
    for earlier in (True,) if failing == "link" else (False, True):
        for k in range(len(outputs)):
            work = tmp_path / f"{earlier}-{k}"
            for output in outputs if earlier else ():
                (work / output).parent.mkdir(parents=True, exist_ok=True)
                (work / output).write_bytes(b"earlier\n")
            work.mkdir(exist_ok=True)
            before = tree(work)
            calls = []

            def fails_kth(src, dst, *args, **kwargs):
                calls.append(src if failing == "link" else dst)  # the output's path
                if len(calls) == k + 1:
                    raise OSError(errno.EIO, os.strerror(errno.EIO), str(dst))
                return real(src, dst, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(os, failing, fails_kth)
                code, stderr = run(commands(base, work)[command])
            assert calls[k] in {work / o for o in outputs}, (earlier, k)
            assert (code, stderr) == (1, f"error: [Errno {errno.EIO}] "
                                         f"{os.strerror(errno.EIO)}: {str(calls[k])!r}\n")
            assert tree(work) == before, (earlier, k)


def test_a_link_left_by_a_killed_run_of_the_same_pid_is_replaced(tmp_path):
    # a killed run leaves its .old links; a later run that gets its pid still commits
    out = tmp_path / "lint.tsv"
    out.write_bytes(b"earlier\n")
    out.with_name(f".lint.tsv.{os.getpid()}.old").write_bytes(b"left by a killed run\n")
    assert run(["lint", "--in", FIXTURES / "ud" / "cl_alpha.conllu", "--out", out]) == (0, "")
    assert list(tree(tmp_path)) == [out] and out.read_bytes().startswith(b"sent_id\t")


# what writes a file, makes a directory or links a name to a file: calls by these names,
# os.replace, and an open() given a mode that writes
WRITING_CALLS = frozenset({"write_text", "write_bytes", "mkdir", "makedirs", "touch", "rename",
                           "unlink", "rmdir", "link", "symlink", "symlink_to", "hardlink_to"})


def writing_calls(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        modes = [arg.value for arg in [*node.args, *(kw.value for kw in node.keywords if kw.arg == "mode")]
                 if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        if (name in WRITING_CALLS
                or ast.unparse(func) == "os.replace"
                or name == "open" and any(set(m) <= set("rwxabt+") and set(m) & set("wax+")
                                          for m in modes)):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(func)}")
    return found


def test_only_cli_writes_files():
    calls = {path.name: writing_calls(path)
             for path in sorted(Path(latintb.__file__).parent.glob("*.py"))}
    assert calls.pop("cli.py"), "the scan sees the writes of cli.main"
    assert [call for found in calls.values() for call in found] == []


def test_only_the_cli_entry_ends_the_process_with_os_exit():
    # the one process exit that skips the interpreter's teardown comes after main has
    # committed every output and entry has flushed stdout and stderr
    package = Path(latintb.__file__).parent
    exits = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "_exit" in (getattr(node.func, "attr", None),
                                                           getattr(node.func, "id", None))]
    assert len(exits) == 1 and exits[0][0] == "cli.py", exits
    assert callers(package / "cli.py", {"_exit"}) == {("entry", "_exit")}
    assert callers(package / "cli.py", {"entry"}) == {("<module>", "entry")}  # __main__


def callers(path: Path, names: set[str]) -> set[tuple[str, str]]:
    """(enclosing function, callee) for each call in the module to one of ``names``, the
    function qualified by its class; a call outside any function is in ``<module>``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.add((scope or "<module>", name))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_commands_only_compute():
    # main alone prints a run's results, and _fail its one error line; a command
    # reads its corpora only through the run record's read helper
    package = Path(latintb.__file__).parent
    prints = {(path.name, scope) for path in sorted(package.glob("*.py"))
              for scope, _ in callers(path, {"print"})}
    assert prints == {("cli.py", "main"), ("cli.py", "_fail")}
    reads = callers(package / "cli.py", {"corpus_reader", "read_corpus_files", "load_corpus"})
    assert reads == {("Output.read", "corpus_reader"), ("Output.read", "read_corpus_files")}


def test_a_feature_value_is_read_by_one_rule_and_no_memo_keys_on_identity():
    # a record depends on the canonical FEATS string, so no memo keys on a
    # bundle's id; _Codes keys records that it holds for its whole life
    package = Path(latintb.__file__).parent
    ids = {(path.name, scope) for path in sorted(package.glob("*.py"))
           for scope, _ in callers(path, {"id"})}
    assert ids == {("evaluation.py", "_Codes.__init__")}
    # a multi-valued feature is read through _Conversion.value, never by its first value
    module = ast.parse((package / "conllu.py").read_text(encoding="utf-8"))
    [bundle] = [node for node in ast.walk(module)
                if isinstance(node, ast.ClassDef) and node.name == "FeatureBundle"]
    assert "first" not in {node.name for node in bundle.body if isinstance(node, ast.FunctionDef)}


def test_a_failed_split_audit_names_itself_on_its_one_stderr_line(base, tmp_path, monkeypatch):
    audit = splits.audit_splits

    def one_check_fails(manifest, *args, **kwargs):
        return [result._replace(passed=False, details=("planted",))
                if (manifest.period, result.constraint) == ("Bible", "test-ud-only") else result
                for result in audit(manifest, *args, **kwargs)]

    monkeypatch.setattr(splits, "audit_splits", one_check_fails)
    [split] = [argv for argv in commands(base, tmp_path) if argv[0] == "split"]
    assert run(split) == (1, "split audit failed: Bible test-ud-only\n")
    # every output is still written, the failing row among them
    assert "Bible\ttest-ud-only\tFAIL\tplanted\n" in (tmp_path / "splits" / "split_audit.tsv").read_text()
    assert (tmp_path / "splits" / "Bible" / "test.conllu").is_file()


@pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("earlier", [False, True], ids=["no-outputs", "earlier-outputs"])
def test_a_failure_after_outputs_are_staged_leaves_the_tree_as_it_was(
        base, tmp_path, monkeypatch, raised, earlier):
    # the second period's audit fails once the first period's outputs are staged,
    # their directories made; every sibling and each directory made is removed
    clean = tmp_path / "clean"
    [split] = [argv for argv in commands(base, clean) if argv[0] == "split"]
    assert run(split) == (0, "")
    work = tmp_path / "work"
    work.mkdir()
    for path, data in tree(clean).items():
        if data is not None and earlier:
            (work / path.relative_to(clean)).parent.mkdir(parents=True, exist_ok=True)
            (work / path.relative_to(clean)).write_bytes(b"earlier\n")
    before = tree(work)
    audit, siblings = splits.audit_splits, []

    def fails_once_a_period_is_staged(manifest, *args, **kwargs):
        siblings.extend(work.rglob(f".*.{os.getpid()}.new"))
        if siblings:
            raise raised("planted")
        return audit(manifest, *args, **kwargs)

    monkeypatch.setattr(splits, "audit_splits", fails_once_a_period_is_staged)
    [split] = [argv for argv in commands(base, work) if argv[0] == "split"]
    if raised is ValueError:
        assert run(split) == (1, "error: planted\n")
    else:
        with pytest.raises(KeyboardInterrupt):
            run(split)
    assert len(siblings) > 1, "the first period's manifest and parts were staged"
    assert tree(work) == before


@pytest.mark.parametrize("command", ["eval", "perm-test"])
def test_a_run_whose_output_cannot_be_written_prints_no_result(base, tmp_path, capsys, command):
    gold = base / "std" / "ud" / "cl_alpha.conllu"
    held = tmp_path / "held"
    held.mkdir()
    preds = {"eval": ["--pred", gold], "perm-test": ["--a", gold, "--b", gold, "--n", "20"]}[command]
    assert main([str(arg) for arg in [command, "--gold", gold, *preds, "--out", held]]) == 1
    assert capsys.readouterr() == (
        "", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(held)!r}\n")


def test_metadata_validate_prints_its_violations_and_their_count(tmp_path, capsys):
    table = tmp_path / "meta.tsv"
    table.write_text("treebank\twork_id\tauthor\tcentury\tis_bible\tgenres\t"
                     "train_sents\tdev_sents\ttest_sents\n"
                     "Other\tw\tA\t-1\tfalse\tspeech\t1\t0\t0\n"
                     "Perseus\tv\tA\t-1\tfalse\tspeech\t1\t-1\t0\n")
    assert main(["metadata-validate", "--file", str(table)]) == 1
    assert capsys.readouterr() == (
        "w\tunknown-treebank\ttreebank 'Other' not recognized\n"
        "v\tnegative-count\tsentence counts must be non-negative\n",
        "2 violations\n",
    )
