"""The README's examples, run as written, so the README is their one source.

Its ```python blocks run in order in one namespace, and every `misosec` line
of its ```sh blocks runs through cli.main in a temporary directory, after the
files its heredocs write. A comment on a line quotes what that line prints:
a token ending in `...` is a prefix of a printed token, and a `name=value`
token is a printed token. The quoted tokens must appear in that order.
"""
from __future__ import annotations

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from misosec import cli

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
_HEREDOC = re.compile(r"cat > (\S+) <<'(\w+)'")


def _blocks(kind: str) -> list[str]:
    return [body for lang, body in _BLOCK.findall(README.read_text()) if lang == kind]


def _quoted(comment: str) -> list[tuple[str, bool]]:
    """The outputs a comment quotes, as (text, is a prefix)."""
    quoted = []
    for token in comment.split():
        if token.endswith("...") and len(token) > 3:
            quoted.append((token[:-3], True))
        elif re.fullmatch(r"\w+=\S+", token):
            quoted.append((token, False))
    return quoted


def _check(quoted: list[tuple[str, bool]], printed: str) -> None:
    tokens = iter(printed.split())  # each match consumes the tokens up to it
    for text, prefix in quoted:
        found = any(t.startswith(text) if prefix else t == text for t in tokens)
        assert found, f"README quotes {text!r}{'...' if prefix else ''}, printed {printed!r}"


def _comments(source: str) -> dict[int, str]:
    """Line number -> the comment on that line of a Python block."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:] for tok in tokens if tok.type == tokenize.COMMENT}


def _commands(block: str, directory: Path) -> list[tuple[str, str]]:
    """(command, comment) of each line of an sh block, with `\\` continuations
    joined; each heredoc's file is written to directory instead."""
    lines, out = iter(block.splitlines()), []
    for line in lines:
        while line.endswith("\\"):
            line = line[:-1] + next(lines)
        if heredoc := _HEREDOC.match(line):
            name, end = heredoc.groups()
            (directory / name).write_text("".join(f"{row}\n" for row in iter(lines.__next__, end)))
            continue
        command, _, comment = line.partition(" #")
        out.append((command.strip(), comment))
    return out


def test_readme_python_blocks_print_their_quoted_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace: dict[str, object] = {}
    checked = 0
    for block in _blocks("python"):
        comments = _comments(block)
        for statement in ast.parse(block).body:
            capsys.readouterr()
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            printed = capsys.readouterr().out
            for lineno in range(statement.lineno, statement.end_lineno + 1):
                quoted = _quoted(comments.get(lineno, ""))
                _check(quoted, printed)
                checked += len(quoted)
    assert checked >= 3  # the quickstart's two Monte Carlo values and its quad value


def test_readme_commands_exit_0_and_print_their_quoted_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = checked = 0
    for block in _blocks("sh"):
        for command, comment in _commands(block, tmp_path):
            words = shlex.split(command)
            if words[:1] != ["misosec"]:
                continue  # install and test commands
            capsys.readouterr()
            assert cli.main(words[1:]) == 0, command
            quoted = _quoted(comment)
            _check(quoted, capsys.readouterr().out)
            ran += 1
            checked += len(quoted)
    assert ran >= 8 and checked >= 2  # the node counts of quad and optimize
