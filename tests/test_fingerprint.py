"""One fingerprint of CLI output over about 400 command lines.

``cli_fingerprints.txt`` is the corpus: each line is a 16-hex-digit SHA-256
prefix, a space and a command line (``chowchi`` and its arguments, quoted as
``shlex.join`` quotes them).  Each command runs through ``cli_run`` from
``oracles.py`` at the least int-to-str digit limit Python accepts, 640, and
the hash of its exit code, masked stdout and stderr must equal the line's.
The lines cover every subcommand, method, oracle and format with options in
shuffled order, huge values, every ``verify`` bound shape and usage errors.
``--help`` is left out: the help rows of ``GOLDEN`` in ``test_cli.py`` hold
its text.

A change that alters output on purpose, or a new command appended as
``0000000000000000 chowchi <arguments>``, rewrites each line's hash in place,
in file order, with

    PYTHONPATH=src python tests/test_fingerprint.py

and ``git diff`` then names every changed line.  It runs at the
interpreter's own limit, so an output that depends on the limit fails the
test.
"""

import hashlib
import re
import shlex
from pathlib import Path

from oracles import cli_run, int_digit_limit

FINGERPRINTS = Path(__file__).with_name("cli_fingerprints.txt")
_LINE = re.compile(r"[0-9a-f]{16} chowchi( .*)?")


def corpus() -> list[tuple[str, str]]:
    """(hash, command line) per line of the file, in file order; a
    malformed or repeated line fails with its line number."""
    lines, seen = [], {}
    for number, line in enumerate(FINGERPRINTS.read_text().splitlines(), 1):
        where = f"{FINGERPRINTS.name}:{number}"
        assert _LINE.fullmatch(line), f"{where}: not '<16 hex> chowchi ...': {line!r}"
        digest, command = line.split(" ", 1)
        argv = tuple(shlex.split(command))
        assert argv not in seen, f"{where}: repeats line {seen[argv]}: {command}"
        seen[argv] = number
        lines.append((digest, command))
    return lines


def fingerprint(command: str) -> str:
    result = cli_run(shlex.split(command)[1:])
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def test_cli_output_matches_fingerprints():
    with int_digit_limit(640):
        changed = [command for digest, command in corpus()
                   if fingerprint(command) != digest]
    assert not changed, (
        f"{len(changed)} commands changed output:\n" + "\n".join(changed))


if __name__ == "__main__":
    FINGERPRINTS.write_text("".join(
        f"{fingerprint(command)} {command}\n" for _, command in corpus()))
