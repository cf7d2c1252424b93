"""One fingerprint of CLI output over about 400 command lines.

Each command runs through an in-process ``main()``.  Its exit code, its
stdout with the ``elapsed_ms`` value masked, and its stderr are hashed, and
``cli_fingerprints.txt`` holds one line per command: a 16-hex-digit SHA-256
prefix and the command line.  The corpus comes from a seeded
``random.Random`` of its own, plus fixed cases: huge values, every ``verify``
bound shape and usage errors.  ``--help`` is left out; its layout changes
between Python versions, and the golden help tests in ``test_cli.py`` pin it.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_fingerprint.py

and names every changed line.
"""

import contextlib
import hashlib
import io
import os
import random
import re
import shlex
from pathlib import Path
from unittest import mock

from chowchi.cli import main

FINGERPRINTS = Path(__file__).with_name("cli_fingerprints.txt")
SUITES = ("recursion", "series", "quaternionic", "base-cases", "all")
_ELAPSED = re.compile(r'"elapsed_ms": "\d+"')

FIXED = [
    # huge values
    ["chow", "--p", "5", "--n", "30", "--d", "30000"],
    ["table", "--p", "10", "--n", "40", "--max-d", "900"],
    ["series", "--p", "3", "--n", "9", "--order", "400", "--format", "csv"],
    # verify: no flags, each suite, partial and reordered bounds, bad bounds
    ["verify"],
    *(["verify", "--suite", suite, "--max-p", "2", "--max-n", "3",
       "--max-d", "3", "--order", "4"] for suite in SUITES),
    ["verify", "--max-n", "2", "--max-d", "2"],
    ["verify", "--suite", "series", "--order", "5"],
    ["verify", "--order", "3", "--max-d", "2", "--max-n", "3", "--max-p", "1"],
    ["verify", "--max-p", "-1"],
    ["verify", "--max-p", "x"],
    # usage errors
    [],
    ["magic"],
    ["chow", "--p", "1", "--n", "2"],
    ["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "magic"],
    ["chow", "--p", "1", "--n", "2", "--d", "two"],
    ["chow", "--p", "3", "--n", "2", "--d", "1"],
    ["chow", "--p", "1", "--n", "2", "--d", "-1"],
    ["chow", "--p", "1", "--n", "2", "--d", "2", "--bogus"],
    ["series", "--p", "1", "--n", "2", "--order", "-1"],
    ["series", "--p", "1", "--n", "2", "--order", "3", "--method", "all"],
    ["quaternionic", "--p", "4", "--qn", "2", "--d", "1"],
    ["quaternionic", "--p", "0", "--qn", "0", "--d", "1"],
    ["quaternionic", "--p", "0", "--qn", "1", "--d", "1", "--oracle", "magic"],
    ["table", "--p", "0", "--n", "1", "--max-d", "-1"],
    ["table", "--p", "2", "--n", "1", "--max-d", "3"],
    ["table", "--p", "1", "--n", "2", "--max-d", "3", "--format", "xml"],
    ["verify", "--suite", "magic"],
    ["verify", "--format", "csv"],
    ["verify", "--max-d"],
]


def _random_commands(rng: random.Random) -> list[list[str]]:
    """Valid commands of every subcommand, method, oracle and format, their
    options typed in shuffled order, then a few broken ones."""
    def command(name, *options):
        pairs = [list(option) for option in options]
        rng.shuffle(pairs)
        return [name, *(word for pair in pairs for word in pair)]

    def fmt():
        return ("--format", rng.choice(["json", "csv"]))

    commands = []
    for _ in range(120):
        method = rng.choice(["closed", "recursive", "series", "all"])
        n = rng.randint(1, 40 if method == "closed" else 8)
        p, d = rng.randint(0, n - 1), rng.randint(0, 300 if method == "closed" else 12)
        commands.append(command("chow", ("--p", str(p)), ("--n", str(n)),
                                ("--d", str(d)), ("--method", method), fmt()))
    for _ in range(60):
        method = rng.choice(["closed", "functional"])
        n = rng.randint(0, 30 if method == "closed" else 9)
        p, order = rng.randint(0, n), rng.randint(0, 60 if method == "closed" else 20)
        commands.append(command("series", ("--p", str(p)), ("--n", str(n)),
                                ("--order", str(order)), ("--method", method), fmt()))
    for _ in range(60):
        qn = rng.randint(1, 8)
        p = rng.choice([0, rng.randint(0, 2 * qn - 1)])
        d = rng.choice([1, rng.randint(0, 30)])
        commands.append(command("quaternionic", ("--p", str(p)), ("--qn", str(qn)),
                                ("--d", str(d)),
                                ("--oracle", rng.choice(["none", "auto"])), fmt()))
    for _ in range(50):
        n = rng.randint(0, 40)
        commands.append(command("table", ("--p", str(rng.randint(0, n))), ("--n", str(n)),
                                ("--max-d", str(rng.randint(0, 60))), fmt()))
    for _ in range(40):
        bounds = [("--max-p", str(rng.randint(0, 3))), ("--max-n", str(rng.randint(0, 4))),
                  ("--max-d", str(rng.randint(0, 5))), ("--order", str(rng.randint(0, 6)))]
        options = rng.sample(bounds, rng.randint(0, 4))
        if rng.random() < 0.6:
            options.append(("--suite", rng.choice(SUITES)))
        commands.append(command("verify", *options))
    with_options = [argv for argv in commands if len(argv) > 1]
    for _ in range(40):
        argv = list(rng.choice(with_options))
        i = rng.randrange(1, len(argv), 2)      # an option; its value follows
        if rng.random() < 0.5:
            del argv[i:i + 2]
        else:
            argv[i + 1] = rng.choice(["-7", "x", "1.5", "magic", ""])
        commands.append(argv)
    return commands


def corpus() -> list[list[str]]:
    """The fixed commands, then the random ones, each command once."""
    unique = dict.fromkeys(map(tuple, FIXED + _random_commands(random.Random(10))))
    return [list(argv) for argv in unique]


def fingerprint(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = _ELAPSED.sub('"elapsed_ms": "#"', out.getvalue())
    return hashlib.sha256(repr((code, stdout, err.getvalue())).encode()).hexdigest()[:16]


def fingerprint_lines() -> list[str]:
    # argparse wraps usage errors to the terminal; pin one width
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return [f"{fingerprint(argv)} {shlex.join(['chowchi', *argv])}"
                for argv in corpus()]


def test_cli_output_matches_fingerprints():
    expected = FINGERPRINTS.read_text().splitlines()
    actual = fingerprint_lines()
    changed = sorted({line.split(" ", 1)[1] for line in set(actual) ^ set(expected)})
    assert not changed, (
        f"{len(changed)} commands changed output or left the corpus:\n"
        + "\n".join(changed))


if __name__ == "__main__":
    FINGERPRINTS.write_text("".join(f"{line}\n" for line in fingerprint_lines()))
