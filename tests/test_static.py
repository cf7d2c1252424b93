"""Static rules over every module of ``chowchi``, read with ``ast``.

Exact integer arithmetic and independence from the interpreter's limits hold
for every line, not only for the values a sweep happens to check: no module
divides truly, names a float, calls itself by name, or touches the recursion
or int-to-str limit, and each imports only the standard library and the
package.  The module-level mutable state is listed once, in ``MUTABLE``.  A
raised message renders each value through ``_decimal``, the one int-to-text
path, so a huge int prints in full under any limit; ``_record``, which
defines it, is exempt, and ``RAW_FIELDS`` lists the text fields allowed, each
of which some raise still uses.  Only ``_record`` words the refusal of a
negative argument, in ``_nonnegative``, the one rule every module calls.
"""

import ast
import pathlib
import sys

import pytest

import chowchi

SRC = pathlib.Path(chowchi.__file__).parent
# math's exact-integer functions; any other math name is float-valued
INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
FLOAT_CALLS = {"float", "round", "complex"}
LIMITS = {"setrecursionlimit", "set_int_max_str_digits"}
IMPORTABLE = sys.stdlib_module_names | {"chowchi"}
# callees whose result is a mutable container or a lock
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "Lock", "RLock"}
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set,
                    ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE = {"chow._SUSPENSION", "chow._FUNCTIONAL", "chow._LOCK",
           "verify._SUITES"}
# f-string fields of a raised message that hold text, never an int
RAW_FIELDS = {"verify.', '.join(SUITE_NAMES)"}
# the words of _record._nonnegative's refusal
NONNEGATIVE = "must be nonnegative"


def _callee(call: ast.Call) -> str | None:
    """The name ``f`` of a call ``f(...)``, ``self.f(...)`` or ``cls.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in ("self", "cls"):
        return func.attr
    return None


def _name_rule(module: str | None, name: str) -> str | None:
    """The rule that the name ``module.name`` breaks, if any."""
    if module == "math" and name not in INT_MATH:
        return f"float math name math.{name}"
    if module == "sys" and name in LIMITS:
        return f"global limit sys.{name}"
    return None


def findings(source: str) -> list[tuple[int, str]]:
    """Each (line, rule) that ``source`` breaks."""
    found = []
    for node in ast.walk(ast.parse(source)):
        rules = []
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            rules = ["true division"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            rules = ["float literal"]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in FLOAT_CALLS:
            rules = [f"{node.func.id}() call"]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            rules = [_name_rule(node.value.id, node.attr)]
        elif isinstance(node, ast.Import):
            rules = [f"import of {alias.name}" for alias in node.names
                     if alias.name.partition(".")[0] not in IMPORTABLE]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.partition(".")[0] not in IMPORTABLE:
                rules = [f"import of {node.module}"]
            rules += [_name_rule(node.module, alias.name) for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(call.lineno, f"{node.name} calls itself")
                      for call in ast.walk(node)
                      if isinstance(call, ast.Call) and _callee(call) == node.name]
        found += [(node.lineno, rule) for rule in rules if rule]
    return sorted(found)


def mutable_state(source: str) -> list[tuple[int, str]]:
    """Each (line, name), ``__all__`` excepted, that a module-level statement
    of ``source`` binds to a mutable container or a lock."""
    names = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        value = stmt.value
        if isinstance(value, MUTABLE_DISPLAYS) or isinstance(value, ast.Call) and (
                getattr(value.func, "id", None) or getattr(value.func, "attr", None)
                ) in MUTABLE_CALLS:
            names += [(stmt.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id != "__all__"]
    return names


def _rendered(value: ast.expr) -> bool:
    """Whether ``value`` is a ``_decimal(...)`` call."""
    return isinstance(value, ast.Call) \
        and getattr(value.func, "id", None) == "_decimal"


def raw_fields(source: str) -> list[tuple[int, str]]:
    """Each (line, field) of an f-string in a ``raise`` of ``source`` whose
    value is not a ``_decimal(...)`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            fields = [field for text in ast.walk(node.exc)
                      if isinstance(text, ast.JoinedStr) for field in text.values
                      if isinstance(field, ast.FormattedValue)]
            found += [(field.value.lineno, ast.unparse(field.value))
                      for field in fields if not _rendered(field.value)]
    return sorted(found)


def restated_refusals(source: str) -> list[int]:
    """Each line of a string constant of ``source``, an f-string's text
    included, that holds the words ``NONNEGATIVE``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and NONNEGATIVE in node.value)


MODULES = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted(SRC.glob("*.py"))}


def test_no_float_recursion_limit_or_foreign_import():
    broken = [f"{name}.py:{line}: {rule}" for name, source in MODULES.items()
              for line, rule in findings(source)]
    assert broken == []


def test_module_level_mutable_state_is_listed():
    found = {f"{name}.{var}": f"{name}.py:{line}" for name, source in MODULES.items()
             for line, var in mutable_state(source)}
    assert sorted(found) == sorted(MUTABLE), found


# each rule, caught where it is planted
@pytest.mark.parametrize("source, finding", [
    ("x = n / 2", (1, "true division")),
    ("x /= 2", (1, "true division")),
    ("x = 0.5", (1, "float literal")),
    ("x = 2j", (1, "float literal")),
    ("x = float(n)", (1, "float() call")),
    ("x = round(n)", (1, "round() call")),
    ("x = complex(n)", (1, "complex() call")),
    ("import math\nx = math.log(n)", (2, "float math name math.log")),
    ("from math import sqrt", (1, "float math name math.sqrt")),
    ("import sys\nsys.setrecursionlimit(10**6)",
     (2, "global limit sys.setrecursionlimit")),
    ("import sys\nsys.set_int_max_str_digits(0)",
     (2, "global limit sys.set_int_max_str_digits")),
    ("from sys import set_int_max_str_digits",
     (1, "global limit sys.set_int_max_str_digits")),
    ("import numpy", (1, "import of numpy")),
    ("from gmpy2 import mpz", (1, "import of gmpy2")),
    ("def f(n):\n    return n and f(n - 1)", (2, "f calls itself")),
    ("class A:\n    def f(self, n):\n        return self.f(n)", (3, "f calls itself")),
])
def test_rule_catches_its_plant(source, finding):
    assert findings(source) == [finding]


def test_mutable_state_catches_a_cache():
    source = ("import threading\n__all__ = []\n_A = {}\n_B: list = []\n"
              "_C = threading.Lock()\n_D = dict()\n_E = (1, 2)\n_F = frozenset()")
    assert mutable_state(source) == [(3, "_A"), (4, "_B"), (5, "_C"), (6, "_D")]


def test_raised_messages_render_through_decimal():
    found = [(f"{name}.{field}", f"{name}.py:{line}: {field}")
             for name, source in MODULES.items() if name != "_record"
             for line, field in raw_fields(source)]
    assert [where for field, where in found if field not in RAW_FIELDS] == []
    assert sorted(RAW_FIELDS - {field for field, _ in found}) == [], "listed, raised nowhere"


@pytest.mark.parametrize("source, found", [
    ('raise ValueError(f"got {d}")', [(1, "d")]),
    ('raise ValueError(f"got {d!r}")', [(1, "d")]),
    ('raise ValueError(f"got {str(d)}")', [(1, "str(d)")]),
    ('raise ValueError(\n    f"got {_decimal(d)}; "\n    f"or {n}")', [(3, "n")]),
    ('raise ValueError(f"got {_decimal(d)}")', []),
    ('x = f"got {d}"', []),
], ids=["plain", "repr", "str", "second-line", "decimal", "no-raise"])
def test_raw_field_rule_catches_its_plant(source, found):
    assert raw_fields(source) == found


def test_only_record_words_the_nonnegative_rule():
    restated = [f"{name}.py:{line}" for name, source in MODULES.items()
                if name != "_record" for line in restated_refusals(source)]
    assert restated == []
    assert restated_refusals(MODULES["_record"]) != []


@pytest.mark.parametrize("source, found", [
    ('raise ValueError(f"order must be nonnegative, got {_decimal(order)}")', [1]),
    ('x = 1\nMESSAGE = "d must be nonnegative"', [2]),
    ('_nonnegative(order, "order")', []),
], ids=["f-string", "constant", "call"])
def test_nonnegative_rule_catches_its_plant(source, found):
    assert restated_refusals(source) == found
