"""Every public name in ``src/starshift`` has a reader in the toolkit.

A public top-level function or class, and a public method of a public
class, must be referenced outside its own definition: by the package
itself, by the benchmark under ``bench/``, or by the acceptance suite.
Unit tests do not count, since a name read only by its own tests is dead
code with a restatement attached; independent references used only by
tests live in ``tests/oracles.py``.  The files are parsed, never
imported.

A method is matched by its attribute name alone, since the parse does
not know the type of the object it is read on: a dead method escapes
when a method of the same name is read on another class, as a dead
``ZSft.to_json`` did while ``SchreierGraph.to_json`` was read.

The other way round, every name the README shows in backticks, as a
snake_case name or as a call such as ``ring(n)``, is an attribute of a
module of the package or of one of its public classes, and the README
synopsis of each subcommand lists exactly the options its parser takes,
hidden ones included.
"""

import ast
import importlib
import re
from pathlib import Path

from starshift import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "starshift"

# entry points the paper describes, kept for library users without a caller
PAPER_FACING = ("parse_starred", "jump_word", "act_word", "vorobets_key", "quadrant_support")


def _references(tree: ast.AST, skip: ast.AST | None = None, modules=()) -> set[str]:
    """Names and attributes read in ``tree`` outside the node ``skip``,
    and the names in string pairs ``(module, "name")`` or
    ``(module, "Class.method")`` for a module in ``modules``, the way
    ``bench/tracing.py`` lists what it wraps."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, name = node.elts[:2]
            if (
                isinstance(module, ast.Constant) and module.value in modules
                and isinstance(name, ast.Constant) and isinstance(name.value, str)
            ):
                found.update(name.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of every public top-level function and
    class, and of every public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_public_names(src: Path = SRC) -> list[str]:
    """``module.name`` of every public definition in the package at
    ``src`` that nothing in the toolkit reads, sorted."""
    modules = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    outside = set()
    for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _references(_parse(path), modules=modules)
    unused = []
    for module, tree in modules.items():
        for qualified, node in _public_definitions(tree):
            name = node.name
            if qualified in PAPER_FACING or name in outside:
                continue
            readers = (_references(other, skip=node) for other in modules.values())
            if not any(name in refs for refs in readers):
                unused.append(f"{module}.{qualified}")
    return sorted(unused)


def test_every_public_name_has_a_reader():
    assert unused_public_names() == []


def test_the_guard_sees_a_dead_name(tmp_path):
    # the package with one extra public function that nothing reads
    copy = tmp_path / "starshift"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(copy / "subshift.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef canonical_rotation(word, alphabet):\n    return word\n")
    assert unused_public_names(copy) == ["subshift.canonical_rotation"]


def test_the_guard_sees_a_dead_method(tmp_path):
    # the package with one extra public method that nothing reads
    copy = tmp_path / "starshift"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    source = (copy / "full_group.py").read_text(encoding="utf-8")
    to_dot = "    def to_dot(self) -> str:\n"
    dead = "    def as_strings(self) -> list[str]:\n        return []\n\n"
    assert source.count(to_dot) == 1
    (copy / "full_group.py").write_text(source.replace(to_dot, dead + to_dot), encoding="utf-8")
    assert unused_public_names(copy) == ["full_group.SchreierGraph.as_strings"]


def test_paper_facing_names_exist():
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(PAPER_FACING) <= defined


# a snake_case name whose parts all have two characters or more, so that
# the indices of w_n or k_max are not read, or a call without a dot
_SNAKE_NAME = re.compile(r"[a-z][a-z0-9]+(?:_[a-z0-9]{2,})+")
_CALL = re.compile(r"([A-Za-z_]\w*)\(.*\)")


def readme_names(text: str) -> set[str]:
    """The names in the inline code spans of the markdown ``text`` that
    read as package names: snake_case names, and calls without a dot."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)  # fenced blocks
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        if _SNAKE_NAME.fullmatch(span):
            names.add(span)
        elif call := _CALL.fullmatch(span):
            names.add(call.group(1))
    return names


def _package_attributes() -> set[str]:
    found = set()
    for path in SRC.glob("[!_]*.py"):
        module = importlib.import_module(f"starshift.{path.stem}")
        for name, value in vars(module).items():
            found.add(name)
            if isinstance(value, type) and not name.startswith("_"):
                found.update(dir(value))
    return found


def test_readme_names_exist():
    names = readme_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "ring" in names and "side_by_side_windings" in names
    assert sorted(names - _package_attributes()) == []


def test_the_readme_check_sees_a_stale_name():
    text = "`w_n`, `k_max`, `relator_windings(letters, t=None)` and `relator_levels`"
    stale = {"relator_windings", "relator_levels"}
    assert readme_names(text) == stale
    assert readme_names(text) - _package_attributes() == stale


def subcommand_options() -> dict[str, set[str]]:
    """The ``--`` options of each subcommand of the CLI parser, but ``--help``."""
    return {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for name, p in cli.build_parser().subcommands.items()
    }


def synopsis_options(text: str) -> dict[str, set[str]]:
    """The ``--`` options on the synopsis line of each subcommand in the
    markdown ``text``: the first line that starts ``starshift <name>``."""
    found = {}
    for line in text.splitlines():
        if match := re.match(r"starshift ([a-z0-9-]+)\b", line):
            found.setdefault(match.group(1), set(re.findall(r"--[a-z][a-z0-9-]*", line)))
    return found


def test_readme_synopses_list_every_option():
    synopses = synopsis_options((ROOT / "README.md").read_text(encoding="utf-8"))
    options = subcommand_options()
    assert {name: synopses.get(name) for name in options} == options


def test_the_synopsis_check_sees_a_missing_and_a_stale_option():
    text = "starshift verify [--max-n 10]\nstarshift verify --max-n 3 --out v.txt\n"
    assert synopsis_options(text) == {"verify": {"--max-n"}}
    assert subcommand_options()["verify"] == {"--max-n", "--out"}
    text = "starshift schreier [--n 3] [--t T]\n"
    assert synopsis_options(text)["schreier"] - subcommand_options()["schreier"] == {"--t"}
