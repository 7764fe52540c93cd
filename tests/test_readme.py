import inspect
import pkgutil
import re
import shlex
from importlib import import_module
from itertools import product
from pathlib import Path

import pytest

import exmat
from exmat.cli import GENERATE, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
FENCED = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.S | re.M)
BLOCKS = [body for lang, body in FENCED if not lang]


def test_quick_example_runs():
    # the README's one Python block asserts the values it shows
    (block,) = [body for lang, body in FENCED if lang == "python"]
    exec(compile(block, "README.md", "exec"), {})


def readme_commands():
    """The argv of every `exmat ...` line in the README's plain code blocks
    and of each `# or: ...` form in their comments, with each [bracketed]
    option group both present and absent."""
    forms = []
    for line in "\n".join(BLOCKS).splitlines():
        if line.startswith("exmat "):
            command, _, comment = line.partition("#")
            forms.append(command.removeprefix("exmat "))
            if comment.strip().startswith("or:"):
                forms.append(comment.strip().removeprefix("or:"))
    argvs = []
    for form in forms:
        groups = re.findall(r"\[(.*?)\]", form)
        for keep in product((True, False), repeat=len(groups)):
            kept = iter(keep)
            argvs.append(shlex.split(re.sub(r"\[(.*?)\]", lambda g: g[1] if next(kept) else "", form)))
    return argvs


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_cli_examples_parse(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"exmat {' '.join(argv)} exits {exc.code} in the parser")


def test_cli_block_names_every_generate_family():
    (line,) = [line for block in BLOCKS for line in block.splitlines() if "# also:" in line]
    shown = shlex.split(line)[2]
    assert {shown, *line.split("# also:")[1].strip().split(", ")} == set(GENERATE)


def test_signatures_match_the_code():
    # every backticked `name(params)` naming a callable exmat exports lists
    # its parameters and defaults, so a dropped parameter cannot linger
    shown = [
        (name, [param.strip() for param in params.split(",")])
        for name, params in re.findall(r"`(\w+)\(([^`()]*)\)`", README.read_text())
        if callable(getattr(exmat, name, None))
    ]
    assert {"ex_columns", "generate_T"} <= {name for name, _ in shown}
    for name, params in shown:
        actual = [
            p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(getattr(exmat, name)).parameters.values()
        ]
        assert params == actual, name


def test_dotted_names_resolve():
    # every backticked `module.NAME` whose module is exmat or one of its
    # modules names an attribute of that module, so a deleted helper cannot
    # linger in the docs; names outside exmat, such as `fractions.Fraction`,
    # are skipped
    modules = {"exmat": exmat} | {
        name: import_module(f"exmat.{name}") for _, name, _ in pkgutil.iter_modules(exmat.__path__)
    }
    shown = [
        name.split(".")
        for name in re.findall(r"`(\w+(?:\.\w+)+)`", README.read_text())
        if name.split(".")[0] in modules
    ]
    assert {("search", "MEMO_LIMIT"), ("exmat", "verify")} <= {tuple(name) for name in shown}
    for head, *attrs in shown:
        owner = modules[head]
        for attr in attrs:
            assert hasattr(owner, attr), f"{head}.{'.'.join(attrs)}"
            owner = getattr(owner, attr)
