import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import axisforge
from axisforge.oracle import ORACLES


def test_every_export_resolves():
    # the export table is lazy: a stale entry fails only when accessed
    for name in axisforge.__all__:
        assert getattr(axisforge, name) is not None, name


def test_dataset_imports_no_sampler_or_denoiser():
    # render-dataset and config reading must not pay for the diffusion stack
    code = (
        "import sys, axisforge.dataset; "
        "print(sorted(m for m in ('axisforge.denoiser', 'axisforge.diffusion', 'axisforge.extraction') "
        "if m in sys.modules))"
    )
    src = str(Path(axisforge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "[]"


def test_readme_counts_the_oracles_and_names_are_unique():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (count,) = re.findall(r"# all (\d+) oracles", readme)
    assert int(count) == len(ORACLES)
    names = [name for name, _ in ORACLES]
    assert len(set(names)) == len(names)


def test_benchmark_traced_layers_resolve():
    # perfbench/tracing.py patches the functions named in its LAYERS table;
    # a renamed or deleted one must fail here, with its name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (table,) = [
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    names = [ast.literal_eval(key) for key in table.keys]
    assert "render.render_query" in names
    for name in names:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"axisforge.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name


def _unused_imports(path: Path) -> list[str]:
    """Names that the module at path imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    unused = [hit for d in ("src", "tests") for path in sorted((root / d).rglob("*.py")) for hit in _unused_imports(path)]
    assert unused == []


def test_every_export_is_read_in_src():
    # an export that only tests call is code that no command runs
    read = set()
    for path in Path(axisforge.__file__).resolve().parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(set(axisforge._EXPORTS) - read) == []
