import ast
import dataclasses
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import axisforge
from axisforge.config import default_intrinsics
from axisforge.oracle import ORACLES


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


def test_cli_imports_no_numpy():
    # main applies the thread cap, which binds only if numpy is not loaded yet
    code = "import sys, axisforge.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))"
    src = str(Path(axisforge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "[]"


def test_reading_a_config_imports_no_numerics(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"intrinsics": default_intrinsics(16).to_dict(), "degradation": {"noise_sigma": 0.1},
                                "seed": 3}))
    code = (
        f"import sys, axisforge.config; cfg = axisforge.config.load_config({str(path)!r}); "
        "print(cfg.seed, sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy' "
        "or (m.startswith('axisforge.') and m != 'axisforge.config')))"
    )
    src = str(Path(axisforge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "3 []"


def test_runtime_imports_only_numpy_and_the_standard_library():
    # scipy and pytest-benchmark are installed for development, so an
    # import of either would pass every other test and break an install
    # that has only the declared dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "axisforge"}
    outside = []
    for path in sorted(Path(axisforge.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["axisforge" if node.level else node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {n}" for n in names if n.partition(".")[0] not in allowed]
    assert outside == []


def test_every_config_section_is_defined_in_config():
    # a section defined beside the numerics would make reading a config import them
    sections, outside = {"Section"}, []
    modules = sorted(Path(axisforge.__file__).resolve().parent.glob("*.py"), key=lambda p: p.name != "config.py")
    for path in modules:  # config.py first, so that its sections are known
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and {ast.unparse(b).rpartition(".")[2] for b in node.bases} & sections:
                if path.name == "config.py":
                    sections.add(node.name)
                else:
                    outside.append(f"{path.name}: {node.name}")
    assert outside == []


def test_every_config_field_is_read_in_src():
    # a knob that only its own validation reads changes nothing that a command does
    from axisforge import config

    sections = [c for c in vars(config).values() if isinstance(c, type) and issubclass(c, config.Section)]
    fields = {f.name for c in sections if c is not config.Section for f in dataclasses.fields(c)}
    read = set()
    for path in Path(axisforge.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        checks = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"]
        skipped = {id(n) for check in checks for n in ast.walk(check)} if path.name == "config.py" else set()
        read |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skipped
        }
    assert sorted(fields - read) == []


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
    # a public module-level name or public method that only tests read is
    # code that no command runs. Two methods are called from outside src:
    # argparse calls _Parser.error, and perfbench/tracing.py patches
    # MLPDenoiser.vjp by name (ROADMAP items 1 and 9)
    called_outside = {"_Parser.error", "MLPDenoiser.vjp"}
    defined, read = [], set()  # (file, qualified name, name)
    for path in sorted(Path(axisforge.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            if isinstance(node, ast.ClassDef):
                methods = [m.name for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
                defined += [(path.name, f"{node.name}.{name}", name) for name in methods]
            defined += [(path.name, name, name) for name in names if not name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(defined) > 100
    assert called_outside <= {qualified for _, qualified, _ in defined}
    unread = [f"{file}: {qualified}" for file, qualified, name in defined if name not in read and qualified not in called_outside]
    assert unread == []


def test_every_error_class_is_raised_in_src():
    # an exception class that no code raises is a failure mode that cannot
    # happen; batch extraction makes its errors first and raises them per row
    src = Path(axisforge.__file__).resolve().parent
    classes = {node.name for node in ast.parse((src / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)}
    made = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else node.func if isinstance(node, ast.Call) else None
            made.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert sorted(classes - {"AxisForgeError"} - made) == []
