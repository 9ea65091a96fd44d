import importlib
import pathlib
import tomllib


def test_declared_console_scripts_import():
    # every [project.scripts] entry must name a module and callable that exist
    root = pathlib.Path(__file__).resolve().parents[1]
    meta = tomllib.loads((root / "pyproject.toml").read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        func = importlib.import_module(module)
        for part in attr.split("."):
            func = getattr(func, part)
        assert callable(func), name
