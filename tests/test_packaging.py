import ast
import importlib
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _metadata():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_declared_console_scripts_import():
    # every [project.scripts] entry must name a module and callable that exist
    meta = _metadata()
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        func = importlib.import_module(module)
        for part in attr.split("."):
            func = getattr(func, part)
        assert callable(func), name


def test_python_floor_is_the_tested_version():
    # the declared floor is the one version the tier-1 job installs; the
    # tests themselves need 3.11 (tomllib)
    floor = _metadata()["project"]["requires-python"]
    ci = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    versions = re.findall(r'python-version:\s*"([0-9.]+)"', ci)
    assert floor == ">=3.11"
    assert versions == [floor.removeprefix(">=")]


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_third_party_imports_are_declared():
    # every third-party module imported by the package is a runtime
    # dependency, and by its tests a runtime dependency or in the test extra
    # (import names here equal their distribution names)
    project = _metadata()["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in requirements}

    runtime = names(project["dependencies"])
    testing = runtime | names(project["optional-dependencies"]["test"])
    assert runtime == {"numpy", "scipy"}
    local = {"pshardy", "conftest"} | set(sys.stdlib_module_names) | {"__future__"}
    files = ([(path, runtime) for path in sorted((ROOT / "src").rglob("*.py"))]
             + [(path, testing) for path in sorted((ROOT / "tests").glob("*.py"))])
    missing = {
        (name, path.relative_to(ROOT).as_posix())
        for path, declared in files for name in _top_level_imports(path)
        if name not in local and name.lower() not in declared
    }
    assert not missing, sorted(missing)


def test_exported_names_resolve():
    # every name a module lists in __all__ is defined in it
    for path in sorted((ROOT / "src" / "pshardy").glob("*.py")):
        name = "pshardy" if path.stem == "__init__" else f"pshardy.{path.stem}"
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ())
                   if not hasattr(module, attr)]
        assert not missing, (path.name, missing)


def _package_names():
    """(module-level definitions by module, every name read in the package).

    Definitions are the functions, classes and assigned constants at the
    top of each module, and the _-prefixed methods and nested functions
    in it; a name is read where it is loaded or taken as an attribute
    anywhere in the package.
    """
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "pshardy").rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = defined.setdefault(path.stem, set())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(name.id for target in targets
                             for name in ast.walk(target) if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):  # methods and nested helpers
                    names.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_private_names_are_referenced():
    # every _-prefixed function, class or method, and every _-prefixed
    # module constant, defined in the package is read somewhere in it
    # besides its definition (dunders exempt): no dead helpers
    defined, read = _package_names()
    private = {name for names in defined.values() for name in names
               if name.startswith("_") and not _is_dunder(name)}
    assert private, "no private names found"
    unused = sorted(private - read)
    assert not unused, unused


def test_unexported_names_are_read():
    # every module-level function, class and constant that its module
    # does not list in __all__ is read somewhere in the package (dunders
    # exempt): a name neither exported nor used is dead
    defined, read = _package_names()
    unused = []
    for stem, names in defined.items():
        module = importlib.import_module(
            "pshardy" if stem == "__init__" else f"pshardy.{stem}")
        exported = set(getattr(module, "__all__", ()))
        unused += [f"{stem}.{name}" for name in sorted(names - exported - read)
                   if not _is_dunder(name)]
    assert not unused, unused


def test_stored_attributes_are_read():
    # every attribute a class in the package assigns on self is read in the
    # package, the tests or the benchmark: as an attribute load, or as a
    # string constant (getattr, property).  The scan matches by name alone,
    # so an attribute that another class also reads under its name (say
    # samples or thetas) passes unseen
    stored, read = set(), set()
    for path in sorted((ROOT / "src" / "pshardy").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            stored.update(
                (f"{path.stem}.{cls.name}", node.attr) for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self")
    for folder in ("src", "tests", "hardybench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    assert stored, "no stored attributes found"
    unread = sorted(f"{owner}.{attr}" for owner, attr in stored if attr not in read)
    assert not unread, unread


def test_imported_names_are_used():
    # every name a module imports is read in that module or listed in its
    # __all__: a leftover import is dead code
    unused = []
    for path in sorted((ROOT / "src" / "pshardy").rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        stem = path.stem
        module = importlib.import_module(
            "pshardy" if stem == "__init__" else f"pshardy.{stem}")
        exported = set(getattr(module, "__all__", ()))
        unused += [f"{stem}.{name}" for name in sorted(imported - read - exported)]
    assert not unused, unused


def _decorator_names(node):
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(dec, ast.Name):
            yield dec.id


def test_dataclass_fields_are_documented():
    # every field of a dataclass in the package is named in its class
    # docstring: as an entry "name : type" where the docstring has an
    # Attributes section, as a word elsewhere
    missing, seen = [], 0
    for path in sorted((ROOT / "src" / "pshardy").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef)
                    and "dataclass" in _decorator_names(node)):
                continue
            doc = ast.get_docstring(node) or ""
            fields = [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
            seen += len(fields)
            for name in fields:
                entry = (rf"^\s*{name} : " if "\nAttributes\n" in doc
                         else rf"\b{name}\b")
                if not re.search(entry, doc, re.MULTILINE):
                    missing.append(f"{path.stem}.{node.name}.{name}")
    assert seen >= 17, seen
    assert not missing, missing


def test_one_entry_point_per_integral():
    # area integrals against a measure go through RieszMeasure.pair and
    # circle arcs through integrate_boundary_arc: integrate_disk_area is
    # read only in geometry and potential, the arc rule for singular
    # angles only in geometry, and the one angle wrap lives there
    read, wraps = {}, set()
    for path in sorted((ROOT / "src" / "pshardy").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.setdefault(node.id, set()).add(path.stem)
            elif isinstance(node, ast.Attribute):
                read.setdefault(node.attr, set()).add(path.stem)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    read.setdefault(alias.name, set()).add(path.stem)
            elif isinstance(node, ast.FunctionDef) and node.name == "_wrap":
                wraps.add(path.stem)
    assert read["integrate_disk_area"] <= {"geometry", "potential"}
    assert read["_arc_singularities"] <= {"geometry"}
    assert wraps == {"geometry"}


def test_one_swept_measure():
    # mu_c has one construction: DemaillyMeasure is built only in
    # demailly_measure, which reads the flux on every level, so it neither
    # branches on circles nor reads the direct mass of B_c
    def builds(node):
        func = getattr(node, "func", None)
        return "DemaillyMeasure" in (getattr(func, "id", None),
                                     getattr(func, "attr", None))

    built, built_inside, names = 0, 0, set()
    for path in sorted((ROOT / "src" / "pshardy").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            built += builds(node)
            if isinstance(node, ast.FunctionDef) and node.name == "demailly_measure":
                for inner in ast.walk(node):
                    built_inside += builds(inner)
                    names.add(getattr(inner, "attr", getattr(inner, "id", None)))
    assert built == built_inside == 1
    assert not names & {"is_circle", "total_mass"}


# the helpers and panel constants of the chord grid the lens-circle rule
# replaced; none may come back
_CHORD_GRID = {
    "_chord_log", "_chord_green", "_reflected_gradient", "_sigma_nodes",
    "_lambda_nodes", "_lens_grid", "_graded_panels", "_kink_grid",
    "_crossing_grid", "_lambda_split", "_lens_crossing", "_chord_poisson",
    "_geometric_lam_edges", "_green_block", "_balayage_block", "_N_LEFT",
    "_FAR", "_POTENTIAL_ORDER", "_HALF_DEPTH", "_KINK_DEPTH", "_KINK_ORDER",
    "_CROSSING_DEPTH", "_CROSSING_TAIL", "_KINK_REACH", "_HALF_GRADING",
    "_POTENTIAL_PANELS", "_NEAR_ZERO", "_SERIES_TERMS",
}


# the lens-circle rule and what only it read; none may come back
_LENS_RULE = {"_lens_rule", "_half_width", "_power_gap", "_sum_by",
              "_curve_potential", "_tip_rule", "_ORDER", "_GAUSS", "_GRADING"}

# the adaptive engines of the package; no evaluator of the lens reaches them
_ENGINES = {"integrate_interval", "integrate_disk_area", "integrate_boundary_arc"}


def test_one_lens_kernel():
    # the lens density is evaluated by region, the same for every m: closed
    # forms by the tip, series inside and off the lens and Euler's integral
    # on the seam between; no lens-circle rule and no chord grid is defined
    # anywhere in the package, no evaluator reaches an adaptive engine, and
    # balayage is series and closed forms, reaching no quadrature rule
    defined, refs = {}, {}
    for path in sorted((ROOT / "src" / "pshardy").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(path.stem)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined.setdefault(name.id, []).append(path.stem)
            if isinstance(node, ast.FunctionDef) and path.stem == "potential":
                refs[node.name] = {getattr(inner, "attr", getattr(inner, "id", None))
                                   for inner in ast.walk(node)} - {node.name}
    assert not _LENS_RULE & defined.keys(), sorted(_LENS_RULE & defined.keys())
    assert not _CHORD_GRID & defined.keys(), sorted(_CHORD_GRID & defined.keys())
    assert not {"_curve_balayage", "_AT_TIP"} & defined.keys()

    def reaches(start):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(refs.get(name, ()))
        return seen

    fields = {"_tip_field", "_inner_field", "_far_field", "_seam_field", "_euler"}
    for evaluator in ("green_potential", "green_gradient", "balayage"):
        assert not _ENGINES & reaches(evaluator), (evaluator, _ENGINES & reaches(evaluator))
    for evaluator in ("green_potential", "green_gradient"):
        assert fields <= reaches(evaluator), evaluator
    assert {"_far_balayage", "_tip_balayage"} <= reaches("balayage")
    assert "roots_jacobi" not in reaches("balayage")
