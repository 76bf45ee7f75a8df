import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from ccybe import exactpoly, search

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# Bindings the benchmark tracer lists that the program no longer has:
# search reaches the tensor steps through the ybe module instead, the
# double bracket is built modulo the total derivation, so no reduction
# step is left to bind, and invariance reads the diagonal, so no factor
# swap is left either.
KNOWN_MISSING = {
    ("search", "eval_equation"),
    ("search", "is_weak_solution"),
    ("search", "is_strict_solution"),
    ("ybe", "reduce_mod_total"),
    ("ybe", "tau"),
}


def _patches() -> tuple:
    """perfbench/tracing.PATCHES: (owner, attribute, span name, count)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


def test_tracer_bindings_exist():
    # a binding the tracer patches but the program dropped shows up only
    # as a "not traced" line in a traced benchmark run; catch it here
    missing = set()
    for owner, attr, _name, _count in _patches():
        if owner == "MPoly":
            found = attr in exactpoly.MPoly.__dict__
        else:
            found = hasattr(importlib.import_module(f"ccybe.{owner}"), attr)
        if not found:
            missing.add((owner, attr))
    assert missing <= KNOWN_MISSING


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _run_script(name, *argv) -> subprocess.CompletedProcess:
    """scripts/<name> on `argv` in a new process, importing the package
    these tests import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactpoly.__file__)))
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)


def test_certify_families_script():
    # the script's every-degree argument needs f of degree 5, so the
    # table must cover f of degree 0-5 for every case, not just exit 0
    done = _run_script("certify_families.py")
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split()[:5] for line in done.stdout.splitlines()[1:]]
    cases = ("thm5_i", "thm5_ii", "thm5_iii", "cor6_i", "cor6_ii", "cor6_iii")
    assert [(case, int(deg)) for case, deg, *_ in rows] \
        == [(case, deg) for case in cases for deg in range(6)]
    for case, _deg, invariant, weak, strict in rows:
        assert invariant == weak == "True"
        if case.startswith("cor6"):
            assert strict == "True"


@pytest.mark.parametrize("name, writes_reports", [("certify_families.py", False),
                                                   ("run_classification_search.py", True)])
def test_scripts_exit_quietly_on_a_closed_pipe(tmp_path, name, writes_reports):
    # a reader that takes two lines and closes the pipe, as `| head -2`
    # does, stops the script with no traceback and the status its
    # docstring gives; unbuffered, each line is written as it is printed
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactpoly.__file__)))
    argv = ["--out-dir", str(tmp_path)] if writes_reports else []
    proc = subprocess.Popen(
        [sys.executable, os.path.join(SCRIPTS, name), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"))
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert all(line.endswith("\n") for line in lines) and err == ""
    assert proc.wait(timeout=300) == 141


@pytest.mark.parametrize("argv, named", [
    (["--jobs", "0"], "--jobs"),
    (["--jobs", str(search.MAX_WORKERS + 1)], "--jobs"),
    (["--out-dir", "a_file"], "--out-dir"),
    (["--out-dir", "blocked"], "weak_raw_deg1.json"),
], ids=["jobs_zero", "jobs_above_max", "out_dir_is_a_file", "report_unwritable"])
def test_classification_search_script_usage_errors(tmp_path, argv, named):
    # exit 2 with one error line, not a traceback with exit 1, the
    # script's status for a characterization failure; a bad --jobs or
    # --out-dir is refused before any search runs, so nothing is
    # printed, and a report that cannot be written stops the script
    (tmp_path / "a_file").write_text("")
    (tmp_path / "blocked" / "weak_raw_deg1.json").mkdir(parents=True)
    argv = [str(tmp_path / a) if a in ("a_file", "blocked") else a for a in argv]
    done = _run_script("run_classification_search.py", *argv)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert named in done.stderr
    assert done.stdout == ""


# The content hash of each report that run_classification_search.py writes.
SCRIPT_HASHES = {
    "weak_raw_deg1": "62e76329bb13037fc6a541a8b741127fe937778eb034fc94fbaf1f49cb41a32f",
    "strict_raw_deg1": "fd4065f89eb5835dc63087821429206a3575954082365853e0cdc680426cc392",
    "weak_odd_deg3": "7e416beae41a1fce7fd1d5981c5133e1998b6cb04a77de524b5c6822c49aa4b2",
    "weak_odd_deg5": "594424deecbec318ddde69c6d6849ed7458b05a1b975fe2aea629ae592ccf877",
}


def test_classification_search_script(tmp_path):
    done = _run_script("run_classification_search.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert [p.stem for p in reports] == sorted(
        ["weak_raw_deg1", "strict_raw_deg1", "weak_odd_deg3", "weak_odd_deg5"])
    for path in reports:
        report = json.loads(path.read_text())
        assert report["characterization_failures"] == []
        assert report["content_hash"] == SCRIPT_HASHES[path.stem], path.stem


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _unused_imports(path) -> list:
    """(line, name) of each name that an import in `path` binds and the
    module never reads; `from __future__` imports bind nothing."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    found = []
    for top in ("src/ccybe", "scripts", "tests"):
        for folder, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    found += [f"{os.path.relpath(path, ROOT)}:{line}: {unused}"
                              for line, unused in _unused_imports(path)]
    assert found == []


def _defs(tree) -> list:
    """(line, name, owner) of each function or class at module level,
    with owner None, and of each method, with owner its class's name;
    dunder methods are left out."""
    found = []
    for node in tree.body:
        bodies = [(node, None)]
        if isinstance(node, ast.ClassDef):
            bodies += [(item, node.name) for item in node.body]
        for item, owner in bodies:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not item.name.endswith("__"):
                found.append((item.lineno, item.name, owner))
    return found


def _attributes_read(tree) -> set:
    """Every name `tree` reads as an attribute."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _attributes_called(tree) -> set:
    """Every name `tree` calls as an attribute, as in x.name(...)."""
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


def _properties(tree) -> set:
    """(class name, name) of each method in `tree` that @property makes
    an attribute."""
    return {(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "property"
                    for d in item.decorator_list)}


def _names_read(tree) -> set:
    """Every name `tree` reads, as a name or as an attribute; a name
    that is only bound, as an assignment's target, is not read."""
    return _attributes_read(tree) | {node.id for node in ast.walk(tree)
                                     if isinstance(node, ast.Name)
                                     and isinstance(node.ctx, ast.Load)}


def _assigned(tree) -> list:
    """(line, name) of each name a module-level assignment binds;
    dunders such as __all__ are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [(node.lineno, name.id) for target in targets for name in ast.walk(target)
                  if isinstance(name, ast.Name) and not name.id.endswith("__")]
    return found


def _trees(*tops) -> dict:
    """The parsed modules under the folders `tops` of the repository,
    keyed by their paths relative to it."""
    trees = {}
    for top in tops:
        for folder, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        trees[os.path.relpath(path, ROOT)] = ast.parse(fh.read(), path)
    return trees


def test_no_unread_private_defs():
    # a private helper whose last caller is gone is dead code: every
    # `_`-prefixed function, class or method in src/ccybe is read, as a
    # name or an attribute, somewhere in src/ccybe
    trees = _trees(os.path.join("src", "ccybe"))
    read = set().union(*(_names_read(tree) for tree in trees.values()))
    defined = [(path, line, name) for path, tree in trees.items()
               for line, name, _owner in _defs(tree) if name.startswith("_")]
    assert len(defined) > 50
    assert [f"{path}:{line}: {name}" for path, line, name in defined
            if name not in read] == []


# Public defs in src/ccybe that only tests read today: ROADMAP item 1
# plans their callers (the automorphism witness of a search survivor).
PLANNED_PUBLIC = {"ad", "transform_conf_tensor"}


def test_public_defs_read_outside_tests():
    # code that only tests use lives in tests/support.py: every public
    # function, class or module-level assignment in src/ccybe is read
    # somewhere in src/, scripts/ or perfbench/, as a name, an attribute
    # or a string (the benchmark tracer names the functions it wraps in
    # strings); every public property is read there as an attribute and
    # every other public method is called there as one (x.name(...)),
    # or the tracer patches it, so a local variable, a dict key or a
    # non-call attribute of the same name does not count
    trees = _trees("src", "scripts", "perfbench")
    attributes = set().union(*(_attributes_read(tree) for tree in trees.values()))
    called = set().union(*(_attributes_called(tree) for tree in trees.values()))
    properties = set().union(*(_properties(tree) for tree in trees.values()))
    read = set().union(*(_names_read(tree) for tree in trees.values()))
    read |= {node.value for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    patched = {(owner, attr) for owner, attr, _name, _count in _patches()}
    defined = [(path, line, name, owner) for path, tree in trees.items()
               if path.startswith(os.path.join("src", "ccybe"))
               for line, name, owner in _defs(tree) + [(line, name, None)
                                                      for line, name in _assigned(tree)]
               if not name.startswith("_")]
    assert len(defined) > 120
    unread = [(path, line, name) for path, line, name, owner in defined
              if (name not in (attributes if (owner, name) in properties else called)
                  and (owner, name) not in patched if owner
                  else name not in read)]
    assert [f"{path}:{line}: {name}" for path, line, name in unread
            if name not in PLANNED_PUBLIC] == []
    # a planned name that gains a reader leaves the list
    assert {name for _path, _line, name in unread} == PLANNED_PUBLIC


# Defaulted parameters that no call outside the tests sets today:
# ROADMAP item 3's PR B plans the strict search's call of name_case
# with its own cases.
PLANNED_PARAMETERS = {("name_case", "cases")}


def _defaulted(tree) -> list:
    """(line, callee name, parameter, position) of each defaulted
    parameter of each function or method in `tree`; the callee of an
    __init__ is its class, and a position counts the arguments a call
    passes, so a method's self and a classmethod's cls take none (the
    package has no static methods).  A keyword-only parameter has
    position None."""
    found = []
    for node in tree.body:
        items = [(node, None)]
        if isinstance(node, ast.ClassDef):
            items = [(item, node.name) for item in node.body]
        for item, owner in items:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner if item.name == "__init__" else item.name
            params = item.args.args
            skip = 1 if owner else 0
            first = len(params) - len(item.args.defaults)
            found += [(item.lineno, name, p.arg, i - skip)
                      for i, p in enumerate(params) if i >= first]
            found += [(item.lineno, name, p.arg, None)
                      for p, d in zip(item.args.kwonlyargs, item.args.kw_defaults)
                      if d is not None]
    return found


def _calls(tree):
    """(callee name, positional count or None if a *args may pass any,
    keyword names or None if a **kwargs may pass any) of each call in
    `tree`; partial(f, ...) counts as a call of f, and cls(...) in a
    class as a call of that class."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "cls" and owner:
                name = owner
            positional = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
            keywords = {k.arg for k in node.keywords}
            yield name, positional, None if None in keywords else keywords


def test_optional_parameters_set_outside_tests():
    # a default that every call outside the tests keeps is an option no
    # user sets: each defaulted parameter of a function or method in
    # src/ccybe is passed, by keyword or by position, at some call of
    # that name in src/, scripts/ or perfbench/
    trees = _trees("src", "scripts", "perfbench")
    calls = [call for tree in trees.values() for call in _calls(tree)]
    defaulted = [(path, line, name, param, pos) for path, tree in trees.items()
                 if path.startswith(os.path.join("src", "ccybe"))
                 for line, name, param, pos in _defaulted(tree)]
    assert len(defaulted) > 10

    def passed(name, param, pos):
        return any(callee == name and (
            keywords is None or param in keywords
            or (pos is not None and (positional is None or positional > pos)))
            for callee, positional, keywords in calls)

    unset = [(path, line, name, param) for path, line, name, param, pos in defaulted
             if not passed(name, param, pos)]
    assert [f"{path}:{line}: {name}({param})" for path, line, name, param in unset
            if (name, param) not in PLANNED_PARAMETERS] == []
    # a planned parameter that gains a caller leaves the list
    assert {(name, param) for _path, _line, name, param in unset} == PLANNED_PARAMETERS


def test_support_helpers_read():
    # a helper in tests/support.py whose last reader is gone is dead
    # code: each public def or class there is read by some test module,
    # and each private one inside support.py
    tests = os.path.join(ROOT, "tests")
    trees = {}
    for name in sorted(os.listdir(tests)):
        if name == "support.py" or (name.startswith("test_") and name.endswith(".py")):
            with open(os.path.join(tests, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), name)
    support = trees.pop("support.py")
    in_tests = set().union(*(_names_read(tree) for tree in trees.values()))
    in_support = _names_read(support)
    defined = [(node.lineno, node.name) for node in support.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 30
    assert [f"tests/support.py:{line}: {name}" for line, name in defined
            if name not in (in_support if name.startswith("_") else in_tests)] == []
