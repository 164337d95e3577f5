import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import bellsim

SUBMODULES = ("limits", "linalg", "states", "observables", "correlators", "optimize", "lhv")


@pytest.mark.parametrize("name", bellsim.__all__)
def test_public_name_is_the_object_its_submodule_defines(name):
    value = getattr(bellsim, name)
    owners = [m for m in (importlib.import_module(f"bellsim.{s}") for s in SUBMODULES)
              if hasattr(m, name)]
    assert owners
    # a re-export is the same object wherever it is read
    assert all(getattr(m, name) is value for m in owners)


def test_dir_lists_every_public_name():
    assert set(bellsim.__all__) <= set(dir(bellsim))


def test_readme_lists_every_public_name_under_its_submodule():
    readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text()
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = {name: module
              for module, names in re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", section,
                                              flags=re.M | re.S)
              for name in re.findall(r"`(\w+)`", names)}
    assert listed == {name: bellsim._EXPORTS[name] for name in bellsim.__all__}


def test_readme_library_sketch_gives_the_values_its_comments_state():
    readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text()
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = {}
    exec(re.search(r"```python\n(.*?)```", section, flags=re.S).group(1), sketch)
    value, classify, bound = sketch["value"], sketch["classify"], sketch["TSIRELSON_BOUND"]
    assert value == pytest.approx(2.828427, abs=1e-6)
    assert classify(value, 2.0, bound) and not classify(2.0, 2.0, bound)
    with pytest.raises(bellsim.NumericGuardError):
        classify(3.0, 2.0, bound)
    report = sketch["report"]
    assert (report["scenario"], report["violated"]) == ("chsh-oracle", True)
    assert report["value"] == pytest.approx(2.828427, abs=1e-6)
    assert sketch["closed"] == pytest.approx(4.0, abs=1e-15)
    assert sketch["matrix"] == pytest.approx(-4.0, abs=1e-15)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        bellsim.nope


def _fresh_python(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bellsim.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return proc.stdout.strip()


def test_import_loads_no_numpy():
    assert _fresh_python("import bellsim, sys; print('numpy' in sys.modules)") == "False"


def test_submodule_is_an_attribute_before_its_import():
    assert _fresh_python("import bellsim; print(bellsim.lhv.__name__)") == "bellsim.lhv"
