"""The package namespace: what ``mdmtj`` exports and where each name lives.

``import mdmtj`` imports no submodule. Each exported name is imported from its
home submodule on first access (PEP 562), and each home submodule resolves as
an attribute of the package.
"""

import importlib
from types import ModuleType

import pytest

import mdmtj

# In a fresh interpreter, prints: the submodules ``import mdmtj`` loaded, what
# ``dir`` lists before any name is accessed, what ``from mdmtj import *``
# binds, and each home submodule that does not resolve as a package attribute.
_FRESH_NAMESPACE = """
import sys
import mdmtj

loaded = sorted(name for name in sys.modules if name.startswith("mdmtj."))
listed = dir(mdmtj)
namespace = {}
exec("from mdmtj import *", namespace)
unbound = [
    home for home in sorted(set(mdmtj._HOME.values()))
    if getattr(mdmtj, home) is not sys.modules["mdmtj." + home]
]
print(repr((loaded, listed, sorted(namespace), unbound)))
"""


def test_every_exported_name_resolves():
    assert len(mdmtj.__all__) == len(set(mdmtj.__all__))
    missing = [name for name in mdmtj.__all__ if not hasattr(mdmtj, name)]
    assert missing == []


def test_every_public_binding_is_exported():
    assert set(mdmtj._HOME) == set(mdmtj.__all__) - {"__version__"}
    assert "__version__" in mdmtj.__all__
    public = {
        name for name, value in vars(mdmtj).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public - set(mdmtj.__all__) == set()


def test_each_name_is_its_home_modules_object():
    for name, home in mdmtj._HOME.items():
        module = importlib.import_module(f"mdmtj.{home}")
        assert getattr(mdmtj, name) is (module if name == home else getattr(module, name)), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'mdmtj' has no attribute 'nope'"):
        mdmtj.nope


def test_import_loads_no_submodule_and_every_name_resolves_lazily(fresh_python):
    code, out, err = fresh_python(_FRESH_NAMESPACE)
    assert code == 0, err
    loaded, listed, bound, unbound = eval(out)
    assert loaded == []
    assert set(mdmtj.__all__) <= set(listed)
    assert set(mdmtj.__all__) <= set(bound)
    assert unbound == []
