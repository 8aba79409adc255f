import importlib
import pkgutil

import pytest

import freelevy

MODULES = sorted(info.name for info in pkgutil.iter_modules(freelevy.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a re-export (transforms exports GridMeasure) resolves like any other name,
    # so only what a name resolves to is checked, not where it is defined
    module = importlib.import_module(f"freelevy.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == [], name
