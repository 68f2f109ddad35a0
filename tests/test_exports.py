import importlib
import pkgutil

import keycontact


def test_every_name_in_a_module_all_resolves():
    modules = [keycontact] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(keycontact.__path__, keycontact.__name__ + ".")
    ]
    assert len(modules) > 20
    stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []
