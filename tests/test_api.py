"""The package's public names."""

import alp


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from alp import *", namespace)  # raises if a name in __all__ is missing
    assert sorted(set(alp.__all__)) == sorted(alp.__all__)
    assert all(namespace[name] is getattr(alp, name) for name in alp.__all__)
