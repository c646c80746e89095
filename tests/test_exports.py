"""The package's public surface: every exported name resolves."""

import densedistill


def test_every_exported_name_resolves():
    missing = [name for name in densedistill.__all__ if not hasattr(densedistill, name)]
    assert missing == []
    assert len(set(densedistill.__all__)) == len(densedistill.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from densedistill import *", namespace)
    assert set(densedistill.__all__) <= set(namespace)
