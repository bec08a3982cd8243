"""The package namespace: every exported name resolves."""
import borg_spectra


def test_all_names_resolve():
    names = borg_spectra.__all__
    assert [n for n in names if not hasattr(borg_spectra, n)] == []
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from borg_spectra import *", namespace)
    assert set(names) <= set(namespace)
