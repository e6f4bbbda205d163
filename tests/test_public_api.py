import farey_brocot


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from farey_brocot import *", namespace)
    names = farey_brocot.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert namespace[name] is getattr(farey_brocot, name)
