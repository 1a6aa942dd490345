"""The public surface: each name is declared once, in the module defining it."""

import hashlib
import inspect

import chipfiring

MODULES = ("chipfire", "distance", "errors", "multigraph", "oracles", "reductions", "tss")


def test_public_names_are_declared_once_in_their_module():
    names = chipfiring.__all__
    assert len(names) == len(set(names)) == 52
    assert hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest() == (
        "7bceed592c98070ac0b3dff646f1df0bdc1cc5f06132382253439be5ad8fc0fb")
    owners = {}
    for name in MODULES:
        module = getattr(chipfiring, name)
        for public in module.__all__:
            assert public not in owners, (public, owners.get(public), name)
            owners[public] = module
    assert owners.keys() == set(names)
    for public, module in owners.items():
        obj = getattr(chipfiring, public)
        assert obj is getattr(module, public)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, public
