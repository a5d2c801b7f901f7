import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, name)` wraps that function under every name in
    the `mpkrbm` package that refers to it, for the length of the test, and
    returns a dict whose "n" counts its calls and whose "args" lists the
    positional arguments of each."""

    def install(module, name):
        original = getattr(module, name)
        counter = {"n": 0, "args": []}

        def counted(*args, **kwargs):
            counter["n"] += 1
            counter["args"].append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "mpkrbm":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return counter

    return install
