"""Exact chromatic and path quasisymmetric functions of natural unit
interval orders, Tymoczko Betti numbers of regular Hessenberg varieties,
and the dot-action character of the symmetric group, with brute-force
verifiers for the identities connecting them.

The first access to a public name loads them all from ``_exports``, which
imports every pipeline (PEP 562); until then ``import hesschrom.betti``
or a CLI request pays only for the modules it uses."""

__version__ = "0.1.0"


def __getattr__(name):
    # called only for names not yet in the namespace
    if not name.startswith("_") or name == "__all__":
        from . import _exports
        names = _exports.__all__
        globals().update({key: getattr(_exports, key) for key in names}, __all__=names)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
