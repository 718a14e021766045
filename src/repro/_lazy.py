"""Package exports resolved on first access (PEP 562).

A package ``__init__`` that imports every submodule makes every
``import repro.<pkg>`` pay for all of them: a float32 server would load
the training loop, the quantizer and the FPGA schedule tracer it never
runs.  Instead each package names where its exports live and installs
the module-level ``__getattr__`` / ``__dir__`` this returns::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "gather": ("gather_kept_tokens", ...),
        "heatvit": ("HeatViT", "PruningRecord"),
    })

``from repro.core import HeatViT`` then imports ``repro.core.heatvit``
alone; the name is cached in the package namespace, so later lookups
never reach ``__getattr__``.  The exported objects are the submodules'
own, so identity, pickling and ``__module__`` are unchanged, and
``from repro.core import *`` (which reads ``__all__``) resolves every
name as before.
"""

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace, sources, submodules=()):
    """PEP 562 ``(__getattr__, __dir__)`` for the package whose globals
    are ``namespace``.

    ``sources`` maps a submodule's name, relative to the package, to
    the names it exports through the package; ``submodules`` names
    submodules exported as themselves (``repro.nn.functional`` as
    ``nn.functional``).
    """
    package = namespace["__name__"]
    where = {name: (f"{package}.{module}", name)
             for module, names in sources.items() for name in names}
    where.update((name, (f"{package}.{name}", None)) for name in submodules)

    def __getattr__(name):
        try:
            module, attribute = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        value = importlib.import_module(module)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *where})

    return __getattr__, __dir__
