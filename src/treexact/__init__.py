"""treexact: decide, build, and audit positive-weighted trees realizing a
dissimilarity matrix on exactly its n labeled points.

The public surface is the union of the six modules' `__all__` lists; each
public name is declared once, in its own module.

`import treexact` loads `core`, `errors`, `numeric` and `reconstruct`.
A submodule name (`cli`, `conditions`, `oracle`) loads that submodule alone,
as `import treexact.<name>` does. Any other name the package does not hold
loads `conditions` and `oracle` (PEP 562) and binds every public name and
`__all__`.
"""

import importlib

from .core import *
from .errors import *
from .numeric import *
# The import system binds the submodule `treexact.reconstruct` first, then
# this star import rebinds the name to the function.
from .reconstruct import *

__version__ = "0.1.0"

_MODULES = ("conditions", "core", "errors", "numeric", "oracle", "reconstruct")


def _load() -> None:
    """Import `conditions` and `oracle`, bind every public name and build
    `__all__` in the order of `_MODULES`; a no-op once done."""
    if "__all__" in globals():
        return
    # `import_module` takes each module from `sys.modules`, not from this
    # package's attributes, so `reconstruct` gives the module and nothing
    # here reaches `__getattr__` again.
    modules = [importlib.import_module(f".{name}", __name__) for name in _MODULES]
    globals().update({name: getattr(module, name) for module in modules for name in module.__all__})
    globals()["__all__"] = [name for module in modules for name in module.__all__]


def __getattr__(name: str):
    if name in ("cli", "conditions", "oracle"):
        return importlib.import_module(f".{name}", __name__)
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
