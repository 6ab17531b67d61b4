"""A cheaper __init__ for the frozen value types.

The __init__ that @dataclass(frozen=True) writes sets each field through
`object.__setattr__`, looked up on `object` again for every field. fast_init
gives such a class an __init__ with the same parameters and defaults that
calls one pre-bound `object.__setattr__` per field instead. Everything else
stays the dataclass's own: eq, hash, repr, the FrozenInstanceError of an
assignment, fields, replace, asdict and pickling. The fields still live in
the instance's inline attribute values; writing a whole `__dict__` instead
builds a dict per instance, which costs memory and slows attribute reads.
"""
from __future__ import annotations

from dataclasses import MISSING, fields


def fast_init(cls: type) -> type:
    """Replace the __init__ of a frozen dataclass, applied above
    @dataclass(frozen=True). Fields must be plain init fields, with or
    without a default."""
    params, stores, namespace = [], [], {"_setattr": object.__setattr__}
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: fast_init takes plain fields only")
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"    _setattr(self, {f.name!r}, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(stores)}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls
