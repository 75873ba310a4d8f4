"""Registry of coherence-protocol rule tables.

Mirrors the device registry (:mod:`repro.ni.registry`) and the fabric
registry (:mod:`repro.network.registry`): built-in tables register at
import, plugins register at runtime under their spec's name.  A plugin's
registering module is remembered (:func:`plugin_source`) so the result
store can fold that file's digest into the keys of specs naming it.

Plugins use the plain call or the decorator form::

    register_protocol(my_spec)

    @register_protocol
    def dragon() -> ProtocolSpec:
        return ProtocolSpec(name="dragon", ...)

The decorator registers the *built* spec and rebinds the function name to
it, so ``dragon`` is the :class:`ProtocolSpec` afterwards.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Dict, Optional, Tuple, Union

from repro.coherence.protocols.spec import ProtocolError, ProtocolSpec

_BUILTIN: Dict[str, ProtocolSpec] = {}  # repro: allow[MUTSTATE] import-time protocol plugin registry
_REGISTRY: Dict[str, ProtocolSpec] = {}  # repro: allow[MUTSTATE] import-time protocol plugin registry
#: Plugin name -> source file of the module that registered it.
_SOURCES: Dict[str, str] = {}  # repro: allow[MUTSTATE] import-time protocol plugin registry


def register_protocol(
    spec: Union[ProtocolSpec, Callable[[], ProtocolSpec], None] = None,
    *,
    replace: bool = False,
):
    """Register a protocol table under ``spec.name``.

    Accepts a :class:`ProtocolSpec` directly, or decorates a zero-argument
    builder function (the spec it returns is registered and returned).
    ``replace=True`` allows shadowing an existing name; built-ins shadowed
    this way are restored by :func:`unregister_protocol`.
    """
    if spec is None:
        return functools.partial(register_protocol, replace=replace)
    if not isinstance(spec, ProtocolSpec):
        if not callable(spec):
            raise ProtocolError(f"register_protocol expects a ProtocolSpec, got {spec!r}")
        built = spec()
        if not isinstance(built, ProtocolSpec):
            raise ProtocolError(
                f"@register_protocol builder {spec!r} returned {built!r}, "
                f"not a ProtocolSpec"
            )
        return register_protocol(built, replace=replace)
    spec.validate()
    if spec.name in _REGISTRY and not replace:
        raise ProtocolError(
            f"protocol {spec.name!r} is already registered "
            f"(pass replace=True to shadow it)"
        )
    _REGISTRY[spec.name] = spec
    frame = sys._getframe(1)
    while frame.f_back is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back  # step out of the decorator forms' recursion
    _SOURCES[spec.name] = frame.f_code.co_filename
    return spec


def _register_builtin(spec: ProtocolSpec) -> ProtocolSpec:
    spec.validate()
    _BUILTIN[spec.name] = spec
    _REGISTRY[spec.name] = spec
    return spec


def unregister_protocol(name: str) -> None:
    """Remove a registered protocol; shadowed built-ins are restored."""
    if name not in _REGISTRY:
        raise ProtocolError(f"protocol {name!r} is not registered")
    _SOURCES.pop(name, None)
    if name in _BUILTIN:
        _REGISTRY[name] = _BUILTIN[name]
    else:
        del _REGISTRY[name]


def protocol_spec(name: str) -> ProtocolSpec:
    """The registered table for ``name``; raises :class:`ProtocolError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ProtocolError(
            f"unknown coherence protocol {name!r}; registered: {known}"
        ) from None


def available_protocols() -> Tuple[ProtocolSpec, ...]:
    """Every registered table, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def plugin_source(name: Optional[str]) -> Optional[str]:
    """Source file of the module that registered plugin ``name`` (``None``
    for built-in tables and unknown names)."""
    return _SOURCES.get(name)


def is_builtin(name: str) -> bool:
    return name in _BUILTIN and _REGISTRY.get(name) is _BUILTIN[name]
