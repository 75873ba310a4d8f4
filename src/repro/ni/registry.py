"""Declarative device registry: any taxonomy point, assembled from primitives.

The paper's contribution is a *taxonomy*, not five devices — ``NI_iX`` /
``CNI_iX`` names span a whole generative space (Alewife's ``NI16w``,
*T-NG's ``NI128Q``, or unexplored points like ``CNI64Q``).  This module
turns any legal taxonomy name into a working device:

* :class:`DeviceSpec` is the declarative *build plan* derived from a parsed
  :class:`~repro.ni.taxonomy.NISpec` — which family implements the point
  (uncached registers, CDRs, or cachable queues), how the exposed region is
  sized, where the receive queue is homed, and the constructor defaults
  that realise it;
* :func:`synthesized_class` materialises the plan as a concrete
  :class:`~repro.ni.base.AbstractNI` subclass (memoised; picklable by
  reconstruction across processes, see :class:`_SynthesizedMeta`) so the
  rest of the stack — ``create_ni``, ``validate_ni_kwargs``,
  ``Machine.build`` — treats generated devices exactly like the five
  hand-registered paper devices.

Sizing rules for generated devices (documented constants below):

* ``NI{n}w`` — n words exposed per direction; the hardware FIFO scales
  proportionally, anchored at the CM-5's 4 messages for 2 words
  (``fifo_messages = 2 * n``).
* ``NI{n}`` / ``NI{n}Q`` — an n-block queue holds ``n / 4`` messages
  (``Q`` adds explicit uncached pointer updates).
* ``CNI{n}`` — n CDR blocks per direction, used as ``n / 4`` implicit
  round-robin message slots.
* ``CNI{n}Q`` — n-block device-homed send and receive queues.
* ``CNI{n}Qm`` — n-block device cache over a memory-homed receive queue of
  ``32 * n`` blocks, anchored at the paper's CNI16Qm (16-block cache over a
  512-block queue).
"""

from __future__ import annotations

import abc
import copyreg
from dataclasses import dataclass
from typing import Dict, Tuple, Type

from repro.common.params import DEFAULT_PARAMS
from repro.ni.base import AbstractNI
from repro.ni.cni4 import CdrNI
from repro.ni.cniq import CoherentQueueNI
from repro.ni.ni2w import UncachedNI
from repro.ni.taxonomy import NISpec, TaxonomyError, parse_ni_name

#: FIFO messages per exposed word for the ``NI{n}w`` family (CM-5 anchor:
#: NI2w buffers 4 messages behind its 2 exposed words).
WORDS_TO_FIFO_MESSAGES = 2

#: Receive-queue blocks per device-cache block for the ``CNI{n}Qm`` family
#: (paper anchor: CNI16Qm backs a 512-block memory-homed queue with a
#: 16-block device cache).
QM_RECV_QUEUE_FACTOR = 32


@dataclass(frozen=True)
class DeviceSpec:
    """Declarative build plan for one taxonomy point.

    ``family`` selects the implementing device family, ``defaults`` the
    constructor keywords that realise the point's sizing.  The plan is what
    :func:`synthesized_class` compiles; it is also useful on its own for
    tooling that wants to reason about the space without building devices.
    """

    name: str
    spec: NISpec
    family: str                      # "uncached" | "cdr" | "cq"
    pointers: str                    # "implicit" | "explicit"
    defaults: Tuple[Tuple[str, object], ...]

    #: Family name -> implementing base class.
    FAMILY_BASES = {
        "uncached": UncachedNI,
        "cdr": CdrNI,
        "cq": CoherentQueueNI,
    }

    @property
    def base_class(self) -> Type[AbstractNI]:
        return self.FAMILY_BASES[self.family]

    @property
    def ni_defaults(self) -> Dict[str, object]:
        return dict(self.defaults)

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.defaults)
        return f"{self.name}: {self.base_class.__name__}({opts})"

    # ------------------------------------------------------------------
    @classmethod
    def from_name(cls, name: str) -> "DeviceSpec":
        """Plan the device for a taxonomy name, or raise :class:`TaxonomyError`.

        Buildability is checked against the paper's default machine
        parameters (4 blocks per 256-byte network message); devices built
        with custom parameters re-validate at construction time.
        """
        spec = parse_ni_name(name)
        bpm = DEFAULT_PARAMS.blocks_per_network_message
        if spec.unit == "blocks" and spec.exposed_size % bpm:
            raise TaxonomyError(
                f"{name!r}: size {spec.exposed_size} blocks is not a whole "
                f"number of {bpm}-block network messages"
            )
        if not spec.coherent:
            if spec.unit == "words":
                fifo = max(1, WORDS_TO_FIFO_MESSAGES * spec.exposed_size)
                return cls(
                    name=spec.name, spec=spec, family="uncached", pointers="implicit",
                    defaults=(("fifo_messages", fifo),),
                )
            explicit = spec.queue == "Q"
            return cls(
                name=spec.name, spec=spec, family="uncached",
                pointers="explicit" if explicit else "implicit",
                defaults=(
                    ("queue_blocks", spec.exposed_size),
                    ("explicit_pointers", explicit),
                ),
            )
        # Coherent devices (block-exposed by grammar).
        if spec.queue is None:
            return cls(
                name=spec.name, spec=spec, family="cdr", pointers="implicit",
                defaults=(("cdr_blocks", spec.exposed_size),),
            )
        if spec.queue == "Qm":
            return cls(
                name=spec.name, spec=spec, family="cq", pointers="explicit",
                defaults=(
                    ("send_queue_blocks", spec.exposed_size),
                    ("recv_queue_blocks", QM_RECV_QUEUE_FACTOR * spec.exposed_size),
                    ("recv_cache_blocks", spec.exposed_size),
                    ("recv_home", "memory"),
                ),
            )
        return cls(
            name=spec.name, spec=spec, family="cq", pointers="explicit",
            defaults=(
                ("send_queue_blocks", spec.exposed_size),
                ("recv_queue_blocks", spec.exposed_size),
                ("recv_cache_blocks", spec.exposed_size),
                ("recv_home", "device"),
            ),
        )

    # ------------------------------------------------------------------
    def build_class(self) -> Type[AbstractNI]:
        """Compile the plan into a concrete device class.

        The generated class applies the plan's sizing as overridable
        defaults (``ni_kwargs`` still win), exactly the way the
        hand-written ``CNI16Q``-style subclasses pin their parents.
        """
        defaults = self.ni_defaults
        base = self.base_class

        # The uncached family sizes its FIFO through either of two
        # exclusive axes; a user override on one axis must suppress the
        # plan's default on the other, or the device would reject the
        # combination deep in node assembly.
        sizing_aliases = {"fifo_messages": "queue_blocks", "queue_blocks": "fifo_messages"}

        # The parameter MUST be named "self": constructor signatures are
        # introspected by taxonomy._allowed_ni_kwargs to decide which
        # ni_kwargs a device accepts, and only "self" is infrastructure.
        def __init__(self, *args, **kwargs):
            for key, value in defaults.items():
                if sizing_aliases.get(key) in kwargs:
                    continue
                kwargs.setdefault(key, value)
            base.__init__(self, *args, **kwargs)

        return _SynthesizedMeta(
            self.name,
            (base,),
            {
                "__init__": __init__,
                "__doc__": self.describe(),
                "__module__": __name__,
                "taxonomy_name": self.name,
                "device_spec": self,
            },
        )


class _SynthesizedMeta(abc.ABCMeta):
    """Metaclass marking generated device classes (see the copyreg hook).

    A synthesized class has no importable module attribute, so it pickles
    by *reconstruction*: the reducer registered below sends the taxonomy
    name and the receiving process re-synthesizes (memoised) the identical
    class.  Works across fresh processes, e.g. ``multiprocessing`` spawn
    workers.  ``copyreg`` is the hook because pickle routes class objects
    through ``save_global`` without ever consulting a metaclass
    ``__reduce__``; the dispatch-table lookup runs first.
    """


def _reduce_synthesized(cls: "_SynthesizedMeta"):
    return (synthesized_class, (cls.taxonomy_name,))


copyreg.pickle(_SynthesizedMeta, _reduce_synthesized)


_SYNTHESIZED: Dict[str, Type[AbstractNI]] = {}  # repro: allow[MUTSTATE] memo of synthesized device classes, machine-free


def synthesized_class(name: str) -> Type[AbstractNI]:
    """The (memoised) generated device class for a legal taxonomy name."""
    cls = _SYNTHESIZED.get(name)
    if cls is None:
        cls = _SYNTHESIZED[name] = DeviceSpec.from_name(name).build_class()
    return cls


#: Canonical sample of the generative space, used by
#: :func:`repro.ni.taxonomy.available_devices` to enumerate what the
#: registry can build beyond the explicitly registered devices.  The space
#: itself is unbounded; this ladder covers every family across the queue
#: sizes the paper sweeps (4 -> 512 blocks) plus the classified machines.
GENERATIVE_SAMPLE: Tuple[str, ...] = (
    # Word-exposed uncached NIs (CM-5, Alewife and larger windows).
    "NI2w", "NI4w", "NI16w", "NI32w",
    # Block-exposed uncached NIs, implicit and explicit pointers (*T-NG).
    "NI4", "NI16", "NI16Q", "NI32Q", "NI128Q", "NI512Q",
    # CDR devices.
    "CNI4", "CNI8", "CNI16", "CNI64",
    # Device-homed cachable queues.
    "CNI4Q", "CNI16Q", "CNI64Q", "CNI128Q", "CNI512Q",
    # Memory-homed receive queues.
    "CNI4Qm", "CNI16Qm", "CNI64Qm",
)
