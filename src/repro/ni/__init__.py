"""Network interface devices, assembled from composable primitives.

The three device *families* (:class:`UncachedNI`, :class:`CdrNI`,
:class:`CoherentQueueNI`) pair the send/receive port primitives of
:mod:`repro.ni.primitives` over the shared :class:`AbstractNI`
infrastructure; :mod:`repro.ni.registry` synthesizes a concrete device
class for any legal taxonomy name from them.
"""

from repro.ni.base import (
    AbstractNI,
    ComposedNI,
    DeviceHomeAgent,
    NIError,
    DEVICE_PROCESSING_CYCLES,
)
from repro.ni.cni4 import CNI4, CdrNI
from repro.ni.cniq import CNI16Q, CNI512Q, CNI16Qm, CoherentQueueNI
from repro.ni.cq import CachableQueue, QueueError, SenseReverseQueue, sense_for_pass
from repro.ni.ni2w import NI2w, UncachedNI
from repro.ni.registry import (
    GENERATIVE_SAMPLE,
    DeviceSpec,
    synthesized_class,
)
from repro.ni.taxonomy import (
    EVALUATED_DEVICES,
    DeviceInfo,
    NISpec,
    TaxonomyError,
    available_device_names,
    available_devices,
    classify_existing_machines,
    create_ni,
    device_class,
    parse_ni_name,
    register_device,
    unregister_device,
    validate_ni_kwargs,
)

__all__ = [
    "AbstractNI",
    "ComposedNI",
    "DeviceHomeAgent",
    "NIError",
    "DEVICE_PROCESSING_CYCLES",
    "NI2w",
    "UncachedNI",
    "CNI4",
    "CdrNI",
    "CoherentQueueNI",
    "CNI16Q",
    "CNI512Q",
    "CNI16Qm",
    "CachableQueue",
    "SenseReverseQueue",
    "QueueError",
    "sense_for_pass",
    "NISpec",
    "TaxonomyError",
    "parse_ni_name",
    "create_ni",
    "device_class",
    "register_device",
    "unregister_device",
    "available_devices",
    "available_device_names",
    "validate_ni_kwargs",
    "DeviceInfo",
    "DeviceSpec",
    "synthesized_class",
    "GENERATIVE_SAMPLE",
    "classify_existing_machines",
    "EVALUATED_DEVICES",
]
