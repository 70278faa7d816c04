"""The public entry points the traced run wraps, one row per attribute.

Each :class:`Entry` names the object that *holds* the attribute callers look
up (``"module"`` or ``"module:Class"``; a module row patches a name that the
module imported, e.g. ``repro.rq.backend.build_plan``), the layer its time is
booked to -- layer names are the ``src/repro`` packages -- and whether every
call leaves a span (``span=True``: a handful of calls per iteration) or only
folds into the per-iteration aggregate (kernel ops, core events, wire frames:
thousands of calls).  Adding a row here is how a later PR gets a new
attribution line without touching ``src/``; a renamed entry point fails
loudly at install time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union


@dataclass(frozen=True)
class Entry:
    """One wrapped attribute."""

    layer: str
    owner: Union[str, Callable[[], object]]
    attr: str
    span: bool = False
    #: wrapped calls made beneath this one are booked to it, not to their own rows
    leaf: bool = False
    #: symbol-plane bytes a call reads, from its positional args (self first)
    nbytes: Optional[Callable[[tuple], int]] = None

    @property
    def name(self) -> str:
        """The aggregate key beside the layer: ``Class.attr`` or ``module.attr``."""
        if not isinstance(self.owner, str):
            return f"kernel.{self.attr}"
        holder = self.owner.replace(":", ".").rpartition(".")[2]
        return f"{holder}.{self.attr}"


def _default_kernel_class() -> type:
    """The class of the GF(256) kernel every default codec context resolves."""
    from repro.rq.kernels import get_kernel

    return type(get_kernel())


def _plane_bytes(args: tuple) -> int:
    return args[2].nbytes  # (self, matrix | rows, plane | factors)


SURFACE = (
    # rq.kernels: matmul(a, b) reads the b plane; scale_rows(rows, f) the rows.
    Entry("rq.kernels", _default_kernel_class, "matmul", nbytes=_plane_bytes),
    Entry("rq.kernels", _default_kernel_class, "matvec", nbytes=_plane_bytes),
    Entry("rq.kernels", _default_kernel_class, "scale_rows", nbytes=lambda args: args[1].nbytes),
    # rq plan / codec.  A cold plan build is one cost to its caller, so the
    # kernel row ops of its elimination stay inside it (leaf); rq.kernels is
    # then the replay work that remains once every plan is cached.
    Entry("rq.plan", "repro.rq.backend", "build_plan", span=True, leaf=True),
    Entry("rq.encode", "repro.rq.backend:CodecContext", "encode_intermediate", span=True),
    Entry("rq.encode", "repro.rq.block:ObjectEncoder", "symbol"),
    Entry("rq.encode", "repro.rq.block:ObjectEncoder", "symbol_block"),
    Entry("rq.decode", "repro.rq.backend:CodecContext", "decode_intermediate", span=True),
    Entry("rq.decode", "repro.rq.block:ObjectDecoder", "add_symbol"),
    Entry("rq.decode", "repro.rq.block:ObjectDecoder", "decode", span=True),
    # protocol cores: every event handler a driver (sim or net) calls
    Entry("protocol", "repro.protocol.sender:SenderCore", "start"),
    Entry("protocol", "repro.protocol.sender:SenderCore", "on_pull"),
    Entry("protocol", "repro.protocol.sender:SenderCore", "on_done"),
    Entry("protocol", "repro.protocol.sender:SenderCore", "on_timer"),
    Entry("protocol", "repro.protocol.receiver:ReceiverCore", "start_fetch"),
    Entry("protocol", "repro.protocol.receiver:ReceiverCore", "on_symbol"),
    Entry("protocol", "repro.protocol.receiver:ReceiverCore", "build_pull"),
    Entry("protocol", "repro.protocol.receiver:ReceiverCore", "on_done_ack"),
    Entry("protocol", "repro.protocol.receiver:ReceiverCore", "on_timer"),
    # sim / network
    Entry("sim", "repro.sim.engine:Simulator", "run", span=True),
    Entry("network", "repro.experiments.runner", "build_environment", span=True),
    # net.wire, where the endpoints imported the codec functions
    Entry("net.wire", "repro.net.server", "encode_frame"),
    Entry("net.wire", "repro.net.server", "decode_frame"),
    Entry("net.wire", "repro.net.client", "encode_frame"),
    Entry("net.wire", "repro.net.client", "decode_frame"),
)
