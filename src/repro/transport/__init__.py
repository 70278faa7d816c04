"""The simulator's transport bindings: one host endpoint per protocol.

* :mod:`repro.transport.polyraptor` -- :class:`PolyraptorAgent`, the
  simulator binding of the sans-IO Polyraptor cores in
  :mod:`repro.protocol`: it starts push and fetch sessions, owns the host's
  pull pacer and demultiplexes arriving packets.
* :mod:`repro.transport.tcp` -- the NewReno-style TCP baseline the paper
  compares against ("standard unicast data transport"), including the
  multi-unicast replication and uncoordinated multi-source fetch emulations
  used in Figures 1a and 1b.
* :mod:`repro.transport.base` -- the transfer registry (start/completion
  times, goodput) the experiment runner keeps.

Both agents have the same shape: a host endpoint that starts sessions or
flows and fires one ``on_complete`` callback per transfer.  Neither keeps
transfer records; the runner does.
"""

from repro.transport.base import TransferRecord, TransferRegistry

__all__ = ["TransferRecord", "TransferRegistry"]
