"""The Polyraptor protocol's vocabulary: its configuration and payload types.

* :mod:`repro.core.config` -- :class:`~repro.core.config.PolyraptorConfig`,
  every protocol parameter (symbol size, pull pacing, timers, reaction
  switches);
* :mod:`repro.core.packets` -- the payloads the protocol exchanges (symbols,
  pulls, requests, DONE and DONE-ACK).

Both are plain data with no behaviour.  The session logic that speaks them
lives in the sans-IO cores of :mod:`repro.protocol`; the simulator binding
is :class:`repro.transport.polyraptor.PolyraptorAgent` and the real-UDP
binding is :mod:`repro.net`.
"""
