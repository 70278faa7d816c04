"""Polyraptor packet payload descriptors.

Five packet types make up the protocol:

* :class:`SymbolPayload`  -- an encoding symbol (DATA; trimmable);
* :class:`PullPayload`    -- a receiver's request for one more symbol
  (control, priority);
* :class:`RequestPayload` -- session establishment for many-to-one fetches
  (control, priority);
* :class:`DonePayload`    -- a receiver informing a sender that it has
  decoded the object (control, priority; retransmitted with capped backoff
  until acknowledged);
* :class:`DoneAckPayload` -- the sender's acknowledgement that stops the
  DONE retries (control, priority).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SymbolPayload:
    """Descriptor of one encoding symbol.

    Every symbol packet carries enough metadata for a receiver to set up its
    session state on first contact: the object size and block structure are
    derivable from ``object_bytes`` plus the (shared) protocol configuration.
    ``data`` carries real encoded bytes only in payload mode.
    """

    session_id: int
    sender_host: int
    block_number: int
    esi: int
    block_symbol_count: int
    num_blocks: int
    object_bytes: int
    data: Optional[bytes] = None
    #: per-stream emission counter (the sender's multicast stream, or its
    #: unicast leg to one receiver); a receiver in ``pull_on_gap`` mode
    #: differences consecutive values to pull for symbols that vanished.
    sequence: int = 0


@dataclass(frozen=True)
class PullPayload:
    """A pull request: "send me one more symbol of this session"."""

    session_id: int
    receiver_host: int
    pull_sequence: int
    block_hint: Optional[int] = None


@dataclass(frozen=True)
class RequestPayload:
    """Fetch-session establishment sent by the receiver to each replica sender."""

    session_id: int
    receiver_host: int
    object_bytes: int
    sender_index: int
    num_senders: int


@dataclass(frozen=True)
class DonePayload:
    """Receiver-to-sender notification that the object has been decoded."""

    session_id: int
    receiver_host: int


@dataclass(frozen=True)
class DoneAckPayload:
    """Sender-to-receiver acknowledgement of a DONE.

    DONE is retransmitted with capped backoff (a lost DONE would leave the
    sender pull-clocked forever); the ack lets the receiver cancel the
    retries as soon as one copy got through, so healthy runs pay exactly one
    DONE and one ack per (receiver, sender) pair.
    """

    session_id: int
    sender_host: int
