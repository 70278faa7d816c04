"""A systematic, rateless RaptorQ-style fountain codec.

This package implements the architecture of RFC 6330 (RaptorQ):

* intermediate symbols are defined by a pre-code consisting of **LDPC**
  constraints over GF(2) and dense **HDPC** constraints over GF(256)
  (:mod:`repro.rq.matrix`);
* encoding symbols are produced by an **LT encoder** driven by a
  degree distribution and a per-symbol tuple generator
  (:mod:`repro.rq.degree`, :mod:`repro.rq.tuples`);
* the code is **systematic**: encoding symbols 0..K-1 are exactly the source
  symbols, so in the absence of loss no decoding work is required
  (:mod:`repro.rq.encoder`);
* decoding solves the constraint system with Gaussian elimination over
  GF(256) (:mod:`repro.rq.decoder`, :mod:`repro.rq.solver`); K + epsilon
  received symbols decode with high probability (rank trials at K=6 with
  epsilon = 2 measured about one failure in 20 000).

Deviations from RFC 6330 (see "Deviations from RFC 6330" in
``docs/ARCHITECTURE.md``): the RFC's pre-computed tables (systematic indices
J(K'), the V0..V3 random tables and the exact degree table) are replaced by
computed equivalents, so the codec is self-consistent but not RFC 6330
interoperable.  All behavioural properties the Polyraptor paper relies on
are preserved.

High-level usage::

    from repro.rq import ObjectEncoder, ObjectDecoder

    encoder = ObjectEncoder(data, symbol_size=1024)
    symbols = [encoder.symbol(0, esi) for esi in range(encoder.block(0).num_source_symbols + 2)]
    decoder = ObjectDecoder(encoder.oti)
    for symbol in symbols:
        decoder.add_symbol(symbol)
    assert decoder.decode() == data
"""

from repro.rq.api import decode_object, encode_object
from repro.rq.backend import CodecContext, default_context, generator_basis
from repro.rq.block import EncodedSymbol, ObjectDecoder, ObjectEncoder, ObjectTransmissionInfo
from repro.rq.decoder import BlockDecoder, DecodeFailure, DecodeResult
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import get_kernel
from repro.rq.params import CodeParameters
from repro.rq.plan import EliminationPlan, build_plan

__all__ = [
    "CodeParameters",
    "BlockEncoder",
    "BlockDecoder",
    "DecodeResult",
    "DecodeFailure",
    "ObjectEncoder",
    "ObjectDecoder",
    "ObjectTransmissionInfo",
    "EncodedSymbol",
    "encode_object",
    "decode_object",
    "CodecContext",
    "default_context",
    "generator_basis",
    "EliminationPlan",
    "build_plan",
    "get_kernel",
]
