"""Every K' keeps the systematic seed and generator basis it has always had.

``golden/basis_digests.json`` maps K to ``[systematic_seed, sha256 of
generator_basis(for_k(K))]`` for K = 4..256, 300 and 500, as the dense
GF(256) Gauss-Jordan elimination computed them before the basis was built
GF(2)-first.  A basis is the inverse of one matrix, so the pivot order of
the elimination must not move a byte; the seed search must still pick the
first seed whose constraint matrix is invertible.  The table is a fixed
reference: a mismatch is a codec change, not a stale file.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.rq.backend import generator_basis
from repro.rq.params import for_k

TABLE = json.loads((Path(__file__).parent / "golden" / "basis_digests.json").read_text())


def test_every_k_keeps_its_seed_and_basis_bytes():
    moved = {}
    for k, (seed, digest) in TABLE.items():
        params = for_k(int(k))
        basis = np.ascontiguousarray(generator_basis(params))
        got = (params.systematic_seed, hashlib.sha256(basis.tobytes()).hexdigest())
        if got != (seed, digest):
            moved[k] = got
    assert len(TABLE) == 255
    assert not moved, f"seed or basis moved for K = {sorted(moved, key=int)}"
