"""The CODECS table: every codec query's fused synth->decode UDF agrees
with its independent scalar twin, and its golden columns are exactly the
columns the query emits (so query and oracle SQL agree by construction)."""

import pyarrow as pa
import pytest

from __ray_entry__ import CODECS, _synth_decode


@pytest.mark.parametrize("name", sorted(CODECS))
def test_codec_stage_matches_twin(name):
    c = CODECS[name]
    ids = list(range(8))
    out = _synth_decode(c)(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    assert tuple(out.column_names) == c.names
    got = list(zip(*(out[n].to_pylist() for n in c.names)))
    assert got == [row for d in ids for row in c.twin(d)]
