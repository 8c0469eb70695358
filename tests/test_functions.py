"""Synthesis/hashing/text kernel tests (the non-Ray function layer)."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from shapefile_rs_ray.functions import hashing, synth, text

SF = "/root/testdata/sf0.001"


def _docs():
    return pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "lang"]).sort_by("doc_id")


def test_webpages_bit_parity_with_sql():
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    sql = con.execute(synth.webpages_sql() + " ORDER BY page_id").arrow()
    eng = synth.webpage_batch(_docs())
    assert eng.num_rows == sql.num_rows == 500 * synth.REPL
    for col in ["page_id", "url", "warc_ts", "html", "text", "lang"]:
        assert pc.all(pc.equal(eng[col],
                               sql[col].cast(eng[col].type))).as_py()
    for col in ["lon", "lat"]:
        assert np.array_equal(np.asarray(eng[col]), np.asarray(sql[col]))


def test_sites_bit_parity_with_sql():
    con = duckdb.connect()
    s = con.execute(synth.sites_sql()).arrow()
    ids, lon, lat = synth.sites()
    assert np.array_equal(lon, np.asarray(s["lon"]))
    assert np.array_equal(lat, np.asarray(s["lat"]))


def test_geocode_branches():
    ids = np.arange(10_000, dtype=np.int64)
    lon, lat = synth.geocode(ids)
    hot = ids % 10 == 9
    assert np.all(np.abs(lon[hot] - synth.HOT_X) <= 0.05)
    lakes = ids % 10 < 7
    assert np.all(lat[lakes] >= 8.9) and np.all(lat[lakes] <= 81.1)
    assert np.all(lon >= -180) and np.all(lon < 180.0001)


def test_minhash_jaccard_estimation():
    a = "the quick brown fox jumps over the lazy dog and runs far away home"
    b = a.replace("lazy", "sleepy")
    c = "completely unrelated words about ray data pipelines and shuffles"
    mh = hashing.MinHasher(num_perm=128)
    sig = mh.signatures([a, b, c])
    est_ab = (sig[0] == sig[1]).mean()
    true_ab = hashing.jaccard_ngrams(a, b)
    assert abs(est_ab - true_ab) < 0.25
    assert (sig[0] == sig[2]).mean() < 0.2
    # determinism across instances (actor pool consistency)
    assert np.array_equal(sig, hashing.MinHasher(num_perm=128).signatures([a, b, c]))


def test_simhash_properties():
    a = "spark ray data join shuffle groupby aggregate window stream batch"
    b = a.replace("window", "pane")
    c = "xylophone quartz vibrant mango elephant guitar piano violin cello"
    sh = hashing.simhash64([a, a, b, c])
    assert sh[0] == sh[1]

    def ham(x, y):
        return bin(int(np.uint64(x.view(np.uint64))) ^
                   int(np.uint64(y.view(np.uint64)))).count("1")
    assert ham(sh[0], sh[2]) < ham(sh[0], sh[3])


def test_content_hash_and_sha():
    texts = ["abc", "abc", "abd", ""]
    h = hashing.content_hash64(texts)
    assert h[0] == h[1] and h[0] != h[2]
    import hashlib
    assert hashing.sha256_hex(["abc"])[0] == hashlib.sha256(b"abc").hexdigest()


def _random_texts(n: int, seed: int) -> list:
    """Random Unicode: ASCII classes, 2/3/4-byte chars, tabs and newlines,
    empty strings and nulls."""
    rng = np.random.default_rng(seed)
    alphabet = list("aZ09 .,;:!?\t\r\n-_\x00") + [
        "é", "ß", "Ω", "中", "文", "😀", "\u00a0", "\u2028", "Ａ", "𝐀"]
    out = []
    for _ in range(n):
        r = rng.random()
        out.append(None if r < 0.05 else "" if r < 0.1 else "".join(
            rng.choice(alphabet, rng.integers(1, 80))))
    return out


def test_token_stats_sql_parity():
    """The byte-class kernel equals Arrow's RE2 counts and the DuckDB
    oracle on the corpus, random Unicode, nulls, slices and chunks."""
    tables = [pa.table({"text": _docs()["text"]})]
    for typ in (pa.string(), pa.large_string()):
        t = pa.table({"text": pa.array(_random_texts(2000, 7), typ)})
        tables += [t, t.slice(13, 1500),
                   pa.concat_tables([t.slice(0, 40), t.slice(901, 300)])]
    con = duckdb.connect()
    exprs = text.token_stats_sql("text")
    patterns = {"n_tokens": text.TOKEN_RE, "n_ws_tokens": text.WS_TOKEN_RE,
                "n_upper": text.UPPER_RE, "n_punct": text.PUNCT_RE}
    for t in tables:
        eng = text.token_stats(t)
        con.register("d", t)
        sql = con.execute(
            "select " + ", ".join(f"{e} as {k}" for k, e in exprs.items())
            + " from d").arrow()
        for k in exprs:
            assert (sql[k].cast(eng[k].type).combine_chunks().equals(
                eng[k].combine_chunks())), k
        for k, pat in patterns.items():
            re2 = pc.count_substring_regex(t["text"], pat)
            assert re2.cast(pa.int64()).combine_chunks().equals(
                eng[k].combine_chunks()), k


def test_langid_stopword_heuristic():
    lid = text.LangId()
    assert lid.predict(["the cat and the dog in a house"]) == ["en"]
    assert lid.predict(["der hund ist nicht mit auf zu"]) == ["de"]
    assert lid.predict(["le chat est dans la maison que"]) == ["fr"]
    assert lid.predict(["el perro y la casa es una"]) == ["es"]
    assert lid.predict(["中文测试中文测试中文测试中文"]) == ["zh"]
    assert lid.predict([""]) == ["und"]


def test_fingerprint_determinism_and_sensitivity():
    # winnowing keeps only window-min k-grams, so near-identical repetitive
    # texts may legitimately share a fingerprint; sensitivity is asserted on
    # substantially different documents
    a = "the quick brown fox jumps over the lazy dog near the river bank"
    b = "completely different content describing ray data pipelines at scale"
    f1 = text.doc_fingerprints([a, a, b])
    f2 = text.doc_fingerprints([a, a, b])
    assert np.array_equal(f1, f2)
    assert f1[0] == f1[1]
    assert f1[0] != f1[2]
