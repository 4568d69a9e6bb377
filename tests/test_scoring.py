"""PairScorer unit tests: protocol shape, identity/monotonicity, blend
semantics (0.9/0.1 per the reference's BiEncoder/test.py:120), frozen
scores, and batch-layout and pair-chunk invariance."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from chameleon_entity_linking_ray.config import LinkageConfig
from chameleon_entity_linking_ray.pipelines.linkage import (
    extract_mentions,
    generate_pairs,
    score_pairs,
)
from chameleon_entity_linking_ray.stages.scoring import PairScorer, edit_similarity
from chameleon_entity_linking_ray.stages.stats import build_idf_stats
from chameleon_entity_linking_ray.stages.vocab import build_vocab
from chameleon_entity_linking_ray.testing.synth import make_transcripts

# Every 42nd generate_pairs candidate (by left_id, right_id) of
# make_transcripts(n_convs=60, n_entities=12, seed=42), scored with that
# fixture's IDF tables: (left_text, right_text, text_score, entity_score,
# score), float32 values.
FROZEN = [
    ('glocex industries', 'stbrk industries',
     0.16157202422618866, 0.07269226014614105, 0.1526840329170227),
    ('glocex industries', 'vbndelay industries',
     0.26637551188468933, 0.0710577741265297, 0.24684374034404755),
    ('stbrk industries', 'wazne industries',
     0.16157202422618866, 0.08458636701107025, 0.15387344360351562),
    ('stbrk industries', 'cyberdzne industries',
     0.16157202422618866, 0.07166245579719543, 0.15258106589317322),
    ('cyberdyne industries', 'vaodelay industries',
     0.2547306716442108, 0.08393801003694534, 0.23765139281749725),
    ('vandflay industries', 'vandelay industries',
     0.8951964974403381, 0.5891259908676147, 0.8645893931388855),
    ('vandflay industries', 'suark industries',
     0.16157202422618866, 0.06649874150753021, 0.15206468105316162),
    ('acme industries', 'wayne industries',
     0.5213394165039062, 0.20943689346313477, 0.4901491701602936),
    ('wpnka industries', 'unbrella industries',
     0.26637551188468933, 0.140070378780365, 0.2537449896335602),
    ('wpnka industries', 'apesture industries',
     0.26637551188468933, 0.07758762687444687, 0.24749672412872314),
    ('tzrell industries', 'acne industries',
     0.3013100028038025, 0.10321512818336487, 0.28150051832199097),
    ('gmobex industries', 'vaodelay industries',
     0.3711790144443512, 0.07062210142612457, 0.3411233127117157),
    ('apertuse industries', 'tyrell industries',
     0.30195334553718567, 0.09060494601726532, 0.28081849217414856),
    ('apertuse industries', 'cybesdyne industries',
     0.34788933396339417, 0.08777226507663727, 0.3218776285648346),
    ('wonka industries', 'hopli industries',
     0.329257607460022, 0.09666190296411514, 0.3059980571269989),
    ('wazne industries', 'tyrell industries',
     0.16157202422618866, 0.10940878093242645, 0.15635569393634796),
    ('wazne industries', 'cyberdyoe industries',
     0.16157202422618866, 0.1096530631184578, 0.15638011693954468),
    ('iniuech industries', 'wayoe industries',
     0.28134745359420776, 0.07956579327583313, 0.2611692547798157),
    ('tyrell industries', 'vandelby industries',
     0.3711790144443512, 0.08882489800453186, 0.34294360876083374),
    ('vandelay industries', 'ioitech industries',
     0.30195334553718567, 0.189935564994812, 0.29075154662132263),
    ('hoomi industries', 'aqerture industries',
     0.16157202422618866, 0.07533464580774307, 0.1529482752084732),
    ('hoomi industries', 'hpoli industries',
     0.664628803730011, 0.1872662901878357, 0.6168925762176514),
    ('stask industries', 'vbndelay industries',
     0.16157202422618866, 0.10889676213264465, 0.1563044935464859),
    ('initfch industries', 'vandemay industries',
     0.26637551188468933, 0.06450118124485016, 0.24618807435035706),
    ('glpbex industries', 'wonla industries',
     0.16157202422618866, 0.08203791826963425, 0.15361860394477844),
    ('aqerture industries', 'cycerdyne industries',
     0.4410480260848999, 0.09409379959106445, 0.40635257959365845),
    ('tyrfll industries', 'tyreml industries',
     0.72052401304245, 0.27874019742012024, 0.6763455867767334),
    ('unbrella industries', 'umbrella industries',
     0.8951964974403381, 0.6122550964355469, 0.8669023513793945),
    ('hooli industries', 'ioitech industries',
     0.3161992132663727, 0.09257037192583084, 0.2938363254070282),
    ('cybfrdyne industries', 'ioitech industries',
     0.2454148232936859, 0.07021109759807587, 0.22789445519447327),
    ('apertvre industries', 'tysell industries',
     0.16157202422618866, 0.11064303666353226, 0.1564791202545166),
    ('umbrelma industries', 'stark industries',
     0.26637551188468933, 0.0864943414926529, 0.2483873963356018),
    ('wooka industries', 'wonla industries',
     0.664628803730011, 0.14438287913799286, 0.6126042008399963),
    ('ioitech industries', 'apfrture industries',
     0.329257607460022, 0.07011467218399048, 0.3033433258533478),
    ('tysell industries', 'globex industries',
     0.16157202422618866, 0.09200014173984528, 0.15461483597755432),
    ('umbrella industries', 'umbremla industries',
     0.8951964974403381, 0.623819887638092, 0.8680588006973267),
    ('tyreml industries', 'cybereyne industries',
     0.4410480260848999, 0.21919569373130798, 0.41886278986930847),
    ('cycerdyne industries', 'vandelby industries',
     0.2547306716442108, 0.06399643421173096, 0.2356572449207306),
    ('injtech industries', 'wbyne industries',
     0.28134745359420776, 0.0857425332069397, 0.26178693771362305),
    ('vaodelay industries', 'globfx industries',
     0.26637551188468933, 0.06606030464172363, 0.24634398519992828),
    ('wayne ind', 'vandelay ind',
     0.5374278426170349, 0.2284947782754898, 0.5065345168113708),
    ('hopli industries', 'initech industries',
     0.16157202422618866, 0.08862874656915665, 0.15427768230438232),
    ('wayne industries', 'aperuure industries',
     0.30195334553718567, 0.14029285311698914, 0.28578728437423706),
    ('apfrture industries', 'vaneelay industries',
     0.16157202422618866, 0.06460008025169373, 0.1518748253583908),
    ('initech industries', 'acne industries',
     0.28134745359420776, 0.1122877299785614, 0.26444146037101746),
    ('vbndelay industries', 'acne industries',
     0.16157202422618866, 0.09328593313694, 0.15474340319633484),
    ('wayoe industries', 'cybereyne industries',
     0.16157202422618866, 0.10601100325584412, 0.15601591765880585),
    ('stark ind', 'umbrella ind',
     0.4603324830532074, 0.023380402475595474, 0.41663727164268494),
    ('umcrella industries', 'vaneelay industries',
     0.3711790144443512, 0.06586256623268127, 0.3406473696231842),
    ('cyberdzne industries', 'cybesdyne industries',
     0.8136826753616333, 0.2690546214580536, 0.7592198848724365),
    ('initedh industries', 'hpoli industries',
     0.16157202422618866, 0.07480581104755402, 0.15289539098739624),
]


def pair_batch(pairs):
    return pa.table({
        "left_id": pa.array(range(len(pairs)), pa.int64()),
        "right_id": pa.array(range(len(pairs), 2 * len(pairs)), pa.int64()),
        "left_text": pa.array([p[0] for p in pairs], pa.string()),
        "right_text": pa.array([p[1] for p in pairs], pa.string()),
        "block_key": pa.array([0] * len(pairs), pa.int64()),
    })


BY_ID = [("left_id", "ascending"), ("right_id", "ascending")]


@pytest.fixture(scope="module")
def vocab():
    """Surface vocabulary of the e2e fixture the FROZEN pairs come from."""
    turns, _ = make_transcripts(n_convs=60, n_entities=12, seed=42)
    return build_vocab(extract_mentions(rd.from_arrow(turns), LinkageConfig())) \
        .materialize()


@pytest.fixture(scope="module")
def stats_ref(vocab):
    """IDF tables of the e2e fixture."""
    return ray.put(build_idf_stats(vocab, LinkageConfig()))


@pytest.fixture(scope="module")
def candidates(vocab):
    """``generate_pairs`` output of the e2e fixture, by (left_id, right_id)."""
    return pa.concat_tables(ray.get(
        generate_pairs(vocab, LinkageConfig()).to_arrow_refs())).sort_by(BY_ID)


class TestEditSimilarity:
    def test_identity(self):
        assert edit_similarity("acme", "acme") == 1.0

    def test_prefix_abbreviation(self):
        assert edit_similarity("ind", "industries") == pytest.approx(0.92)

    def test_single_typo(self):
        assert edit_similarity("wayne", "wbyne") == pytest.approx(0.8)

    def test_symmetry(self):
        assert edit_similarity("abc", "acbd") == edit_similarity("acbd", "abc")

    def test_unrelated_low(self):
        assert edit_similarity("aaaa", "zzzz") == 0.0


class TestPairScorer:
    def setup_method(self):
        self.scorer = PairScorer(LinkageConfig())

    def test_identical_pair_scores_one(self):
        out = self.scorer(pair_batch([("acme industries", "acme industries")]))
        assert out.column("score")[0].as_py() == pytest.approx(1.0, abs=1e-5)

    def test_output_columns(self):
        out = self.scorer(pair_batch([("a b", "a c")]))
        for col in ("text_score", "entity_score", "score"):
            assert col in out.column_names

    def test_blend_weights(self):
        out = self.scorer(pair_batch([("acme industries", "acme ind")]))
        t = out.column("text_score")[0].as_py()
        e = out.column("entity_score")[0].as_py()
        s = out.column("score")[0].as_py()
        assert s == pytest.approx(0.9 * t + 0.1 * e, abs=1e-5)

    def test_ordering_same_gt_diff(self):
        out = self.scorer(pair_batch([
            ("wayne industries", "wbyne industries"),  # typo alias
            ("wayne industries", "stark industries"),  # different entity
        ]))
        scores = out.column("score").to_pylist()
        assert scores[0] > scores[1]

    def test_empty_batch(self):
        out = self.scorer(pair_batch([]))
        assert out.num_rows == 0

    def test_deterministic(self):
        b = pair_batch([("hooli", "hooli industries"), ("x y", "y z")])
        s1 = self.scorer(b).column("score").to_pylist()
        s2 = PairScorer(LinkageConfig())(b).column("score").to_pylist()
        assert s1 == s2

    def test_pair_sharing_no_token_is_scored(self):
        # no shared token and no shared char 3-gram: blocking is the
        # retrieve stage, so the scorer reranks every pair it is given
        out = self.scorer(pair_batch([("abcd", "abdc")]))
        assert out.column("text_score")[0].as_py() == pytest.approx(0.5)
        assert out.column("score")[0].as_py() > 0


SCORES = ["text_score", "entity_score", "score"]


class TestFrozenScores:
    def test_scores_match_frozen(self, stats_ref):
        out = PairScorer(LinkageConfig(), stats_ref)(
            pair_batch([(left, right) for left, right, *_ in FROZEN]))
        for i, col in enumerate(SCORES, start=2):
            assert out.column(col).to_pylist() == [row[i] for row in FROZEN], col

    def test_batch_layout_does_not_change_scores(self, stats_ref):
        pairs = [(left, right) for left, right, *_ in FROZEN[:20]] + [
            ("acme industries", "acme industries"),  # equal sides
            ("acme industries", "acme ind"),         # repeated surfaces
            ("glocex industries", "acme ind"),
            ("", "acme industries"),                 # a side with no tokens
            ("acme ind", ""),
            ("", ""),
        ]
        scorer = PairScorer(LinkageConfig(), stats_ref)
        batch = pair_batch(pairs)
        whole = scorer(batch).select(SCORES)
        half = batch.num_rows // 2
        split = pa.concat_tables([scorer(batch.slice(0, half)),
                                  scorer(batch.slice(half))]).select(SCORES)
        rev = np.arange(batch.num_rows)[::-1]
        backwards = scorer(batch.take(rev)).select(SCORES)
        assert split.equals(whole)
        assert backwards.equals(whole.take(rev))
        text = whole.column("text_score").to_pylist()
        assert text[20] == pytest.approx(1.0)
        assert text[-3:] == [0.0, 0.0, 0.0]


class TestPairChunks:
    """One call featurizes its distinct surfaces once and scores its pairs
    ``scorer_batch_size`` at a time; no chunk layout changes a value."""

    def test_chunked_call_equals_chunk_sized_calls(self, candidates, stats_ref):
        scorer = PairScorer(LinkageConfig(scorer_batch_size=64), stats_ref)
        assert candidates.num_rows > 10 * 64
        calls = pa.concat_tables([scorer(candidates.slice(s, 64))
                                  for s in range(0, candidates.num_rows, 64)])
        assert scorer(candidates).equals(calls)

    def test_chunk_boundaries(self, stats_ref):
        real = [(left, right) for left, right, *_ in FROZEN[:6]]
        tokenless = [("", "acme industries"), ("acme ind", ""), ("", ""),
                     (" ", "acme")]
        batch = pair_batch(real[:4] + tokenless + real[4:])
        # chunk 2 holds only pairs with a token-less side
        scorer = PairScorer(LinkageConfig(scorer_batch_size=4), stats_ref)
        one_by_one = pa.concat_tables([scorer(batch.slice(i, 1))
                                       for i in range(batch.num_rows)])
        assert scorer(batch).equals(one_by_one)
        assert one_by_one.column("text_score").to_pylist()[4:8] == [0.0] * 4
        # a block smaller than one chunk
        small = PairScorer(LinkageConfig(), stats_ref)(batch.slice(0, 3))
        assert small.equals(one_by_one.slice(0, 3))
        # an empty block keeps the typed output schema
        empty = scorer(batch.slice(0, 0))
        assert empty.num_rows == 0 and empty.schema.equals(one_by_one.schema)

    def test_score_pairs_scores_fixture_to_frozen(self, candidates, stats_ref):
        # default path: one scorer call per pair block (here one block of
        # more than one chunk)
        out = pa.concat_tables(ray.get(score_pairs(
            rd.from_arrow(candidates), LinkageConfig(), stats_ref
        ).to_arrow_refs())).sort_by(BY_ID)
        assert out.num_rows == candidates.num_rows > LinkageConfig().scorer_batch_size
        every_42nd = out.take(pa.array(range(0, out.num_rows, 42)))
        assert list(zip(every_42nd.column("left_text").to_pylist(),
                        every_42nd.column("right_text").to_pylist())) == \
            [(left, right) for left, right, *_ in FROZEN]
        for i, col in enumerate(SCORES, start=2):
            assert every_42nd.column(col).to_pylist() == [row[i] for row in FROZEN], col


def test_score_pairs_rejects_kwargs_without_scorer_cls():
    pairs = rd.from_arrow(pair_batch([("a b", "a c")]))
    with pytest.raises(ValueError, match="scorer_kwargs"):
        score_pairs(pairs, LinkageConfig(), scorer_kwargs={"prefilter": 0.5})
