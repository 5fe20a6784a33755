"""Clustering, cloze similarity, and the forgetting report (``cli``'s table)."""

import numpy as np
import pytest

from daptlab.cli import ForgettingReport, ForgettingRow, forgetting_report
from daptlab.evaluate import (
    DISSIMILAR,
    SIMILAR,
    ClusterRun,
    SimilarityPair,
    build_pairs,
    cluster_eval,
    evaluate_pairs,
    kmeans,
    load_pairs,
    model_cloze_predictor,
    render_cloze,
    render_cluster_report,
    render_similarity_report,
    silhouette,
)
from daptlab.model import ModelConfig, forward, init_params, mlm_logits
from daptlab.tokenizer import CLS, MASK, SEP, SPECIAL_TOKENS, UNK, Vocab

from helpers import oracle_silhouette


def blobs(rng, centers, per_center, spread=0.05):
    points = np.concatenate([c + spread * rng.standard_normal((per_center, len(c)))
                             for c in np.asarray(centers, dtype=np.float64)])
    labels = np.repeat(np.arange(len(centers)), per_center)
    return points, labels


class TestKmeans:
    def test_rejects_bad_points(self):
        with pytest.raises(ValueError, match="non-empty"):
            kmeans(np.zeros((0, 3)), 1, seed=0)
        with pytest.raises(ValueError, match=r"\[n, d\]"):
            kmeans(np.zeros(5), 1, seed=0)

    @pytest.mark.parametrize("k", [0, -1, 7])
    def test_rejects_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="k must be in"):
            kmeans(np.zeros((6, 2)), k, seed=0)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        points, truth = blobs(rng, [[0.0, 0.0], [10.0, 10.0]], per_center=12)
        assign, centroids = kmeans(points, 2, seed=3)
        # same blob -> same cluster, different blobs -> different clusters
        assert len(set(assign[:12])) == 1
        assert len(set(assign[12:])) == 1
        assert assign[0] != assign[12]
        assert centroids.shape == (2, 2)
        for j in (assign[0], assign[12]):
            members = points[assign == j]
            assert np.allclose(centroids[j], members.mean(axis=0))

    def test_assignments_cover_valid_range(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((20, 3))
        assign, _ = kmeans(points, 4, seed=5)
        assert assign.shape == (20,)
        assert set(np.unique(assign)) <= set(range(4))

    def test_k_equals_one(self):
        points = np.arange(12.0).reshape(6, 2)
        assign, centroids = kmeans(points, 1, seed=0)
        assert (assign == 0).all()
        assert np.allclose(centroids[0], points.mean(axis=0))

    def test_k_equals_n_isolates_every_point(self):
        points = np.array([[0.0], [5.0], [10.0], [15.0]])
        assign, _ = kmeans(points, 4, seed=2)
        assert sorted(assign.tolist()) == [0, 1, 2, 3]

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((30, 4))
        first, _ = kmeans(points, 3, seed=11)
        second, _ = kmeans(points, 3, seed=11)
        assert (first == second).all()

    def test_points_assigned_to_nearest_returned_centroid(self):
        rng = np.random.default_rng(4)
        points, _ = blobs(rng, [[0.0], [8.0], [16.0]], per_center=10)
        assign, centroids = kmeans(points, 3, seed=0)
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert (assign == dists.argmin(axis=1)).all()

    def test_duplicate_points_ok(self):
        points = np.ones((8, 2))
        assign, _ = kmeans(points, 2, seed=0)
        assert assign.shape == (8,)

    def test_reseed_never_empties_another_cluster(self):
        # the point farthest from its centroid is the only member of a cluster
        # reseeded earlier in the same pass; moving it would empty that cluster
        points = np.array([[1.0], [1.0], [1.0], [2.0], [1.0], [0.0], [0.0], [2.0]])
        assign, centroids = kmeans(points, 5, seed=94)
        assert sorted(set(assign.tolist())) == [0, 1, 2, 3, 4]
        assert np.isfinite(centroids).all()
        for j in range(5):
            assert np.allclose(centroids[j], points[assign == j].mean(axis=0))


class TestSilhouette:
    def test_misaligned_shapes(self):
        with pytest.raises(ValueError, match="misaligned"):
            silhouette(np.zeros((4, 2)), [0, 1, 0])

    def test_needs_two_clusters(self):
        with pytest.raises(ValueError, match="at least 2 clusters"):
            silhouette(np.zeros((4, 2)), [0, 0, 0, 0])

    def test_hand_worked_one_dimensional(self):
        # points {0,1} vs {10,11}: per-point scores 9.5/10.5 and 8.5/9.5,
        # repeated by symmetry
        value = silhouette([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        assert value == pytest.approx(0.899749, abs=1e-6)

    def test_singleton_cluster_scores_zero(self):
        value = silhouette([[0.0], [10.0], [10.1]], [0, 1, 1])
        p1 = (10.0 - 0.1) / 10.0
        p2 = (10.1 - 0.1) / 10.1
        assert value == pytest.approx((0.0 + p1 + p2) / 3.0)

    def test_coincident_points_score_zero(self):
        assert silhouette(np.ones((4, 3)), [0, 0, 1, 1]) == 0.0

    def test_tight_separated_clusters_near_one(self):
        rng = np.random.default_rng(2)
        points, labels = blobs(rng, [[0.0, 0.0], [50.0, 50.0]], per_center=15,
                               spread=0.01)
        assert silhouette(points, labels) > 0.99

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 8))
            n_clusters = int(rng.integers(2, min(n, 5) + 1))
            points = rng.standard_normal((n, d))
            labels = rng.integers(0, n_clusters, size=n)
            labels[:2] = [0, 1]  # guarantee two distinct clusters
            assert silhouette(points, labels) == pytest.approx(
                oracle_silhouette(points, labels), abs=1e-9)

    def test_oracle_agreement_with_duplicates(self):
        points = np.array([[0.0], [0.0], [1.0], [5.0], [5.0], [6.0]])
        labels = [0, 0, 0, 1, 1, 1]
        assert silhouette(points, labels) == pytest.approx(
            oracle_silhouette(points, labels), abs=1e-9)


LETTERS = ("alpha", "bravo", "carol", "delta", "echo", "fox")


@pytest.fixture(scope="module")
def cluster_setup():
    vocab = Vocab(SPECIAL_TOKENS + LETTERS + ("yes", "no", "are", "and",
                                              "similar", "?"))
    config = ModelConfig(num_layers=3, hidden=8, num_heads=2, ffn_dim=16,
                         vocab_size=len(vocab), max_seq=16, dropout=0.0)
    params = init_params(config, seed=0)
    return config, params, vocab


class TestClusterEval:
    def test_rejects_small_k(self, cluster_setup):
        config, params, vocab = cluster_setup
        with pytest.raises(ValueError, match=">= 2"):
            cluster_eval(config, params, vocab, ["alpha"] * 4, k_values=[1, 2])
        with pytest.raises(ValueError, match=">= 2"):
            cluster_eval(config, params, vocab, ["alpha"] * 4, k_values=[])

    def test_rejects_too_few_documents(self, cluster_setup):
        config, params, vocab = cluster_setup
        with pytest.raises(ValueError, match="at least 3 documents"):
            cluster_eval(config, params, vocab, ["alpha", "bravo"], k_values=[2, 3])

    def test_runs_per_k(self, cluster_setup):
        config, params, vocab = cluster_setup
        texts = [f"{a} {b}" for a, b in zip(LETTERS, LETTERS[1:] + LETTERS[:1])]
        runs = cluster_eval(config, params, vocab, texts, k_values=[2, 3], seed=0)
        assert [r.k for r in runs] == [2, 3]
        for run in runs:
            assert isinstance(run, ClusterRun)
            assert len(run.assignments) == len(texts)
            assert all(isinstance(a, int) for a in run.assignments)
            assert -1.0 <= run.silhouette <= 1.0
        again = cluster_eval(config, params, vocab, texts, k_values=[2, 3], seed=0)
        assert again == runs

    def test_render_report(self):
        runs = [ClusterRun(k=2, assignments=(0, 1, 0), silhouette=0.25),
                ClusterRun(k=3, assignments=(0, 1, 2), silhouette=-0.125)]
        assert render_cluster_report("desk", runs) == (
            "model\tk\tsilhouette\n"
            "desk\t2\t0.250000\n"
            "desk\t3\t-0.125000\n")


class TestSimilarityPairs:
    def test_identical_words_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            SimilarityPair("virus", "virus", SIMILAR)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label must be"):
            SimilarityPair("virus", "malware", "kinda")

    def test_build_balances_positives(self):
        rng = np.random.default_rng(0)
        positives = [("virus", "malware"), ("breach", "leak"), ("worm", "trojan")]
        pairs = build_pairs(positives, rng)
        assert len(pairs) == 6
        assert [p.label for p in pairs[:3]] == [SIMILAR] * 3
        assert [p.label for p in pairs[3:]] == [DISSIMILAR] * 3
        pool = {w for a, b in positives for w in (a, b)}
        taken = {tuple(sorted(p)) for p in positives}
        seen = set()
        for neg in pairs[3:]:
            key = tuple(sorted((neg.word1, neg.word2)))
            assert neg.word1 in pool and neg.word2 in pool
            assert key not in taken
            assert key not in seen  # sampled without replacement
            seen.add(key)

    def test_build_accepts_pair_objects(self):
        rng = np.random.default_rng(1)
        pairs = build_pairs([SimilarityPair("ab", "cd", SIMILAR),
                             SimilarityPair("ef", "gh", SIMILAR)], rng)
        assert len(pairs) == 4
        assert all(p.label == DISSIMILAR for p in pairs[2:])

    def test_build_rejects_negative_input(self):
        with pytest.raises(ValueError, match="positive pairs only"):
            build_pairs([SimilarityPair("ab", "cd", DISSIMILAR)],
                        np.random.default_rng(0))

    def test_build_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one positive"):
            build_pairs([], np.random.default_rng(0))

    def test_build_needs_spare_combinations(self):
        # three words, all three pairs positive: nothing left for negatives
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="too small"):
            build_pairs([("a", "b"), ("a", "c"), ("b", "c")], rng)

    def test_build_needs_enough_candidates(self):
        # four words have six unordered pairs; five positives leave one candidate
        rng = np.random.default_rng(0)
        positives = [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d"), ("a", "d")]
        with pytest.raises(ValueError, match="cannot balance"):
            build_pairs(positives, rng)

    def test_build_deterministic_for_seed(self):
        positives = [("virus", "malware"), ("breach", "leak"), ("worm", "trojan")]
        first = build_pairs(positives, np.random.default_rng(5))
        second = build_pairs(positives, np.random.default_rng(5))
        assert first == second

    def test_load_pairs_roundtrip(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"word1": "virus", "word2": "malware"}\n'
                        '{"word1": "virus", "word2": "garden", '
                        '"label": "dissimilar"}\n')
        pairs = load_pairs(path)
        assert pairs == [SimilarityPair("virus", "malware", SIMILAR),
                         SimilarityPair("virus", "garden", DISSIMILAR)]

    def test_load_pairs_missing_field(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"word1": "virus"}\n')
        with pytest.raises(ValueError, match="word1/word2"):
            load_pairs(path)

    def test_load_pairs_empty_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no pairs"):
            load_pairs(path)


@pytest.fixture(scope="module")
def cloze_vocab():
    return Vocab(SPECIAL_TOKENS + ("are", "and", "similar", "?", "yes", "no",
                                   "virus", "malware", "vi", "##rus"))


class TestRenderCloze:
    def test_template_pieces_and_slot(self, cloze_vocab):
        vocab = cloze_vocab
        enc, mask_pos = render_cloze("virus", "malware", vocab, max_seq=16)
        pieces = [vocab.pieces[i] for i in enc.ids]
        assert pieces == [CLS, "are", "virus", "and", "malware", "similar", "?", MASK, SEP]
        assert mask_pos == 7
        assert pieces[mask_pos] == MASK
        assert enc.ids == [vocab.id_of(p) for p in pieces]
        # spans cover the six template words, not [CLS]/[MASK]/[SEP]
        assert enc.word_spans == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]

    def test_subword_split_widens_span(self):
        vocab = Vocab(SPECIAL_TOKENS + ("are", "and", "similar", "?",
                                        "vi", "##rus", "malware"))
        enc, mask_pos = render_cloze("virus", "malware", vocab, max_seq=16)
        assert [vocab.pieces[i] for i in enc.ids[2:4]] == ["vi", "##rus"]
        assert enc.word_spans[1] == (2, 4)
        assert mask_pos == len(enc.ids) - 2

    def test_unknown_word_becomes_unk(self, cloze_vocab):
        enc, _ = render_cloze("zzzz", "malware", cloze_vocab, max_seq=16)
        assert cloze_vocab.pieces[enc.ids[2]] == UNK

    def test_max_seq_too_small(self, cloze_vocab):
        with pytest.raises(ValueError, match="max_seq"):
            render_cloze("virus", "malware", cloze_vocab, max_seq=8)


class TestEvaluatePairs:
    def test_stub_predictor_exact_f1(self):
        pairs = [SimilarityPair("virus", "malware", SIMILAR),
                 SimilarityPair("breach", "leak", SIMILAR),
                 SimilarityPair("virus", "garden", DISSIMILAR),
                 SimilarityPair("leak", "pond", DISSIMILAR)]
        verdicts = {("virus", "malware"): (2.0, 1.0),   # yes -> true positive
                    ("breach", "leak"): (0.0, 3.0),     # no -> false negative
                    ("virus", "garden"): (1.0, 1.0),    # tie -> yes -> false pos
                    ("leak", "pond"): (-1.0, 0.5)}      # no -> true negative
        f1, predictions = evaluate_pairs(pairs, lambda a, b: verdicts[(a, b)])
        assert f1 == pytest.approx(2 * 1 / (2 * 1 + 1 + 1))
        assert [(p, pred) for p, pred in predictions] == list(zip(
            pairs, [SIMILAR, DISSIMILAR, SIMILAR, DISSIMILAR]))

    def test_tie_counts_as_similar(self):
        pairs = [SimilarityPair("a", "b", SIMILAR)]
        f1, predictions = evaluate_pairs(pairs, lambda a, b: (0.0, 0.0))
        assert predictions[0][1] == SIMILAR
        assert f1 == 1.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="no pairs"):
            evaluate_pairs([], lambda a, b: (1.0, 0.0))

    def test_model_predictor_needs_yes_and_no(self):
        vocab = Vocab(SPECIAL_TOKENS + ("are", "and", "similar", "?", "yes"))
        config = ModelConfig(num_layers=1, hidden=8, num_heads=2, ffn_dim=16,
                             vocab_size=len(vocab), max_seq=16, dropout=0.0)
        params = init_params(config, seed=0)
        with pytest.raises(ValueError, match="'no' as a single piece"):
            model_cloze_predictor(config, params, vocab)

    def test_model_predictor_end_to_end(self, cluster_setup):
        config, params, vocab = cluster_setup
        predict = model_cloze_predictor(config, params, vocab)
        yes, no = predict("alpha", "bravo")
        assert isinstance(yes, float) and isinstance(no, float)
        assert predict("alpha", "bravo") == (yes, no)
        pairs = [SimilarityPair("alpha", "bravo", SIMILAR),
                 SimilarityPair("carol", "delta", DISSIMILAR)]
        f1, predictions = evaluate_pairs(pairs, model_cloze_predictor(config, params, vocab))
        assert 0.0 <= f1 <= 1.0
        assert len(predictions) == 2

    def test_model_predictor_reads_the_mask_row_of_a_full_decode(self, cluster_setup):
        config, params, vocab = cluster_setup
        enc, mask_pos = render_cloze("alpha", "bravo", vocab, config.max_seq)
        hidden = forward(np.array([enc.ids]), np.ones((1, len(enc.ids)), dtype=np.int64),
                         config, params)
        full = mlm_logits(hidden[-1], params).data[0, mask_pos]
        yes, no = model_cloze_predictor(config, params, vocab)("alpha", "bravo")
        assert yes == pytest.approx(float(full[vocab.id_of("yes")]), rel=1e-6)
        assert no == pytest.approx(float(full[vocab.id_of("no")]), rel=1e-6)

    def test_render_report(self):
        predictions = [(SimilarityPair("virus", "malware", SIMILAR), SIMILAR),
                       (SimilarityPair("virus", "garden", DISSIMILAR), SIMILAR)]
        assert render_similarity_report("desk", 2.0 / 3.0, predictions) == (
            "model\tf1\n"
            "desk\t0.666667\n"
            "\n"
            "word1\tword2\tgold\tpredicted\n"
            "virus\tmalware\tsimilar\tsimilar\n"
            "virus\tgarden\tdissimilar\tsimilar\n")


class TestForgetting:
    def test_row_delta_and_improved(self):
        row = ForgettingRow(task="ner", base=0.80, adapted=0.85)
        assert row.delta == pytest.approx(0.05)
        assert row.improved
        assert not ForgettingRow(task="ner", base=0.80, adapted=0.80).improved
        assert not ForgettingRow(task="ner", base=0.80, adapted=0.70).improved

    def test_report_aggregates(self):
        report = forgetting_report({"a": 0.9, "b": 0.5, "c": 0.7},
                                   {"a": 0.8, "b": 0.6, "c": 0.7})
        assert report.mean_delta == pytest.approx((-0.1 + 0.1 + 0.0) / 3)
        assert [r.task for r in report.rows if r.improved] == ["b"]
        assert [r.task for r in report.rows] == ["a", "b", "c"]

    def test_render_exact(self):
        report = ForgettingReport(rows=[
            ForgettingRow(task="cls", base=0.9312, adapted=0.9518),
            ForgettingRow(task="ner", base=0.8054, adapted=0.7711)])
        assert report.render() == (
            "task\tbase\tadapted\tdelta\tnote\n"
            "cls\t0.9312\t0.9518\t+0.0206\timproved\n"
            "ner\t0.8054\t0.7711\t-0.0343\t-\n"
            "mean\t-\t-\t-0.0069\t-\n")

    def test_task_sets_must_match(self):
        with pytest.raises(ValueError, match=r"only in base \['b'\], "
                                             r"only in adapted \['c'\]"):
            forgetting_report({"a": 1.0, "b": 1.0}, {"a": 1.0, "c": 1.0})

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            forgetting_report({}, {})

    def test_published_benchmark_totals(self):
        # aggregate quality score of a general benchmark before and after
        # domain adaptation; the mean delta is the headline forgetting number
        report = forgetting_report({"total_score": 0.600994},
                                   {"total_score": 0.546831})
        assert report.mean_delta == pytest.approx(-0.0542, abs=1e-4)
        assert [r.task for r in report.rows if r.improved] == []
