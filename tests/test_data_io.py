"""SVMlight parsing, fold assembly, synthetic data, and writers."""

import numpy as np
import pytest

from smoothrank import (
    Dataset,
    DatasetError,
    ParseError,
    SchemaError,
    assemble_folds,
    ndcg_at_k,
    parse_svmlight,
    synthesize,
    write_qrels,
    write_svmlight,
)

SAMPLE = """\
2 qid:7 1:0.5 3:1.0 # docA
0 qid:7 2:-1.25
1 qid:9 1:1.0 2:2.0 3:3.0 # docB
"""


class TestParse:
    def test_sample_file(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text(SAMPLE)
        ds = parse_svmlight(path)
        assert ds.feature_dim == 3
        assert list(ds.groups) == ["7", "9"]
        g7 = ds.groups["7"]
        assert len(g7) == 2
        assert g7.doc_ids == ["docA", "7_1"]
        np.testing.assert_array_equal(g7.relevance, [2.0, 0.0])
        np.testing.assert_array_equal(g7.features, [[0.5, 0.0, 1.0], [0.0, -1.25, 0.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\n1 qid:1 1:1.0\n\n")
        assert len(parse_svmlight(path).groups["1"]) == 1

    def test_non_numeric_relevance(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("x qid:1 1:0\n")
        with pytest.raises(ParseError, match=r"s\.txt:1"):
            parse_svmlight(path)

    def test_missing_qid(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 query:1 1:0\n")
        with pytest.raises(ParseError, match="qid"):
            parse_svmlight(path)

    def test_bad_feature_token(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 qid:1 1:0.5\n0 qid:1 foo\n")
        with pytest.raises(ParseError, match=r"s\.txt:2"):
            parse_svmlight(path)

    def test_zero_feature_index(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 qid:1 0:0.5\n")
        with pytest.raises(ParseError, match="1-based"):
            parse_svmlight(path)

    def test_non_utf8_bytes_are_parse_error(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"1 qid:1 1:0.5\n\xff\xfe qid:1 1:0.5\n")
        with pytest.raises(ParseError, match=r"s\.txt: not UTF-8"):
            parse_svmlight(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            parse_svmlight(path)


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        ds = synthesize(12, 5, 4, seed=3)
        path = tmp_path / "rt.txt"
        write_svmlight(ds, path)
        back = parse_svmlight(path)
        assert back.feature_dim == ds.feature_dim
        assert list(back.groups) == list(ds.groups)
        for qid, g in ds.groups.items():
            h = back.groups[qid]
            assert h.doc_ids == g.doc_ids
            np.testing.assert_array_equal(h.relevance, g.relevance)
            np.testing.assert_allclose(h.features, g.features, atol=1e-9)

    def test_qrels_lines(self, tmp_path):
        ds = synthesize(2, 3, 2, seed=0)
        path = tmp_path / "qrels.txt"
        write_qrels(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        first = lines[0].split()
        assert len(first) == 4
        assert first[1] == "0"
        assert first[3] in {"0", "1"}


def _write_split(path, qids, dim, rng):
    lines = []
    for qid in qids:
        for d in range(2):
            feats = " ".join(f"{i + 1}:{rng.random():.3f}" for i in range(dim))
            lines.append(f"{int(rng.integers(0, 2))} qid:{qid} {feats}")
    path.write_text("\n".join(lines) + "\n")


class TestFolds:
    def test_two_folds(self, tmp_path):
        rng = np.random.default_rng(0)
        folds = []
        for f in range(2):
            paths = {}
            for name, qids in (("train", [f * 10 + 1, f * 10 + 2]),
                               ("vali", [f * 10 + 3]),
                               ("test", [f * 10 + 4])):
                p = tmp_path / f"f{f}_{name}.txt"
                _write_split(p, qids, 4, rng)
                paths[name] = p
            folds.append(paths)
        datasets = assemble_folds(folds)
        assert len(datasets) == 2
        ds = datasets[0]
        assert set(ds.splits) == {"train", "validation", "test"}
        assert len(ds.splits["train"]) == 2
        assert ds.feature_dim == 4
        # split disjointness
        all_ids = [q for qids in ds.splits.values() for q in qids]
        assert len(all_ids) == len(set(all_ids))

    def test_narrower_split_is_padded(self, tmp_path):
        rng = np.random.default_rng(1)
        train = tmp_path / "train.txt"
        _write_split(train, [1, 2], 5, rng)
        vali = tmp_path / "vali.txt"
        _write_split(vali, [3], 3, rng)
        test = tmp_path / "test.txt"
        _write_split(test, [4], 5, rng)
        ds = assemble_folds([{"train": train, "vali": vali, "test": test}])[0]
        assert ds.feature_dim == 5
        assert ds.groups["3"].features.shape == (2, 5)
        np.testing.assert_array_equal(ds.groups["3"].features[:, 3:], 0.0)

    def test_wider_split_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        train = tmp_path / "train.txt"
        _write_split(train, [1], 3, rng)
        vali = tmp_path / "vali.txt"
        _write_split(vali, [2], 5, rng)
        test = tmp_path / "test.txt"
        _write_split(test, [3], 3, rng)
        with pytest.raises(SchemaError, match="exceeds"):
            assemble_folds([{"train": train, "vali": vali, "test": test}])

    def test_missing_file_is_schema_error(self, tmp_path):
        rng = np.random.default_rng(3)
        train = tmp_path / "train.txt"
        _write_split(train, [1], 3, rng)
        with pytest.raises(SchemaError, match="missing"):
            assemble_folds([{"train": train, "test": train}])
        with pytest.raises(SchemaError, match="cannot read"):
            assemble_folds([{"train": train, "vali": tmp_path / "nope.txt", "test": train}])

    def test_overlapping_qids_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        train = tmp_path / "train.txt"
        _write_split(train, [1, 2], 3, rng)
        vali = tmp_path / "vali.txt"
        _write_split(vali, [2], 3, rng)
        with pytest.raises(SchemaError, match="two splits"):
            assemble_folds([{"train": train, "vali": vali, "test": train}])


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize(20, 10, 6, seed=1)
        b = synthesize(20, 10, 6, seed=1)
        assert list(a.groups) == list(b.groups)
        for qid in a.groups:
            np.testing.assert_array_equal(a.groups[qid].features, b.groups[qid].features)
            np.testing.assert_array_equal(a.groups[qid].relevance, b.groups[qid].relevance)

    def test_hidden_linear_oracle_ranks_perfectly(self):
        """The hidden vector is the generator's first draw, so an oracle
        scorer can be reconstructed and must achieve ideal NDCG."""
        ds = synthesize(30, 12, 7, seed=9)
        hidden = np.random.default_rng(9).standard_normal(7)
        for g in ds.groups.values():
            scores = g.features @ hidden
            assert ndcg_at_k(g.relevance, scores, 12) == pytest.approx(1.0)

    def test_graded_uses_quartiles(self):
        ds = synthesize(5, 8, 3, seed=2, graded=True)
        for g in ds.groups.values():
            assert sorted(set(g.relevance.tolist())) in ([0.0, 1.0, 2.0], [0.0, 2.0])
            assert (g.relevance == 2.0).sum() == 2
            assert (g.relevance == 1.0).sum() == 2

    def test_random_scorer_precision_matches_relevant_fraction(self):
        """With 21 docs per query, a third are relevant, so a random scorer's
        expected P@1 is exactly 1/3 (Monte-Carlo check)."""
        ds = synthesize(1000, 21, 4, seed=5)
        rng = np.random.default_rng(99)
        hits = [
            g.relevance[int(rng.integers(21))] for g in ds.groups.values()
        ]
        assert np.mean(hits) == pytest.approx(1 / 3, abs=0.05)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            synthesize(0, 5, 3, seed=0)


class TestSplits:
    def test_split_by_counts(self):
        ds = synthesize(10, 4, 3, seed=0).split_by_counts(6, 2, 2)
        assert len(ds.splits["train"]) == 6
        assert len(ds.splits["validation"]) == 2
        assert len(ds.splits["test"]) == 2
        assert ds.query_ids("train")[0] == list(ds.groups)[0]

    def test_split_overflow_rejected(self):
        with pytest.raises(DatasetError, match="split"):
            synthesize(5, 4, 3, seed=0).split_by_counts(4, 2)

    def test_unknown_split_rejected(self):
        ds = synthesize(5, 4, 3, seed=0).split_by_counts(4, 1)
        with pytest.raises(DatasetError, match="no split"):
            ds.query_ids("test")

    def test_stats_layout(self):
        ds = synthesize(10, 4, 3, seed=0).split_by_counts(6, 2, 2)
        stats = ds.stats()
        assert stats["feature_dim"] == 3
        assert stats["splits"]["train"] == {"queries": 6, "docs": 24}
        assert stats["total"] == {"queries": 10, "docs": 40}

    def test_overlapping_splits_rejected_at_construction(self):
        ds = synthesize(4, 3, 2, seed=0)
        with pytest.raises(DatasetError, match="more than one split"):
            Dataset(groups=ds.groups, feature_dim=2,
                    splits={"train": list(ds.groups)[:2], "validation": list(ds.groups)[1:3]})
