"""SVMlight parsing, fold assembly, synthetic data, and writers."""

import re
import warnings

import numpy as np
import pytest
from oracles import svmlight_per_line

from smoothrank import (
    Dataset,
    DatasetError,
    ParseError,
    SchemaError,
    assemble_folds,
    data_io,
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["grade", "feature"])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_non_finite_value_is_parse_error(self, tmp_path, value, field, layout):
        """Each reader refuses a non-finite grade or feature value with the
        file and line: ``nan < 0`` and ``inf >= 0`` let a sign check pass."""
        second = "0 qid:1 1:0.1 2:0.75 # b" if layout == "dense" else "0 qid:1 2:0.75 # b"
        second = second.replace("0 qid", f"{value} qid") if field == "grade" else second.replace("0.75", value)
        path = tmp_path / "s.txt"
        path.write_text(f"1 qid:1 1:0.5 2:0.25 # a\n{second}\n")
        what = "relevance" if field == "grade" else "feature value"
        with pytest.raises(ParseError, match=rf"s\.txt:2: non-finite {what} '.*{value}'"):
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


def _dense_lines(seed, queries=("7", "9", "tr12"), per_query=3, dim=4):
    """A seeded dense file's lines: grades 0-2, values in several float
    spellings, a comment on some lines."""
    rng = np.random.default_rng(seed)
    spellings = (repr, lambda v: "%.17g" % v, lambda v: "%.6f" % v)
    lines = []
    for qid in queries:
        for j in range(per_query):
            feats = " ".join(
                f"{i + 1}:{spellings[int(rng.integers(3))](float(rng.standard_normal()))}"
                for i in range(dim)
            )
            comment = f" # {qid}-d{j}" if rng.random() < 0.7 else ""
            lines.append(f"{int(rng.integers(3))} qid:{qid} {feats}{comment}")
    return lines


def _outcome(parse, path):
    try:
        return parse(path)
    except ValueError as exc:  # ParseError or DatasetError
        return exc


def assert_parses_as_per_line(path):
    """parse_svmlight gives the per-line reader's Dataset to the byte, or
    raises the same exception type with the same message."""
    got, want = _outcome(parse_svmlight, path), _outcome(svmlight_per_line, path)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert_same_dataset(got, want)


def assert_same_dataset(got, want):
    assert isinstance(got, Dataset), got
    assert got.feature_dim == want.feature_dim
    assert list(got.groups) == list(want.groups)
    for qid, g in want.groups.items():
        h = got.groups[qid]
        assert h.doc_ids == g.doc_ids
        for a, b in ((h.features, g.features), (h.relevance, g.relevance)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()


def _set_value(line, value):
    """The line with feature 2's value spelled ``value``."""
    return re.sub(r"(?<= 2:)\S+", value, line, count=1)


# (name, line -> mutated line) on lines like "1 qid:7 1:0.5 2:-1.25 3:... # c"
MUTATIONS = [
    ("index 3.0", lambda s: s.replace(" 3:", " 3.0:")),
    ("index 1_0", lambda s: s.replace(" 1:", " 1_0:")),
    ("index +3", lambda s: s.replace(" 3:", " +3:")),
    ("index 03", lambda s: s.replace(" 3:", " 03:")),
    ("index 0", lambda s: s.replace(" 1:", " 0:")),
    ("index -1", lambda s: s.replace(" 1:", " -1:")),
    ("index 1e0", lambda s: s.replace(" 1:", " 1e0:")),
    ("index overflows int64", lambda s: s.replace(" 1:", " 99999999999999999999:")),
    ("arabic-indic index", lambda s: s.replace(" 3:", " \u0663:")),
    ("duplicate index", lambda s: s.replace(" 2:", " 1:")),
    ("missing index", lambda s: " ".join(t for t in s.split(" ") if not t.startswith("4:"))),
    ("extra index", lambda s: s.replace(" #", " 5:1.5 #") if "#" in s else s + " 5:1.5"),
    ("swapped indices", lambda s: s.replace(" 1:", " @:").replace(" 2:", " 1:").replace(" @:", " 2:")),
    ("negative grade", lambda s: "-1" + s[1:]),
    ("nan grade", lambda s: "nan" + s[1:]),
    ("negative zero grade", lambda s: "-0" + s[1:]),
    ("inf grade", lambda s: "inf" + s[1:]),
    ("grade 1:2", lambda s: "1:2" + s[1:]),
    ("grade x", lambda s: "x" + s[1:]),
    ("nbsp", lambda s: s.replace(" 2:", "\xa02:")),
    ("nbsp beside space", lambda s: s.replace(" 2:", " \xa02:")),
    ("tab", lambda s: s.replace(" 2:", "\t2:")),
    ("tab beside space", lambda s: s.replace(" 2:", "\t 2:")),
    ("tab and empty index", lambda s: s.replace(" 2:", "\t2 :")),
    ("vertical tab", lambda s: s.replace(" 2:", "\x0b2:")),
    ("form feed beside space", lambda s: s.replace(" 2:", " \x0c2:")),
    ("file separator", lambda s: s.replace(" 3:", "\x1c3:")),
    ("carriage return", lambda s: s.replace(" 3:", "\r3:")),
    ("double space", lambda s: s.replace(" 2:", "  2:")),
    ("trailing spaces", lambda s: s + "   "),
    ("nul in value", lambda s: s.replace(" 2:", " 2:1\x00")),
    ("space after colon", lambda s: s.replace(" 2:", " 2: ")),
    ("qid::", lambda s: s.replace("qid:", "qid::")),
    ("empty qid", lambda s: s.split(" ", 2)[0] + " qid: " + s.split(" ", 2)[2]),
    ("qid with colon", lambda s: s.replace("qid:", "qid:a:")),
    ("missing qid", lambda s: s.replace("qid:", "query:")),
    ("a:b:c", lambda s: s.replace(" 2:", " 2:1:")),
    ("colon-less token beside a:b:c", lambda s: s.replace(" 2:", " 2:1:").replace(" 4:", " ")),
    ("empty value", lambda s: _set_value(s, "")),
    ("empty index", lambda s: s.replace(" 2:", " :")),
    ("value inf", lambda s: _set_value(s, "inf")),
    ("value -nan", lambda s: _set_value(s, "-nan")),
    ("value 1e999", lambda s: _set_value(s, "1e999")),
    ("value -0", lambda s: _set_value(s, "-0")),
    ("value 1_0", lambda s: _set_value(s, "1_0")),
    ("value 0x1p3", lambda s: _set_value(s, "0x1p3")),
    ("value 3.", lambda s: _set_value(s, "3.")),
    ("comment only", lambda s: "# " + s),
    ("second hash", lambda s: s + " # more"),
    ("rel only", lambda s: s.split(" ")[0]),
]


class TestDenseReader:
    """parse_svmlight reads dense files with one loadtxt call; on every
    file it gives the per-line reader's result."""

    @pytest.mark.parametrize("name, mutate", MUTATIONS, ids=[m[0] for m in MUTATIONS])
    @pytest.mark.parametrize("where", [0, 4, 8])
    def test_mutated_line_parses_as_per_line(self, tmp_path, name, mutate, where):
        lines = _dense_lines(seed=where)
        lines[where] = mutate(lines[where])
        path = tmp_path / "m.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        assert_parses_as_per_line(path)

    DENSE_FILES = {
        "bench-like": "\n".join(_dense_lines(seed=1)) + "\n",
        "no features": "1 qid:1 # a\n0 qid:1\n2 qid:2 #\n",
        "crlf": "\r\n".join(_dense_lines(seed=2)) + "\r\n",
        "cr": "\r".join(_dense_lines(seed=3)) + "\r",
        "qid in two blocks": "\n".join(_dense_lines(seed=4, queries=("7", "9", "7"))) + "\n",
        "one line": _dense_lines(seed=5)[0] + "\n",
        "no final newline": "\n".join(_dense_lines(seed=6)),
        "blank lines": "\n\n" + "\n \t\n".join(_dense_lines(seed=7)) + "\n\n",
        "one feature": "\n".join(_dense_lines(seed=8, dim=1)) + "\n",
        "tab before comment": "\n".join(s.replace(" #", "\t#") for s in _dense_lines(seed=9)),
        "tab after qid": "\n".join(s.replace(" 1:", "\t1:") for s in _dense_lines(seed=10)),
    }

    @pytest.mark.parametrize("name", list(DENSE_FILES))
    def test_dense_file_parses_as_per_line(self, tmp_path, name):
        path = tmp_path / "d.txt"
        path.write_bytes(self.DENSE_FILES[name].encode("utf-8"))
        assert_parses_as_per_line(path)

    @pytest.mark.parametrize("name", list(DENSE_FILES))
    def test_dense_file_skips_the_per_line_reader(self, tmp_path, monkeypatch, name):
        """A regression to reading every file line by line fails here."""
        path = tmp_path / "d.txt"
        path.write_bytes(self.DENSE_FILES[name].encode("utf-8"))
        want = parse_svmlight(path)

        def per_line(*args):
            raise AssertionError("a dense file reached the per-line reader")

        monkeypatch.setattr(data_io, "_parse_line", per_line)
        assert_same_dataset(parse_svmlight(path), want)

    @pytest.mark.parametrize("limit", [3, 4])
    def test_index_limit_holds_for_dense_files(self, tmp_path, monkeypatch, limit):
        """A dense file whose width passes the feature-index limit fails as
        the per-line reader fails it, at its first line."""
        path = tmp_path / "d.txt"
        path.write_text("\n".join(_dense_lines(seed=12)) + "\n")
        monkeypatch.setattr(data_io, "MAX_FEATURE_INDEX", limit)
        assert_parses_as_per_line(path)
        if limit == 3:
            with pytest.raises(ParseError, match=r"d\.txt:1: feature index 4 exceeds the limit 3"):
                parse_svmlight(path)

    @pytest.mark.parametrize("text", ["", "\n\n", " \n\t\n"])
    def test_empty_files_parse_as_per_line(self, tmp_path, text):
        path = tmp_path / "e.txt"
        path.write_text(text)
        assert_parses_as_per_line(path)

    def test_loadtxt_warning_falls_back(self, tmp_path, monkeypatch):
        """numpy 1.24-1.26 read "3.0" in an integer column with only a
        DeprecationWarning; int("3.0") raises, so the file must fail as the
        per-line reader fails it."""
        real = np.loadtxt

        def old_loadtxt(lines, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return real([s.replace(" 3.0 ", " 3 ") for s in lines], **kwargs)

        lines = _dense_lines(seed=11)
        lines[4] = lines[4].replace(" 3:", " 3.0:")
        path = tmp_path / "w.txt"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(np, "loadtxt", old_loadtxt)
        with pytest.raises(ParseError, match=r"w\.txt:5: bad feature token '3\.0:"):
            parse_svmlight(path)
        clean = tmp_path / "c.txt"
        clean.write_text(self.DENSE_FILES["bench-like"])
        assert_parses_as_per_line(clean)


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

    def test_train_split_without_features_rejected(self, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("1 qid:1 # a\n0 qid:1 # b\n")
        with pytest.raises(SchemaError, match="fold 0: the train file has no feature values"):
            assemble_folds([{"train": train, "vali": train, "test": train}])

    def test_featureless_vali_and_test_are_padded(self, tmp_path):
        rng = np.random.default_rng(5)
        train = tmp_path / "train.txt"
        _write_split(train, [1], 3, rng)
        vali = tmp_path / "vali.txt"
        vali.write_text("1 qid:2 # a\n0 qid:2\n")
        test = tmp_path / "test.txt"
        test.write_text("0 qid:3 # c\n")
        ds = assemble_folds([{"train": train, "vali": vali, "test": test}])[0]
        assert ds.groups["2"].features.shape == (2, 3)
        np.testing.assert_array_equal(ds.groups["3"].features, np.zeros((1, 3)))

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
