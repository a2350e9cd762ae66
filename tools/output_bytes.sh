#!/usr/bin/env bash
# Usage: tools/output_bytes.sh <base-checkout>
#
# Runs verify-bounds, gradcheck, train, evaluate and sweep on fixed configs
# with this checkout's src/ and with <base-checkout>/src, and diffs the 24
# output files of the two sides byte for byte: synthetic lists of one length
# (one scorer at the default 1,024 units), 120 graded test lists, whose
# DCG, ideal DCG and AP sums take the fixed-point path, and LETOR files of
# varying length, some past AP's list cap. This checkout's sweep runs a
# second time with OPENBLAS_NUM_THREADS=1, which trains its cells in forked
# workers on two or more CPUs, and its two files are diffed against the
# base's as well: 26 files in all. Exits non-zero on any difference;
# `diff -u` shows which rows and columns moved. The .log files hold
# timestamps and stay out.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1/src/smoothrank" ]; then
  echo "usage: $0 <base-checkout>  (a checkout holding src/smoothrank)" >&2
  exit 2
fi
BASE=$(cd "$1" && pwd)
HEAD=$(cd "$(dirname "$0")/.." && pwd)
cfg=$(mktemp -d)
trap 'rm -rf "$cfg"' EXIT

echo '{"instances": 600, "min_docs": 4, "max_docs": 10, "k_values": [2, 3, 5], "delta": 0.1, "seed": 1, "output_dir": "bounds"}' > "$cfg/bounds.json"
# explicit alphas: rows skipped below their threshold, and lists of up to 30 documents
echo '{"instances": 150, "min_docs": 2, "max_docs": 30, "k_values": [2, 3, 5, 10], "alphas": [50.0, 2.0, 10000.0], "seed": 5, "output_dir": "bounds-alphas"}' > "$cfg/bounds-alphas.json"
echo '{"instances": 40, "min_docs": 2, "max_docs": 10, "seed": 1, "output_dir": "gradcheck"}' > "$cfg/gradcheck.json"
# one-document and 40-document lists, in groups of several lengths and cutoffs, rows in a non-default order
echo '{"instances": 30, "min_docs": 1, "max_docs": 40, "max_cutoff": 10, "alpha_max": 100.0, "loss_kinds": ["ndcg@k", "ap"], "grad_modes": ["stop_gradient", "full"], "seed": 3, "output_dir": "gradcheck-long"}' > "$cfg/gradcheck-long.json"
data='"docs_per_query": 10, "feature_dim": 5, "train_queries": 40, "validation_queries": 10, "test_queries": 10'
echo "{$data, \"hidden_dim\": 16, \"epochs\": 2, \"seed\": 1, \"output_dir\": \"train\"}" > "$cfg/train.json"
# the default 1,024 units, whose eval slices hold 64 rows: the 150 validation
# and 150 test documents span three slices each
wide='"docs_per_query": 10, "feature_dim": 5, "train_queries": 40, "validation_queries": 15, "test_queries": 15, "data_seed": 4'
echo "{$wide, \"hidden_dim\": 1024, \"epochs\": 2, \"seed\": 4, \"output_dir\": \"train-wide\"}" > "$cfg/train-wide.json"
# 120 graded test lists of 24 documents, evaluated in one length bucket: at
# least rank_core.FIXED_POINT_MIN_SUMS sums per call, so the exact metrics
# take their fixed-point path
graded='"docs_per_query": 24, "feature_dim": 5, "train_queries": 1, "validation_queries": 1, "test_queries": 120, "graded": true, "data_seed": 9'
# a 2 x 2 grid on graded labels; batches of 8 queries give each epoch five
# Adam steps, so the two alphas score apart (at one step per epoch all four
# cells tie); the two deltas rank the validation lists alike
grid="$data, \"graded\": true, \"alpha_grid\": [1.0, 10.0], \"delta_grid\": [0.1, 0.3], \"hidden_dim\": 16, \"epochs\": 2, \"batch_size_queries\": 8, \"seed\": 1"
echo "{$grid, \"output_dir\": \"sweep\"}" > "$cfg/sweep.json"
# the same grid again, run by the head alone with one BLAS thread per process:
# on two or more CPUs it trains its cells in forked worker processes
echo "{$grid, \"output_dir\": \"sweep-pool\"}" > "$cfg/sweep-pool.json"
# LETOR files of 3-40 documents per query, so validation spans several
# length buckets; every fifth vali and test query has no relevant document
python - "$cfg" <<'PY'
import sys
import numpy as np
rng = np.random.default_rng(7)
for name, count in (("train", 40), ("vali", 15), ("test", 15)):
    lines = []
    for q in range(count):
        n = int(rng.integers(3, 41))
        rel = rng.integers(0, 3, size=n)
        if name != "train" and q % 5 == 4:
            rel[:] = 0
        for j in range(n):
            feats = " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(rng.normal(size=6).tolist()))
            lines.append(f"{rel[j]} qid:{name}{q} {feats} # {name}{q}-d{j}")
    with open(f"{sys.argv[1]}/{name}.svm", "w") as fh:
        fh.write("\n".join(lines) + "\n")
PY
letor="\"dataset\": \"svmlight\", \"train_path\": \"$cfg/train.svm\", \"vali_path\": \"$cfg/vali.svm\", \"test_path\": \"$cfg/test.svm\""
echo "{$letor, \"hidden_dim\": 16, \"epochs\": 3, \"batch_size_queries\": 8, \"select_cutoff\": 3, \"seed\": 2, \"output_dir\": \"train-letor\"}" > "$cfg/train-letor.json"
# smooth AP on LETOR files whose queries alternate 130-200 and 5-40
# documents, so training batches hold lists past AP_LIST_CAP (128)
python - "$cfg" <<'PY'
import sys
import numpy as np
rng = np.random.default_rng(11)
for name, count in (("train", 12), ("vali", 6), ("test", 4)):
    lines = []
    for q in range(count):
        n = int(rng.integers(130, 201) if q % 2 == 0 else rng.integers(5, 41))
        rel = rng.integers(0, 3, size=n)
        for j in range(n):
            feats = " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(rng.normal(size=6).tolist()))
            lines.append(f"{rel[j]} qid:{name}{q} {feats} # {name}{q}-d{j}")
    with open(f"{sys.argv[1]}/{name}-ap.svm", "w") as fh:
        fh.write("\n".join(lines) + "\n")
PY
ap="\"dataset\": \"svmlight\", \"train_path\": \"$cfg/train-ap.svm\", \"vali_path\": \"$cfg/vali-ap.svm\", \"test_path\": \"$cfg/test-ap.svm\""
echo "{$ap, \"loss_kind\": \"ap\", \"alpha\": 10.0, \"hidden_dim\": 16, \"epochs\": 2, \"batch_size_queries\": 4, \"output_dir\": \"train-ap\"}" > "$cfg/train-ap.json"

for side in base head; do
  src=$([ "$side" = base ] && echo "$BASE/src" || echo "$HEAD/src")
  # each side evaluates the checkpoint its own train wrote
  echo "{$data, \"checkpoint\": \"$cfg/$side/train/checkpoint.json\", \"output_dir\": \"evaluate\"}" > "$cfg/evaluate-$side.json"
  echo "{$letor, \"checkpoint\": \"$cfg/$side/train-letor/checkpoint.json\", \"output_dir\": \"evaluate-letor\"}" > "$cfg/evaluate-letor-$side.json"
  echo "{$wide, \"checkpoint\": \"$cfg/$side/train-wide/checkpoint.json\", \"output_dir\": \"evaluate-wide\"}" > "$cfg/evaluate-wide-$side.json"
  echo "{$graded, \"checkpoint\": \"$cfg/$side/train/checkpoint.json\", \"output_dir\": \"evaluate-graded\"}" > "$cfg/evaluate-graded-$side.json"
  for run in "verify-bounds bounds" "verify-bounds bounds-alphas" "gradcheck gradcheck" "gradcheck gradcheck-long" \
             "train train" "evaluate evaluate-$side" "evaluate evaluate-graded-$side" \
             "train train-letor" "evaluate evaluate-letor-$side" \
             "train train-ap" "train train-wide" "evaluate evaluate-wide-$side" "sweep sweep"; do
    set -- $run
    SMOOTHRANK_OUT="$cfg/$side" PYTHONPATH="$src" python -c \
      'import sys; from smoothrank.cli import main; sys.exit(main(sys.argv[1:]))' \
      "$1" --config "$cfg/$2.json"
  done
done
SMOOTHRANK_OUT="$cfg/head" OPENBLAS_NUM_THREADS=1 PYTHONPATH="$HEAD/src" python -c \
  'import sys; from smoothrank.cli import main; sys.exit(main(sys.argv[1:]))' \
  sweep --config "$cfg/sweep-pool.json"

status=0
for file in bounds/bounds.csv bounds/summary.json bounds-alphas/bounds.csv bounds-alphas/summary.json \
            gradcheck/gradcheck.csv gradcheck-long/gradcheck.csv train/history.csv train/checkpoint.json \
            evaluate/metrics.json evaluate/run.txt evaluate-graded/metrics.json evaluate-graded/run.txt \
            train-letor/history.csv train-letor/checkpoint.json \
            evaluate-letor/metrics.json evaluate-letor/run.txt train-ap/history.csv train-ap/checkpoint.json \
            train-wide/history.csv train-wide/checkpoint.json evaluate-wide/metrics.json evaluate-wide/run.txt \
            sweep/sweep.csv sweep/best.json; do
  diff -u "$cfg/base/$file" "$cfg/head/$file" || status=1
done
for file in sweep.csv best.json; do
  diff -u "$cfg/base/sweep/$file" "$cfg/head/sweep-pool/$file" || status=1
done
[ "$status" = 0 ] && echo "all 26 output files are byte-identical"
exit $status
