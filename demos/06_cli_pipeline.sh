#!/usr/bin/env bash
# Drives every daptlab subcommand once, start to finish, in a scratch
# directory: raw dumps -> corpus -> vocab -> base model -> adapted model ->
# intrinsic evals -> fine-tunes -> forgetting table -> merged report.
#
# Usage: bash demos/06_cli_pipeline.sh [workdir]
# Finishes in well under a minute; every artifact lands in <workdir>/run.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
if ! command -v daptlab >/dev/null; then
    # not installed: run the package straight from this checkout
    export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
    daptlab() { python3 -m daptlab.cli "$@"; }
fi

WORK="${1:-$(mktemp -d)}"
RUN="$WORK/run"
mkdir -p "$WORK"
echo "== workspace: $WORK"

python3 - "$WORK" <<'PY'
import json, sys
from pathlib import Path

from daptlab.synth import (DOMAIN_TOPICS, classification_records,
                           cloze_statements, tagging_records, topic_corpus)

work = Path(sys.argv[1])

def jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")

# one coherent world: topical documents, yes/no statements about the same
# words, and a few sentences that carry the fine-tuning vocabulary
docs = topic_corpus(DOMAIN_TOPICS, 40, words_per_doc=8, seed=1)[0]
docs += cloze_statements(DOMAIN_TOPICS, 30, seed=2)
docs += [" ".join(r["tokens"]) for r in tagging_records(12, seed=9)]
docs += [r["text"] for r in classification_records(6, seed=10)]
records = [{"id": f"n{i}", "source": "nvd", "text": t}
           for i, t in enumerate(docs)]
records.append({"id": "t0", "source": "twitter",
                "text": "security advisory today"})
records.append({"id": "b0", "source": "blog", "text": "too short to keep"})
jsonl(work / "dump.jsonl", records)
with open(work / "dump.jsonl", "a", encoding="utf-8") as handle:
    handle.write("{broken json\n")  # tolerated: under the malformed-line limit

domain = topic_corpus({"malware": DOMAIN_TOPICS["malware"],
                       "vulns": DOMAIN_TOPICS["vulns"]}, 16,
                      words_per_doc=8, seed=13)[0]
jsonl(work / "domain.jsonl",
      [{"id": f"d{i}", "source": "nvd", "text": t}
       for i, t in enumerate(domain)])

jsonl(work / "pairs.jsonl", [{"word1": "trojan", "word2": "rootkit"},
                             {"word1": "cipher", "word2": "keypair"}])
jsonl(work / "classify.jsonl", classification_records(60, seed=3))
jsonl(work / "tagged.jsonl", tagging_records(40, seed=4))

# stand-ins for external benchmark totals of the two fine-tuned tasks
(work / "base_scores.json").write_text(
    json.dumps({"relevance": 0.544, "entities": 0.661}))
(work / "adapted_scores.json").write_text(
    json.dumps({"relevance": 0.536, "entities": 0.612}))
print("inputs written:", ", ".join(sorted(p.name for p in work.iterdir())))
PY

# every stage shares one desk-scale profile; --set can still override it
CONFIG="$ROOT/configs/desk.ini"

echo "== corpus-build"
daptlab corpus-build "$WORK/dump.jsonl" --config "$CONFIG" --out "$RUN"
cat "$RUN/drop_report.tsv"

echo "== tokenizer-train"
daptlab tokenizer-train --corpus "$RUN/corpus.jsonl" --config "$CONFIG" \
    --out "$RUN"

echo "== corpus-stats"
daptlab corpus-stats --corpus "$RUN/corpus.jsonl" --vocab "$RUN/vocab.txt" \
    --config "$CONFIG" --out "$RUN"

echo "== pretrain"
daptlab pretrain --corpus "$RUN/corpus.jsonl" --vocab "$RUN/vocab.txt" \
    --config "$CONFIG" --out "$RUN"

echo "== dapt"
daptlab dapt --corpus "$WORK/domain.jsonl" --vocab "$RUN/vocab.txt" \
    --checkpoint "$RUN/base.ckpt" --name adapted --config "$CONFIG" --out "$RUN"

for CKPT in base adapted; do
    echo "== eval-cluster / eval-similarity ($CKPT)"
    daptlab eval-cluster --corpus "$RUN/corpus.jsonl" --vocab "$RUN/vocab.txt" \
        --checkpoint "$RUN/$CKPT.ckpt" --config "$CONFIG" --out "$RUN"
    daptlab eval-similarity --pairs "$WORK/pairs.jsonl" --vocab "$RUN/vocab.txt" \
        --checkpoint "$RUN/$CKPT.ckpt" --config "$CONFIG" --out "$RUN"
done

echo "== finetune-classify"
daptlab finetune-classify --data "$WORK/classify.jsonl" --vocab "$RUN/vocab.txt" \
    --checkpoint "$RUN/base.ckpt" --config "$CONFIG" --out "$RUN"

echo "== finetune-tag"
daptlab finetune-tag --data "$WORK/tagged.jsonl" --vocab "$RUN/vocab.txt" \
    --checkpoint "$RUN/base.ckpt" --config "$CONFIG" --out "$RUN"

echo "== forgetting"
daptlab forgetting --base "$WORK/base_scores.json" \
    --adapted "$WORK/adapted_scores.json" --config "$CONFIG" --out "$RUN"

echo "== report"
daptlab report "$RUN" --config "$CONFIG"

echo "== artifacts in $RUN (sha256)"
(cd "$RUN" && sha256sum -- *)

echo "== report.txt"
cat "$RUN/report.txt"
