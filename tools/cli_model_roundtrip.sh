#!/usr/bin/env bash
# End-to-end model file round trip through trajkit_cli, the shipping reader
# of LSTM model files:
#
#   tools/cli_model_roundtrip.sh <trajkit_cli> <work-dir>
#
# simulate (real + navigation) -> train-motion -> classify must succeed, and
# classify must refuse the same weights saved as a bare-text file (the model
# payload without its durable container).  Exits non-zero on any failure.
set -euo pipefail
cli="$1"
work="$2"
rm -rf "${work}"
mkdir -p "${work}"
cd "${work}"

"${cli}" simulate --out=real.csv
"${cli}" simulate --kind=navigation --out=nav.csv
"${cli}" train-motion --real=real.csv --fake=nav.csv --epochs=2 --hidden=8 \
  --model=motion.model
"${cli}" classify --model=motion.model --in=real.csv | grep -q "judged real"

# Container layout (common/durable/durable_file.hpp): 8-byte magic, u32 tag
# length, "lstm_classifier", u32 version, u32 record count, u64 record length,
# u32 record CRC — 47 bytes — then the payload, then an 8-byte footer.
tail -c +48 motion.model | head -c -8 > bare.model
[[ "$(head -n 1 bare.model)" == "trajkit_lstm_classifier_v1" ]]
if "${cli}" classify --model=bare.model --in=real.csv > /dev/null 2>&1; then
  echo "classify accepted a bare-text model file" >&2
  exit 1
fi
echo "cli model round trip ok"
