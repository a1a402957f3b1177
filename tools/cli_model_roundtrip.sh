#!/usr/bin/env bash
# End-to-end model file round trip through trajkit_cli, the shipping reader
# of LSTM model files, plus every other CLI command once:
#
#   tools/cli_model_roundtrip.sh <trajkit_cli> <work-dir>
#
# simulate (real + navigation) -> train-motion -> classify must succeed, and
# classify must refuse the same weights saved as a bare file (the binary model
# image without its durable container).  forge, mind, match and stats then
# run at smoke size on a 4-trajectory CSV; each must exit 0 and print its
# summary line.  Exits non-zero on any failure.
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
# The image opens with the 8-byte magic "TKLSTM2\n" (nn/serialize.cpp).
tail -c +48 motion.model | head -c -8 > bare.model
[[ "$(head -c 7 bare.model)" == "TKLSTM2" ]]
if "${cli}" classify --model=bare.model --in=real.csv > /dev/null 2>&1; then
  echo "classify accepted a bare model file" >&2
  exit 1
fi
# The remaining commands at smoke size.  forge and mind run the normalised
# DTW (attack loss, report and MinD) through the shipping binary.
"${cli}" simulate --count=4 --out=small.csv
out=$("${cli}" forge --model=motion.model --in=small.csv --out=forged.csv --iterations=20)
grep -q "/4 adversarial; wrote forged.csv" <<< "${out}"
[[ -s forged.csv ]]
out=$("${cli}" mind --repetitions=5)
grep -q "^walking: MinD=.* over 5 repetitions" <<< "${out}"
out=$("${cli}" match --in=small.csv)
grep -q "^traj 3: mean offset" <<< "${out}"
out=$("${cli}" stats --in=small.csv)
grep -q "^trajectories: 4 (walking, 48 points each)" <<< "${out}"
echo "cli model round trip ok"
