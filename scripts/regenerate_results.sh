#!/usr/bin/env bash
# Regenerate every full-scale experiment output under results/.
# Usage: scripts/regenerate_results.sh [python]
set -euo pipefail
cd "$(dirname "$0")/.."
PY="${1:-python3}"
# The checkout's own sources, whether or not the package is installed.
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p results

# repro <args...>: the repro CLI, with its exit status.
repro() {
    "$PY" -c "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))" "$@"
}

for exp in table2 table3 fig2 fig4 fig5 fig6 fig7 table5 headline tsp reactive; do
    echo "== $exp =="
    repro run "$exp" | tee "results/$exp.txt"
done
# fig3 at a finer sweep than the default benchmark granularity.
echo "== fig3 =="
repro run fig3 -o step=0.2 | tee results/fig3.txt
# The seeded extension sweeps write a JSON headline next to the
# rendered figure.
for exp in control realtime scaling; do
    echo "== $exp =="
    "$PY" - "$exp" <<'PYEOF'
import json
import sys

from repro.experiments.registry import run_experiment

exp = sys.argv[1]
res = run_experiment(exp)
with open(f"results/{exp}.json", "w") as fh:
    json.dump(res.headline(), fh, indent=1, sort_keys=True)
    fh.write("\n")
with open(f"results/{exp}.txt", "w") as fh:
    fh.write(res.format() + "\n")
print(res.format())
PYEOF
done
echo "all results regenerated under results/"
