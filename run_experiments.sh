#!/bin/bash
# Regenerates every table and figure of the paper into results/.
# Usage: ./run_experiments.sh [scale] [seeds]
# Stops at the first experiment that fails, with its exit code.
set -euo pipefail
SCALE=${1:-0.4}
SEEDS=${2:-1}
DEPBURST=target/release/depburst
cd "$(dirname "$0")"
echo "== table2 =="   ; $DEPBURST table2                 > results/table2.txt
echo "== table1 =="   ; $DEPBURST table1 $SCALE          > results/table1.txt 2>results/table1.log
echo "== fig1 =="     ; $DEPBURST fig1 $SCALE $SEEDS     > results/fig1.txt   2>results/fig1.log
echo "== fig3 =="     ; $DEPBURST fig3 both $SCALE $SEEDS > results/fig3.txt  2>results/fig3.log
echo "== fig4 =="     ; $DEPBURST fig4 $SCALE $SEEDS     > results/fig4.txt   2>results/fig4.log
echo "== fig6 =="     ; $DEPBURST fig6 "" $SCALE         > results/fig6.txt   2>results/fig6.log
echo "== fig7 =="     ; $DEPBURST fig7 10 $SCALE 1 250   > results/fig7.txt   2>results/fig7.log
echo "== ablation ==" ; $DEPBURST ablation $SCALE        > results/ablation.txt 2>results/ablation.log
echo "== percore =="  ; $DEPBURST percore $SCALE         > results/percore.txt 2>results/percore.log
echo "== faults =="   ; $DEPBURST faults $SCALE $SEEDS   > results/faults.txt  2>results/faults.log
echo "all experiments complete"
