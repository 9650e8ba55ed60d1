"""Print every reproduced table and figure as one markdown report.

Usage: python scripts/generate_experiments_report.py [scale] [output]

Runs Fig. 3 plus every experiment on both platforms at the given scale
(default ``small``) and writes the collected tables, each followed by its
wall time, to the output file (default stdout).  ``full`` reproduces the
paper's 882 x 10 x 2 campaign and takes hours; ``small`` keeps the
structure at laptop scale.
"""

import sys
import time

from repro.experiments import (
    ExperimentConfig,
    run_adversarial_ablation,
    run_fault_free_generalisation,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_multiclass_ablation,
    run_overhead,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    out = open(sys.argv[2], "w") if len(sys.argv) > 2 else sys.stdout

    def emit(text=""):
        print(text, file=out, flush=True)

    emit(f"# Experiment report (scale={scale})")
    emit()
    emit(run_fig3(None).text())
    for platform in ("glucosym", "t1ds2013"):
        config = ExperimentConfig.preset(scale, platform=platform)
        emit()
        emit(f"## platform {platform}: {len(config.patients)} patients x "
             f"{config.scenarios_per_patient} scenarios")
        for fn in (run_fig7, run_fig8, run_table5, run_table6, run_fig9,
                   run_table7, run_table8, run_adversarial_ablation,
                   run_multiclass_ablation, run_fault_free_generalisation,
                   run_overhead):
            start = time.time()
            result = fn(config)
            emit()
            emit(result.text())
            emit(f"({fn.__name__}: {time.time() - start:.0f}s)")
    if out is not sys.stdout:
        out.close()


if __name__ == "__main__":
    main()
