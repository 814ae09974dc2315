import json
import shutil
from pathlib import Path

from mlpmod import cli
from mlpmod.report import load_reports, ordering_summary

# run_grid's output for seeds 0 and 1, 1 epoch, widths 784-16x4-10 on the
# 20-image smoke dataset, written by commit 39d1cb9: a report set from an
# earlier commit must still render to the same bytes. Checkpoints are left
# out, since rendering reads only the reports
GOLDEN = Path(__file__).parent / "data" / "golden_grid"


def test_a_report_set_from_an_earlier_commit_renders_unchanged(tmp_path):
    shutil.copytree(GOLDEN / "reports", tmp_path / "reports")
    assert cli.main(["report", "--in", str(tmp_path)]) == cli.EXIT_OK
    for name in ("table_weights.txt", "table_spearman.txt", "grid.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    reports = load_reports(tmp_path)
    assert len(reports) == 16
    summary = json.loads((GOLDEN / "grid_summary.json").read_text())
    assert ordering_summary(reports) == {
        key: summary[key] for key in ("activation_ordering", "dropout_lowers_ncut")
    }
