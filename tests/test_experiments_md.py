"""EXPERIMENTS.md's measured Figure 1 and Figure 2 tables quote the
committed ``results/`` CSVs: each cell is the ``normalized`` column
rounded to two places."""

import csv
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Figure 2's column heads: (arch, variant) at 128 disks.
FIG2_COLUMNS = {"AD@400": ("active", "400MB"), "SMP@200": ("smp", "200MB"),
                "SMP@400": ("smp", "400MB")}


def _table(section: str, header: str):
    """The cells of the table under ``section`` whose header line
    starts with ``header``: (task, column head, text) triples."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    text = text[text.index(section):]
    lines = text[text.index(header):].splitlines()

    def cells(line):
        return [cell.strip().strip("*") for cell in line.strip("|").split("|")]
    heads = cells(lines[0])
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        task, *values = cells(line)
        yield from ((task, head, value)
                    for head, value in zip(heads[1:], values))


def _normalized(name: str, *key_fields: str):
    with open(ROOT / "results" / name, encoding="utf-8") as handle:
        return {tuple(row[field] for field in key_fields):
                f"{float(row['normalized']):.2f}"
                for row in csv.DictReader(handle)}


def test_measured_tables_match_results():
    fig1 = _normalized("fig1_arch_comparison.csv", "task", "arch", "disks")
    fig2 = _normalized("fig2_interconnect.csv", "task", "arch", "disks",
                       "variant")
    quoted = [(f"Figure 1 {task} {head}", value,
               fig1[(task, *head.split("@"))])
              for task, head, value in _table("## Figure 1 ", "| task |")]
    quoted += [(f"Figure 2 {task} {head}", value,
                fig2[(task, FIG2_COLUMNS[head][0], "128",
                      FIG2_COLUMNS[head][1])])
               for task, head, value in _table("## Figure 2 ", "| task |")]
    assert len(quoted) == 48 + 24
    assert [(cell, doc, csv_value) for cell, doc, csv_value in quoted
            if doc != csv_value] == []
