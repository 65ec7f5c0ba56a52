"""EXPERIMENTS.md's measured Figure 1, 2 and 4 tables quote the
committed ``results/`` CSVs: each Figure 1 and 2 cell is the
``normalized`` column rounded to two places, each Figure 4 cell the
``improvement_pct`` column rounded to one."""

import csv
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Figure 2's column heads: (arch, variant) at 128 disks.
FIG2_COLUMNS = {"AD@400": ("active", "400MB"), "SMP@200": ("smp", "200MB"),
                "SMP@400": ("smp", "400MB")}

#: Figure 4's column heads: (disks, memory_mb).
FIG4_COLUMNS = {"16 disks": ("16", "64"), "32": ("32", "64"),
                "64": ("64", "64"), "128": ("128", "64"),
                "@128 MB (16 disks)": ("16", "128")}


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


def test_figure4_table_matches_results():
    def one_place(value):
        text = f"{float(value):.1f}"
        return "0.0" if text == "-0.0" else text

    with open(ROOT / "results" / "fig4_memory.csv", encoding="utf-8") as handle:
        improvement = {(row["task"], row["disks"], row["memory_mb"]):
                       one_place(row["improvement_pct"])
                       for row in csv.DictReader(handle)
                       if row["improvement_pct"]}
    # A row like "aggregate/groupby/dmine" quotes each of its tasks.
    quoted = [(f"Figure 4 {task} {head}", value,
               improvement[(task, *FIG4_COLUMNS[head])])
              for tasks, head, value in _table("## Figure 4 ", "| task |")
              for task in tasks.split("/")]
    assert len(quoted) == 8 * 5
    assert [(cell, doc, csv_value) for cell, doc, csv_value in quoted
            if doc != csv_value] == []
